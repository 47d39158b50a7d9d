import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from math import factorial
from pathlib import Path

import pytest

from delpezzo import (
    CurveClass,
    DomainError,
    InternalError,
    LatticeVector,
    apply_word,
    basis_e,
    basis_h,
    blowdown_basis,
    conics,
    coplanar_triples,
    degree,
    disjoint_line_sets,
    double_sixes,
    dual_basis_lifts,
    enumerate_classes,
    enumerate_roots,
    incident_lines,
    inner,
    lines,
    make_configuration,
    make_marked_lattice,
    orbit,
    parse_vector,
    positive_roots,
    root_from_six,
    vectors_of_type,
)
from delpezzo.geometry import (
    _check_double_six,
    _class_table,
    _disjoint_sets,
    _line_table,
    _triples_summing_to,
)
from delpezzo.lattice import _texts_of_type
from helpers import (
    LINE_COUNTS,
    backtrack_disjoint_line_sets,
    esum,
    random_word,
    root_paired_double_sixes,
    set_and_sort_triples,
    wrap_mismatches,
)

RANKS = range(3, 9)


@pytest.mark.parametrize("r", RANKS)
def test_line_counts_and_adjunction(r):
    M = make_marked_lattice(r)
    got = lines(M)
    assert len(got) == LINE_COUNTS[r]
    for c in got:
        assert c.self_int == -1 and c.degree == 1
        assert inner(c.vector, c.vector) == -1
        assert degree(c.vector, M) == 1


def test_line_family_r6_literal():
    M = make_marked_lattice(6)
    expected = {basis_e(6, i) for i in range(1, 7)}
    expected |= {basis_h(6) - esum(6, p) for p in combinations(range(1, 7), 2)}
    expected |= {2 * basis_h(6) - esum(6, s) for s in combinations(range(1, 7), 5)}
    assert {c.vector for c in lines(M)} == expected


def test_lines_match_orbit_of_last_exceptional():
    for r in RANKS:
        M = make_marked_lattice(r)
        assert [c.vector for c in lines(M)] == orbit(M.e(r), M)


def test_conics_r6():
    M = make_marked_lattice(6)
    got = conics(M)
    assert len(got) == 27
    # same 27 as the orbit of the first dual basis lift h - e1
    assert [c.vector for c in got] == orbit(dual_basis_lifts(M)[0], M)


@pytest.mark.parametrize("r", RANKS)
def test_class_tables_match_the_walk(r):
    M = make_marked_lattice(r)
    assert conics(M) == enumerate_classes(M, 0, 2)
    assert lines(M) == enumerate_classes(M, -1, 1)
    assert [c.vector for c in lines(M)] == list(_line_table(r)[0])
    assert all(a.vector is b for a, b in zip(lines(M), _line_table(r)[0]))


def test_enumerate_classes_stores_ints():
    M = make_marked_lattice(4)
    for self_int, deg in [(True, 3), (False, 2)]:
        got = enumerate_classes(M, self_int, deg)
        assert got == enumerate_classes(M, int(self_int), int(deg))
        assert {(type(c.self_int), type(c.degree)) for c in got} == {(int, int)}


def test_adjunction_guard():
    M = make_marked_lattice(6)
    with pytest.raises(DomainError):
        enumerate_classes(M, 0, 1)
    # -2 - 0 = -2, so the root search passes the guard as well
    roots = enumerate_classes(M, -2, 0)
    assert len(roots) == 72
    assert vectors_of_type(M, 0, 1) == []


def test_twisted_cubics_r5():
    # degree-3 rational curves of square 1 on the degree-4 surface
    M = make_marked_lattice(5)
    got = enumerate_classes(M, 1, 3)
    assert len(got) == 16
    assert [c.vector for c in got] == orbit(M.h, M)


def test_coplanar_triples():
    M = make_marked_lattice(6)
    triples = coplanar_triples(M)
    assert len(triples) == 45
    per_line = {c.vector: 0 for c in lines(M)}
    for t in triples:
        assert len(t) == 3
        total = None
        for v in t:
            per_line[v] += 1
            total = v if total is None else total + v
        assert total == M.kappa
        for a, b in combinations(t, 2):
            assert inner(a, b) == 1
    assert set(per_line.values()) == {5}
    with pytest.raises(DomainError):
        coplanar_triples(make_marked_lattice(5))


def test_disjoint_line_sets():
    M = make_marked_lattice(6)
    assert len(disjoint_line_sets(M, 2)) == 216
    sixes = disjoint_line_sets(M, 6)
    assert len(sixes) == 72
    for six in sixes:
        assert len(six) == 6
        for a, b in combinations(six, 2):
            assert inner(a, b) == 0
    assert len(disjoint_line_sets(M, 1)) == 27
    with pytest.raises(DomainError):
        disjoint_line_sets(M, 0)
    with pytest.raises(DomainError):
        disjoint_line_sets(M, 7)


@pytest.mark.parametrize(
    "r,k", [(r, k) for r in range(3, 8) for k in range(1, r + 1)] + [(8, 1), (8, 2), (8, 3)]
)
def test_disjoint_line_sets_match_backtracking(r, k):
    M = make_marked_lattice(r)
    oracle = backtrack_disjoint_line_sets(M, k)
    assert disjoint_line_sets(M, k) == oracle
    # the sixes report's path: the same search over the lines' texts
    assert _disjoint_sets(r, k, _texts_of_type(r, -1, 1)) == [
        frozenset(map(str, s)) for s in oracle
    ]


def test_disjoint_line_sets_hash_each_line_once(monkeypatch):
    # each set is a union of per-call singletons, which copies stored hashes;
    # building the 10,080 sets from their members would hash 40,320 times
    M = make_marked_lattice(7)
    calls = []
    plain = LatticeVector.__hash__

    def counting(v):
        calls.append(v)
        return plain(v)

    monkeypatch.setattr(LatticeVector, "__hash__", counting)
    sets = disjoint_line_sets(M, 4)
    monkeypatch.undo()
    assert len(sets) == 10_080
    assert len(calls) <= LINE_COUNTS[7]


def test_disjoint_line_set_members_match_constructed_ones():
    members = [v for s in disjoint_line_sets(make_marked_lattice(6), 3) for v in s]
    assert len(members) == 3 * 720
    assert wrap_mismatches(members) == []


@pytest.mark.parametrize("r", RANKS)
def test_line_table_matches_inner(r):
    vecs, ts, later = _line_table(r)
    assert list(vecs) == vectors_of_type(make_marked_lattice(r), -1, 1)
    assert ts == tuple(v.coeffs() for v in vecs)
    assert _texts_of_type(r, -1, 1) == [str(v) for v in vecs]
    assert wrap_mismatches(vecs) == []
    for i, a in enumerate(vecs):
        want = sum(1 << j for j, b in enumerate(vecs) if j > i and inner(a, b) == 0)
        assert later[i] == want, (r, a)


def test_line_table_holds_only_tuples():
    # the lists handed out are fresh, so mutating one changes no later call
    vecs, ts, later = _line_table(6)
    assert all(type(x) is tuple for x in (vecs, ts, later))
    tables = _class_table(6, -1, 1), _class_table(6, 0, 2)
    assert all(type(x) is tuple for x in tables)
    M = make_marked_lattice(6)
    sets = disjoint_line_sets(M, 2)
    want = list(sets)
    sets.clear()
    assert disjoint_line_sets(M, 2) == want
    cfg = make_configuration([M.e(1) - M.e(2)], M)
    moved = incident_lines(cfg, M)
    want = list(moved)
    moved.pop()
    assert incident_lines(cfg, M) == want
    # incident_lines hands out the table's CurveClass objects
    table = {id(c) for c in tables[0]}
    assert all(id(c) in table for c in want)
    for listed in (lines, conics):
        found = listed(M)
        want = list(found)
        found.clear()
        assert listed(M) == want
    assert _line_table(6) == (vecs, ts, later)
    assert (_class_table(6, -1, 1), _class_table(6, 0, 2)) == tables


def test_import_and_lattices_build_no_table():
    # the benchmark's setup: a fresh interpreter imports the package and
    # builds every marked lattice; the per-rank tables wait for first use
    code = (
        "import delpezzo, delpezzo.cli\n"
        "from delpezzo.geometry import _class_table, _line_table\n"
        "for r in range(3, 9): delpezzo.make_marked_lattice(r)\n"
        "print(_line_table.cache_info().currsize, _class_table.cache_info().currsize,\n"
        "      delpezzo.cli._fixed_texts.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 0 0\n"


@pytest.mark.parametrize("r,weyl_order", [(6, 51_840), (7, 2_903_040), (8, 696_729_600)])
def test_blowdown_sets_count_closed_form(r, weyl_order):
    """W(E_r) acts simply transitively on ordered blowdown bases, so there
    are |W(E_r)|/r! sets of r disjoint lines."""
    M = make_marked_lattice(r)
    sets = disjoint_line_sets(M, r)
    assert len(sets) == weyl_order // factorial(r)
    assert len(set(sets)) == len(sets)
    assert frozenset(M.e(i) for i in range(1, r + 1)) in sets


@pytest.mark.parametrize("r", RANKS)
def test_blowdown_basis_standard(r):
    M = make_marked_lattice(r)
    basis = blowdown_basis([basis_e(r, i) for i in range(1, r + 1)], M)
    assert basis.gamma == M.h
    assert basis.epsilons == tuple(sorted(basis_e(r, i) for i in range(1, r + 1)))


def test_blowdown_basis_nonstandard():
    M = make_marked_lattice(6)
    other = [2 * M.h - (esum(6, range(1, 7)) - M.e(i)) for i in range(1, 7)]
    basis = blowdown_basis(other, M)
    assert basis.gamma == 5 * M.h - 2 * esum(6, range(1, 7))
    assert inner(basis.gamma, basis.gamma) == 1
    for i, a in enumerate(basis.epsilons):
        assert inner(basis.gamma, a) == 0
        for j, b in enumerate(basis.epsilons):
            assert inner(a, b) == (-1 if i == j else 0)
    # kappa looks the same in the new basis
    total = 3 * basis.gamma
    for a in basis.epsilons:
        total = total - a
    assert total == M.kappa


def test_blowdown_basis_accepts_curve_classes():
    M = make_marked_lattice(4)
    basis = blowdown_basis(
        [CurveClass.from_vector(basis_e(4, i), M) for i in range(1, 5)], M
    )
    assert basis.gamma == M.h


def test_blowdown_basis_rejects_bad_input():
    M = make_marked_lattice(6)
    es = [M.e(i) for i in range(1, 7)]
    with pytest.raises(DomainError):
        blowdown_basis(es[:5], M)
    with pytest.raises(DomainError):
        blowdown_basis(es[:5] + [M.h], M)  # h is not a line
    meeting = es[:5] + [M.h - M.e(1) - M.e(2)]
    with pytest.raises(DomainError):
        blowdown_basis(meeting, M)


@pytest.mark.parametrize(
    "classes,message",
    [
        ("e1,e2,e3,e4,e5,e5", "lines e5 and e5 are not disjoint"),  # a repeated line
        ("e1,e2,e3,e4,e5,h-e1-e2", "lines e2 and h-e1-e2 are not disjoint"),
        ("e1,e2,e3,e4,e5,h", "h is not a line class"),
        # the first fault in sorted order wins: the repeat before the non-line h,
        # the non-line -e1 before the repeat
        ("e1,e2,e3,e4,e4,h", "lines e4 and e4 are not disjoint"),
        ("-e1,e2,e3,e4,e5,e5", "-e1 is not a line class"),
    ],
)
def test_blowdown_basis_names_the_first_fault(classes, message):
    M = make_marked_lattice(6)
    with pytest.raises(DomainError) as info:
        blowdown_basis([parse_vector(c, 6) for c in classes.split(",")], M)
    assert str(info.value) == message


def test_blowdown_basis_refuses_exactly_the_meeting_sets():
    # the sum-square test against the pairwise products, on the 72 sixes,
    # on each with one line swapped for another, and on random six-sets
    M = make_marked_lattice(6)
    vecs = [c.vector for c in lines(M)]
    rng = random.Random(66)
    sixes = disjoint_line_sets(M, 6)
    trials = [sorted(six) for six in sixes]
    trials += [sorted(six - {rng.choice(sorted(six))} | {rng.choice(vecs)}) for six in sixes]
    trials += [rng.sample(vecs, 6) for _ in range(50)]
    outcomes = Counter()
    for classes in trials:
        if len(set(classes)) < 6:
            continue
        meets = any(inner(a, b) for a, b in combinations(classes, 2))
        try:
            blowdown_basis(classes, M)
        except DomainError as exc:
            assert meets and "are not disjoint" in str(exc)
        else:
            assert not meets
        outcomes[meets] += 1
    assert outcomes[True] >= 50 and outcomes[False] >= 72


def test_blowdown_basis_random_sixes():
    M = make_marked_lattice(6)
    rng = random.Random(21)
    start = tuple(M.e(i) for i in range(1, 7))
    for _ in range(25):
        word = random_word(rng, 6, 10)
        six = [apply_word(word, v, M) for v in start]
        basis = blowdown_basis(six, M)
        assert inner(basis.gamma, basis.gamma) == 1
        assert degree(basis.gamma, M) == 3


def test_root_from_six():
    M = make_marked_lattice(6)
    std = [M.e(i) for i in range(1, 7)]
    rho = root_from_six(std, M)
    assert rho.vector == 2 * M.h - esum(6, range(1, 7))
    other = [2 * M.h - (esum(6, range(1, 7)) - M.e(i)) for i in range(1, 7)]
    assert root_from_six(other, M).vector == -rho.vector
    for r in (5, 7):
        with pytest.raises(DomainError, match="^sixes require r = 6$"):
            root_from_six(std, make_marked_lattice(r))


def test_root_from_six_covers_all_roots():
    M = make_marked_lattice(6)
    images = [root_from_six(six, M).vector for six in disjoint_line_sets(M, 6)]
    assert len(images) == 72
    assert len(set(images)) == 72
    assert set(images) == {x.vector for x in enumerate_roots(M)}


def test_double_sixes():
    M = make_marked_lattice(6)
    pairs = double_sixes(M)
    assert len(pairs) == 36
    seen = set()
    for first, second in pairs:
        assert first not in seen and second not in seen
        seen |= {first, second}
        assert root_from_six(first, M).vector == -root_from_six(second, M).vector
        # classical interleaving: exactly one disjoint partner across the pair
        for a in first:
            assert sum(1 for b in second if inner(a, b) == 0) == 1
            assert sum(1 for b in second if inner(a, b) == 1) == 5
    assert len(seen) == 72
    assert seen == set(disjoint_line_sets(M, 6))


def test_double_six_check_rejects_what_does_not_interleave():
    M = make_marked_lattice(6)
    first, second = ([v.coeffs() for v in sorted(six)] for six in double_sixes(M)[0])
    _check_double_six(first, second)
    _check_double_six(second, first)
    # a six against itself: each line meets itself -1 times and misses five
    with pytest.raises(InternalError, match="interleave"):
        _check_double_six(first, first)
    # one line swapped for a line outside the pair: the counts break
    other = next(t for t in _line_table(6)[1] if t not in first + second)
    with pytest.raises(InternalError, match="interleave"):
        _check_double_six(first, second[:5] + [other])
    # a repeated line keeps every count but gives only five partners
    with pytest.raises(InternalError, match="bijection"):
        _check_double_six(first[:5] + first[:1], second)


def test_standard_double_six_is_listed():
    M = make_marked_lattice(6)
    first = frozenset(M.e(i) for i in range(1, 7))
    second = frozenset(
        2 * M.h - (esum(6, range(1, 7)) - M.e(i)) for i in range(1, 7)
    )
    assert (first, second) in double_sixes(M)


def test_double_sixes_match_root_pairing_oracle():
    M = make_marked_lattice(6)
    assert double_sixes(M) == root_paired_double_sixes(M)


def test_plus_level_set_of_a_root_is_its_six():
    M = make_marked_lattice(6)
    vecs = [c.vector for c in lines(M)]
    roots = positive_roots(M)
    assert len(roots) == 36
    for rho in roots:
        plus = [v for v in vecs if inner(v, rho.vector) == 1]
        assert root_from_six(plus, M).vector == rho.vector


def test_coplanar_triples_match_set_oracle():
    M = make_marked_lattice(6)
    assert coplanar_triples(M) == set_and_sort_triples(
        [c.vector for c in lines(M)], M.kappa
    )


@pytest.mark.parametrize("r", [6, 7, 8])
def test_triples_summing_to_match_set_oracle(r):
    """Seeded sorted subsets of the lines, with total kappa and with the sum
    of three random lines of the subset."""
    M = make_marked_lattice(r)
    vecs = [c.vector for c in lines(M)]
    rng = random.Random(400 + r)
    found = 0
    for _ in range(12):
        subset = sorted(rng.sample(vecs, rng.randint(3, len(vecs))))
        a, b, c = rng.sample(subset, 3)
        for total in (M.kappa, a + b + c):
            got = _triples_summing_to(subset, total)
            assert got == set_and_sort_triples(subset, total)
            found += len(got)
    assert found > 0
