"""Acceptance gate: one test per headline capability, each ending in an
explicit PASS line so a -s run reads as a checklist.  Everything asserted
here was derived independently of the implementation (closed-form
families, hand counts, linear algebra oracles)."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from delpezzo import (
    ConfigurationError,
    ConstraintError,
    TorsionPoint,
    apply_word,
    cartan_matrix,
    connect_markings,
    coplanar_triples,
    cubic_form_support,
    degree,
    disjoint_line_sets,
    dominant_representative,
    double_sixes,
    dual_partner,
    enumerate_roots,
    euler_char,
    evaluate,
    fundamental_weight_lift,
    highest_root,
    inner,
    is_dominant,
    is_minuscule,
    lines,
    make_configuration,
    make_marked_lattice,
    make_period,
    orbit,
    orbit_decomposition,
    positive_roots,
    reflect,
    restrict_to_coroots,
    root_from_six,
    weyl_canonicalize,
    word_matrix,
)
from helpers import (
    LINE_COUNTS,
    ROOT_COUNTS,
    closed_form_highest_root,
    closed_form_positive_roots,
    exact_determinant,
    random_vector,
    random_word,
)


def _ok(tag: str) -> None:
    print(f"[{tag}] PASS")


def test_criterion_01_line_counts():
    for r, expected in LINE_COUNTS.items():
        M = make_marked_lattice(r)
        by_search = [c.vector for c in lines(M)]
        by_orbit = orbit(M.e(r), M)
        assert len(by_search) == expected
        assert by_search == by_orbit
    _ok("criterion 01: line counts 6/10/16/27/56/240, search == orbit")


def test_criterion_02_root_counts():
    for r, expected in ROOT_COUNTS.items():
        assert len(enumerate_roots(make_marked_lattice(r))) == expected
    _ok("criterion 02: root counts 8/20/40/72/126/240")


def test_criterion_03_positive_root_families():
    for r in range(4, 9):
        M = make_marked_lattice(r)
        assert {x.vector for x in positive_roots(M)} == closed_form_positive_roots(r)
    _ok("criterion 03: positive roots match the closed-form families")


def test_criterion_04_highest_root_identities():
    for r in range(4, 9):
        M = make_marked_lattice(r)
        top = highest_root(M).vector
        assert top == closed_form_highest_root(r)
        residual = M.kappa - top
        if r == 4:
            assert residual == 2 * M.h - M.e(1)
        else:
            node = {5: 2, 6: 6, 7: 1, 8: 7}[r]
            assert residual == fundamental_weight_lift(M, node).vector
    _ok("criterion 04: highest roots and kappa - (highest root) identities")


def test_criterion_05_coplanar_triples():
    M = make_marked_lattice(6)
    triples = coplanar_triples(M)
    assert len(triples) == 45
    per_line = Counter(v for t in triples for v in t)
    assert len(per_line) == 27
    assert set(per_line.values()) == {5}
    assert set(cubic_form_support(M)) == set(triples)
    _ok("criterion 05: 45 triples, 5 per line, orbit route agrees")


def test_criterion_06_double_sixes():
    M = make_marked_lattice(6)
    sixes = disjoint_line_sets(M, 6)
    assert len(sixes) == 72
    pairs = double_sixes(M)
    assert len(pairs) == 36
    used = [s for p in pairs for s in p]
    assert len(used) == 72 and len(set(used)) == 72
    assert set(used) == set(sixes)
    roots = {root_from_six(s, M).vector for s in sixes}
    assert roots == {x.vector for x in enumerate_roots(M)}
    _ok("criterion 06: 36 double sixes partition the 72 sixes; roots covered")


def test_criterion_07_degenerations():
    M = make_marked_lattice(6)
    vecs = [c.vector for c in lines(M)]

    cfg = make_configuration([M.e(1) - M.e(2)], M)
    parts = orbit_decomposition(cfg, vecs, M)
    assert Counter(p.size for p in parts) == Counter({1: 15, 2: 6})

    empty = orbit_decomposition(make_configuration([], M), vecs, M)
    assert len(empty) == 27 and all(p.size == 1 for p in empty)

    rng = random.Random(77)
    pool = [x.vector for x in positive_roots(M)]
    for _ in range(100):
        rng.shuffle(pool)
        chosen = []
        for v in pool:
            if len(chosen) == 6:
                break
            if all(inner(v, c) in (0, 1) for c in chosen):
                try:
                    make_configuration(chosen + [v], M)
                except ConfigurationError:
                    continue
                chosen.append(v)
        config = make_configuration(chosen, M)
        parts = orbit_decomposition(config, vecs, M)
        members = [v for p in parts for v in p.members]
        assert len(members) == len(set(members))
        assert set(members) == set(vecs)
        assert all(letter in "ADE" for letter, _ in config.dynkin.components)
    _ok("criterion 07: degenerations split the 27 lines into exact suborbits")


def test_criterion_08_minuscule_weights():
    expected = {4: {1, 2, 3, 4}, 5: {1, 4, 5}, 6: {1, 5}, 7: {6}, 8: set()}
    for r, indices in expected.items():
        M = make_marked_lattice(r)
        got = {
            i
            for i in range(1, r + 1)
            if is_minuscule(fundamental_weight_lift(M, i), M)
        }
        assert got == indices
    dims = {(5, 1): 10, (5, 4): 16, (5, 5): 16, (6, 1): 27, (6, 5): 27, (7, 6): 56}
    for (r, i), dim in dims.items():
        M = make_marked_lattice(r)
        assert len(orbit(fundamental_weight_lift(M, i).vector, M)) == dim
    _ok("criterion 08: minuscule classification and orbit dimensions")


def test_criterion_09_duality_witnesses():
    expected = {4: {1: 4, 2: 3}, 5: {1: 1, 4: 5}, 6: {1: 5}}
    for r, table in expected.items():
        M = make_marked_lattice(r)
        for i, j in table.items():
            witness = dual_partner(i, M)
            assert witness.partner == j
            wi = fundamental_weight_lift(M, i).vector
            wj = fundamental_weight_lift(M, j).vector
            moved = apply_word(witness.word, wj, M)
            assert wi + moved == witness.multiple * M.kappa
    for r in range(3, 9):
        M = make_marked_lattice(r)
        for i in range(1, r + 1):
            j = dual_partner(i, M).partner
            assert dual_partner(j, M).partner == i
    _ok("criterion 09: duality witnesses hold exactly; pairing is an involution")


def test_criterion_10_weyl_property_suite():
    rng = random.Random(88)
    root_pool = {
        r: [x.vector for x in enumerate_roots(make_marked_lattice(r))]
        for r in range(3, 9)
    }
    for _ in range(10_000):
        r = rng.randint(3, 8)
        M = make_marked_lattice(r)
        a = rng.choice(root_pool[r])
        v = random_vector(rng, r)
        w = random_vector(rng, r)
        rv, rw = reflect(a, v), reflect(a, w)
        assert inner(rv, rw) == inner(v, w)
        assert degree(rv, M) == degree(v, M)
    for r in range(3, 9):
        M = make_marked_lattice(r)
        for v in orbit(M.e(r), M):
            assert inner(v, v) == -1 and degree(v, M) == 1
        for x in enumerate_roots(M):
            assert euler_char(x.vector, M) == 0
        C = [list(row) for row in cartan_matrix(M)]
        assert exact_determinant(C) == 9 - r
    for _ in range(200):
        r = rng.randint(3, 8)
        M = make_marked_lattice(r)
        rep, word = dominant_representative(random_vector(rng, r), M)
        assert is_dominant(rep, M)
    for _ in range(100):
        r = rng.randint(3, 8)
        M = make_marked_lattice(r)
        word = random_word(rng, r, 12)
        mat = word_matrix(word, M)
        assert word_matrix(connect_markings(mat, M), M) == mat
    _ok("criterion 10: reflection/orbit/marking property suite (10^4 draws)")


def test_criterion_11_period_points():
    zero = TorsionPoint.zero()
    with pytest.raises(ConstraintError):
        make_period([zero] * 6 + [TorsionPoint(Fraction(1, 2), Fraction(0))])

    rng = random.Random(99)

    def rand_period(r):
        es = [
            TorsionPoint(
                Fraction(rng.randint(0, 5), rng.choice([1, 2, 3, 6])),
                Fraction(rng.randint(0, 5), rng.choice([1, 2, 3, 6])),
            )
            for _ in range(r)
        ]
        total = zero
        for p in es:
            total = total + p
        return make_period([TorsionPoint(total.x / 3, total.y / 3)] + es)

    for _ in range(10_000):
        r = rng.randint(3, 8)
        period = rand_period(r)
        v = random_vector(rng, r)
        w = random_vector(rng, r)
        assert evaluate(period, v + w) == evaluate(period, v) + evaluate(period, w)

    M = make_marked_lattice(6)
    half = TorsionPoint(Fraction(1, 2), Fraction(0))
    period = make_period([zero, half, zero, zero, zero, zero, half])
    canonical = weyl_canonicalize(period, M)
    for _ in range(50):
        word = random_word(rng, 6, 10)
        images = [evaluate(period, apply_word(word, M.h, M))]
        for i in range(1, 7):
            images.append(evaluate(period, apply_word(word, M.e(i), M)))
        moved = make_period(images)
        assert weyl_canonicalize(moved, M) == canonical
    assert canonical <= restrict_to_coroots(period, M)
    _ok("criterion 11: period constraint, additivity, canonical form stability")
