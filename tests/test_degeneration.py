import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from delpezzo import (
    ConfigurationError,
    DomainError,
    LatticeVector,
    apply_word,
    conics,
    degree,
    incident_lines,
    inner,
    lines,
    make_configuration,
    make_marked_lattice,
    orbit_decomposition,
    positive_roots,
)
from delpezzo import degeneration
from helpers import (
    bfs_orbit_decomposition,
    inner_incident_lines,
    random_vector,
    random_word,
    reflect_orbit_decomposition,
    wrap_mismatches,
)


def _line_vectors(M):
    return [c.vector for c in lines(M)]


def test_make_configuration_validates():
    M = make_marked_lattice(6)
    cfg = make_configuration([M.e(1) - M.e(2)], M)
    assert str(cfg.dynkin) == "A1"
    assert len(cfg.curves) == 1
    with pytest.raises(ConfigurationError):
        make_configuration([M.e(1)], M)  # not a root
    with pytest.raises(ConfigurationError):
        make_configuration([M.e(1) - M.e(2), M.e(3) - M.e(2)], M)  # pairing -1
    with pytest.raises(ConfigurationError):
        make_configuration([M.e(1) - M.e(2), M.e(1) - M.e(2)], M)
    with pytest.raises(ConfigurationError):
        make_configuration([LatticeVector(0, (1, -1, 0))], M)  # rank mismatch


def test_error_messages_name_the_offender():
    M = make_marked_lattice(6)
    with pytest.raises(ConfigurationError) as exc:
        make_configuration([M.e(1) - M.e(2), M.e(3) - M.e(2)], M)
    assert "e1-e2" in str(exc.value) and "-e2+e3" in str(exc.value)


def test_a1_degeneration_of_lines():
    M = make_marked_lattice(6)
    cfg = make_configuration([M.e(1) - M.e(2)], M)
    assert str(cfg.dynkin) == "A1"
    parts = orbit_decomposition(cfg, _line_vectors(M), M)
    assert len(parts) == 21
    assert Counter(p.size for p in parts) == Counter({1: 15, 2: 6})
    assert Counter(p.label for p in parts) == Counter(
        {"singleton": 15, "extension pair": 6}
    )
    assert sum(p.size for p in parts) == 27
    # the two classes of a pair really differ by the configuration curve
    for p in parts:
        if p.label == "extension pair":
            a, b = p.members
            assert b - a in (cfg.curves[0].vector, -cfg.curves[0].vector)
    moved = incident_lines(cfg, M)
    assert len(moved) == 12
    moved_set = {c.vector for c in moved}
    pair_members = {v for p in parts if p.size == 2 for v in p.members}
    assert moved_set == pair_members
    # classes meeting the curve positively: one per pair
    plus = {v for v in _line_vectors(M) if inner(v, cfg.curves[0].vector) == 1}
    assert len(plus) == 6
    assert plus < pair_members


def test_a2_degeneration_of_lines():
    M = make_marked_lattice(6)
    cfg = make_configuration([M.e(1) - M.e(2), M.e(2) - M.e(3)], M)
    assert str(cfg.dynkin) == "A2"
    parts = orbit_decomposition(cfg, _line_vectors(M), M)
    assert Counter(p.size for p in parts) == Counter({1: 9, 3: 6})
    labels = Counter(p.label for p in parts)
    assert labels == Counter({"singleton": 9, "orbit": 6})
    assert len(incident_lines(cfg, M)) == 18
    # triple through both curves: e1, e2, e3 collapse together
    triple = next(p for p in parts if M.e(1) in p.members)
    assert set(triple.members) == {M.e(1), M.e(2), M.e(3)}
    assert triple.representative == min(triple.members)


def test_empty_configuration():
    M = make_marked_lattice(6)
    cfg = make_configuration([], M)
    assert str(cfg.dynkin) == "trivial"
    parts = orbit_decomposition(cfg, _line_vectors(M), M)
    assert len(parts) == 27
    assert all(p.label == "singleton" for p in parts)
    assert incident_lines(cfg, M) == []


def test_representatives_are_sorted_and_minimal():
    M = make_marked_lattice(6)
    cfg = make_configuration([M.e(1) - M.e(2)], M)
    parts = orbit_decomposition(cfg, _line_vectors(M), M)
    reps = [p.representative for p in parts]
    assert reps == sorted(reps)
    for p in parts:
        assert p.representative == min(p.members)
        assert p.members == tuple(sorted(p.members))


def _random_configuration(M, rng):
    pool = [x.vector for x in positive_roots(M)]
    rng.shuffle(pool)
    chosen = []
    for v in pool:
        if len(chosen) == M.r:
            break
        if all(inner(v, c) in (0, 1) for c in chosen):
            try:
                make_configuration(chosen + [v], M)
            except ConfigurationError:
                continue
            chosen.append(v)
    return make_configuration(chosen, M)


@pytest.mark.parametrize("r", [4, 5, 6, 7, 8])
def test_random_configurations_partition_the_lines(r):
    M = make_marked_lattice(r)
    vecs = _line_vectors(M)
    rng = random.Random(600 + r)
    for _ in range(30):
        cfg = _random_configuration(M, rng)
        parts = orbit_decomposition(cfg, vecs, M)
        members = [v for p in parts for v in p.members]
        assert len(members) == len(set(members))
        assert set(members) >= set(vecs)
        for p in parts:
            for v in p.members:
                assert inner(v, v) == -1
                assert degree(v, M) == 1
        moved = {c.vector for c in incident_lines(cfg, M)}
        fixed = {v for p in parts if p.size == 1 for v in p.members if v in set(vecs)}
        assert moved == set(vecs) - fixed
        # the degenerate report's count: classes minus singletons
        assert len(moved) == len(members) - sum(p.size == 1 for p in parts)


def test_degeneration_closure_can_add_classes():
    # feeding a single member of a pair still returns the full pair
    M = make_marked_lattice(6)
    cfg = make_configuration([M.e(1) - M.e(2)], M)
    parts = orbit_decomposition(cfg, [M.e(1)], M)
    assert len(parts) == 1
    assert set(parts[0].members) == {M.e(1), M.e(2)}
    assert parts[0].label == "extension pair"


def test_two_member_orbits_are_labelled_by_their_step():
    # a two-member orbit is an extension pair only when its members differ
    # by the curve itself, not by twice it
    M = make_marked_lattice(6)
    e1, e2, e3 = M.e(1), M.e(2), M.e(3)
    cfg = make_configuration([e1 - e2], M)
    parts = orbit_decomposition(cfg, [e1 - e2, e1, e3, 2 * e1], M)
    assert [(p.members, p.label) for p in parts] == [
        ((e2 - e1, e1 - e2), "orbit"),
        ((e3,), "singleton"),
        ((e2, e1), "extension pair"),
        ((2 * e2, 2 * e1), "orbit"),
    ]


def _assert_matches_oracle(cfg, weights, M):
    got = orbit_decomposition(cfg, weights, M)
    want = bfs_orbit_decomposition(cfg, weights, M)
    assert [(p.representative, p.members, p.label) for p in got] == [
        (p.representative, p.members, p.label) for p in want
    ]


def _moved_configuration(M, nodes, word):
    """The simple coroots at `nodes`, moved by a Weyl word."""
    return make_configuration(
        [apply_word(word, M.simple_coroots[i], M) for i in nodes], M
    )


@pytest.mark.parametrize("r", [6, 7])
def test_decomposition_matches_oracle_on_simple_subsets(r):
    M = make_marked_lattice(r)
    rng = random.Random(700 + r)
    weight_sets = [_line_vectors(M), [c.vector for c in conics(M)]]
    for k in range(r + 1):
        for nodes in combinations(range(r), k):
            cfg = _moved_configuration(M, nodes, random_word(rng, r))
            for weights in weight_sets:
                _assert_matches_oracle(cfg, weights, M)


def test_decomposition_matches_oracle_at_r8():
    M = make_marked_lattice(8)
    rng = random.Random(808)
    weight_sets = [_line_vectors(M), [c.vector for c in conics(M)]]
    for nodes in [(0,), (0, 1, 7), (3, 4, 5, 6), tuple(range(8))]:
        cfg = _moved_configuration(M, nodes, random_word(rng, 8))
        for weights in weight_sets:
            _assert_matches_oracle(cfg, weights, M)


@pytest.mark.parametrize("r", [5, 6, 7])
def test_decomposition_matches_oracle_off_kappa_perp(r):
    M = make_marked_lattice(r)
    rng = random.Random(900 + r)
    for _ in range(10):
        # at most 4 curves keep the sub-Weyl orbits of random vectors small
        nodes = rng.sample(range(r), rng.randint(1, 4))
        cfg = _moved_configuration(M, nodes, random_word(rng, r))
        weights = [random_vector(rng, r) for _ in range(8)]
        weights = [v for v in weights if degree(v, M) != 0]
        _assert_matches_oracle(cfg, weights, M)


def _assert_matches_reflect_oracle(cfg, weights, M):
    got = orbit_decomposition(cfg, weights, M)
    want = reflect_orbit_decomposition(cfg, weights, M)
    assert [(p.representative, p.members, p.label) for p in got] == [
        (p.representative, p.members, p.label) for p in want
    ]
    given = {w: w for w in weights}
    for p in got:
        assert p.members[0] is p.representative
        for v in p.members:
            assert v is given.get(v, v)  # a given member is the vector passed
    return got


@pytest.mark.parametrize("r", range(3, 9))
def test_decomposition_matches_reflect_oracle_on_moved_subsets(r):
    # ten configurations per rank, built as the incidence benchmark builds
    # them: a random set of simple coroots moved by a random Weyl word
    M = make_marked_lattice(r)
    rng = random.Random(2100 + r)
    line_vecs = _line_vectors(M)
    conic_vecs = [c.vector for c in conics(M)]
    added = []
    for _ in range(10):
        nodes = rng.sample(range(r), rng.randint(0, r))
        cfg = _moved_configuration(M, nodes, random_word(rng, r))
        for weights in (line_vecs, conic_vecs):
            _assert_matches_reflect_oracle(cfg, weights, M)
        # a sample that the configuration need not preserve: the closure
        # adds the classes it reaches that nobody passed
        sample = rng.sample(line_vecs + conic_vecs, len(line_vecs) // 2)
        parts = _assert_matches_reflect_oracle(cfg, sample, M)
        passed = set(sample)
        added += [v for p in parts for v in p.members if v not in passed]
        assert incident_lines(cfg, M) == inner_incident_lines(cfg, M)
    assert added and wrap_mismatches(added) == []


def test_decomposition_rejects_inexact_or_misranked_weights():
    M = make_marked_lattice(6)
    with pytest.raises(DomainError, match="vector coefficients must be integers"):
        LatticeVector(1.5, (0,) * 6)
    for curves in ([], [M.e(1) - M.e(2)]):
        cfg = make_configuration(curves, M)
        # the first misranked weight in input order is the one named
        weights = [M.e(1), LatticeVector(1, (0,) * 5), LatticeVector(1, (0,) * 4)]
        with pytest.raises(DomainError, match=r"^rank mismatch: 5 vs 6$"):
            orbit_decomposition(cfg, weights, M)


def _span_coefficients(diff, curves):
    """Integers x with sum x_i c_i == diff, or None: the Gram system
    G x = (<diff, c_i>) solved by Fraction elimination, then checked."""
    k = len(curves)
    rows = [
        [Fraction(inner(a, b)) for b in curves] + [Fraction(inner(diff, a))] for a in curves
    ]
    for col in range(k):
        piv = next(i for i in range(col, k) if rows[i][col])  # G is nondegenerate
        rows[col], rows[piv] = rows[piv], rows[col]
        for i in range(k):
            if i != col and rows[i][col]:
                f = rows[i][col] / rows[col][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    x = [rows[i][k] / rows[i][i] for i in range(k)]
    if any(c.denominator != 1 for c in x):
        return None
    total = diff - diff  # the zero vector of diff's rank
    for c, v in zip(x, curves):
        total = total + int(c) * v
    return x if total == diff else None


@pytest.mark.parametrize("r", [4, 6, 8])
def test_members_differ_from_the_representative_by_curve_combinations(r):
    M = make_marked_lattice(r)
    rng = random.Random(2400 + r)
    pools = [_line_vectors(M), [c.vector for c in conics(M)]]
    for _ in range(6):
        nodes = rng.sample(range(r), rng.randint(1, min(r, 5)))
        cfg = _moved_configuration(M, nodes, random_word(rng, r))
        curves = [c.vector for c in cfg.curves]
        pool = rng.choice(pools)
        for p in orbit_decomposition(cfg, rng.sample(pool, len(pool) // 3), M):
            for v in p.members:
                assert _span_coefficients(v - p.representative, curves) is not None
    # the check itself rejects a class outside the span
    curves = [M.e(1) - M.e(2), M.e(2) - M.e(3)]
    assert _span_coefficients(M.e(1) - M.e(3), curves) == [1, 1]
    assert _span_coefficients(M.e(1) - M.e(4), curves) is None
    assert _span_coefficients(M.e(1) + M.e(2), curves) is None


def _pairings(v, curves):
    return tuple(inner(v, c) for c in curves)


def test_same_pairings_off_the_span_give_distinct_orbits_of_one_shape():
    M = make_marked_lattice(6)
    cfg = make_configuration([M.e(1) - M.e(2), M.e(2) - M.e(3)], M)
    curves = [c.vector for c in cfg.curves]
    u = M.h - M.e(4) - M.e(5) - M.e(6)  # orthogonal to both curves
    assert _pairings(u, curves) == (0, 0)
    x, y = M.e(1), M.e(1) + u
    assert _pairings(x, curves) == _pairings(y, curves)
    parts = orbit_decomposition(cfg, [x, y], M)
    assert len(parts) == 2
    a = next(p for p in parts if x in p.members)
    b = next(p for p in parts if y in p.members)
    assert set(a.members) == {M.e(1), M.e(2), M.e(3)}
    assert b.members == tuple(v + u for v in a.members)
    assert not set(a.members) & set(b.members)


@pytest.mark.parametrize("r", [6, 8])
def test_classes_with_equal_pairings_share_their_orbit_shape(r):
    M = make_marked_lattice(r)
    rng = random.Random(2500 + r)
    weights = [c.vector for c in conics(M)]
    for _ in range(4):
        nodes = rng.sample(range(r), rng.randint(2, 4))
        cfg = _moved_configuration(M, nodes, random_word(rng, r))
        curves = [c.vector for c in cfg.curves]
        orbit_of = {
            v: p for p in orbit_decomposition(cfg, weights, M) for v in p.members
        }
        shapes = {}
        for v in weights:
            shape = frozenset(w - v for w in orbit_of[v].members)
            assert shapes.setdefault(_pairings(v, curves), shape) == shape


def test_duplicate_weights():
    M = make_marked_lattice(7)
    cfg = make_configuration([M.e(1) - M.e(2), M.e(2) - M.e(3)], M)
    vecs = _line_vectors(M)
    copies = [LatticeVector(v.coeff_h, v.coeff_e) for v in vecs]
    weights = vecs + copies[::-1] + vecs[:5]
    got = orbit_decomposition(cfg, weights, M)
    want = orbit_decomposition(cfg, vecs, M)
    assert [(p.members, p.label) for p in got] == [(p.members, p.label) for p in want]
    assert sum(p.size for p in got) == len(vecs)
    last = {w: w for w in weights}  # a repeated key keeps its last value
    for p in got:
        for v in p.members:
            assert v is last[v]  # a repeated class comes back as passed last


def test_weights_may_be_a_one_shot_generator():
    M = make_marked_lattice(7)
    cfg = make_configuration([M.e(1) - M.e(2), M.e(3) - M.e(4)], M)
    vecs = _line_vectors(M)
    got = orbit_decomposition(cfg, (v for v in vecs), M)
    want = orbit_decomposition(cfg, vecs, M)
    assert [(p.members, p.label) for p in got] == [(p.members, p.label) for p in want]
    for p, q in zip(got, want):
        assert all(a is b for a, b in zip(p.members, q.members))


def test_one_closure_per_distinct_start_pairing_tuple(monkeypatch):
    M = make_marked_lattice(8)
    cfg = make_configuration(
        [M.e(1) - M.e(2), M.e(3) - M.e(4), M.e(5) - M.e(6), M.e(7) - M.e(8)], M
    )
    assert str(cfg.dynkin) == "A1+A1+A1+A1"
    weights = [c.vector for c in conics(M)]
    calls = []
    real = degeneration.closure

    def counting(start, images, *args):
        calls.append(start)
        return real(start, images, *args)

    monkeypatch.setattr(degeneration, "closure", counting)
    parts = orbit_decomposition(cfg, weights, M)
    # the pairing tuples of the classes that start an orbit, in input order
    orbit_of = {v: p for p in parts for v in p.members}
    covered, starts = set(), set()
    for v in weights:
        if v not in covered:
            covered.update(orbit_of[v].members)
            starts.add(_pairings(v, [c.vector for c in cfg.curves]))
    assert len(calls) == len(starts)
    assert len(calls) < len(parts)
    assert len(covered) == sum(p.size for p in parts) == len(weights)
