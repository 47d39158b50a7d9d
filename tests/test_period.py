import inspect
import random
from fractions import Fraction

import pytest

from delpezzo import (
    DEFAULT_ORBIT_CAP,
    ConstraintError,
    DomainError,
    LatticeVector,
    OrbitCapError,
    PeriodHomomorphism,
    TorsionPoint,
    apply_word,
    basis_e,
    basis_h,
    enumerate_roots,
    evaluate,
    inner,
    make_marked_lattice,
    make_period,
    orbit,
    orbit_of_set,
    restrict_to_coroots,
    weyl_canonicalize,
)
from delpezzo.lattice import _cap_limit
from delpezzo.period import _is_weyl_image, _root_table
from helpers import (
    GENERIC_ASSIGNS,
    INT_DIGIT_LIMIT,
    WEYL_ORDERS,
    bfs_canonicalize,
    closed_form_positive_roots,
    coroot_residue_orbit,
    maps_basis_integrally,
    needs_int_digit_limit,
    period_of_assigns,
    random_vector,
    random_word,
    residue_bfs_canonicalize,
)

Z = TorsionPoint.zero()
HALF = TorsionPoint(Fraction(1, 2), Fraction(0))


def test_torsion_point_normalizes_mod_1():
    p = TorsionPoint(Fraction(3, 2), Fraction(-1, 4))
    assert p.x == Fraction(1, 2)
    assert p.y == Fraction(3, 4)
    assert TorsionPoint(Fraction(2), Fraction(-3)) == Z


@needs_int_digit_limit
def test_a_torsion_point_longer_than_str_prints_is_a_domain_error():
    p = TorsionPoint(Fraction(1, 10**INT_DIGIT_LIMIT + 1), Fraction(0))
    with pytest.raises(DomainError, match="cannot print torsion point"):
        str(p)
    assert p.x.denominator == 10**INT_DIGIT_LIMIT + 1  # the point itself is exact


def test_torsion_point_arithmetic():
    third = TorsionPoint(Fraction(1, 3), Fraction(0))
    assert third + third + third == Z
    assert 3 * third == Z
    assert third * 2 == TorsionPoint(Fraction(2, 3), Fraction(0))
    assert -third == TorsionPoint(Fraction(2, 3), Fraction(0))
    assert (HALF - HALF).is_zero()
    assert str(third) == "1/3,0"
    assert str(Z) == "0,0"
    with pytest.raises(TypeError):
        third * 1.5
    with pytest.raises(TypeError):
        1.5 * third


def test_torsion_point_rejects_floats():
    for x, y in [(0.1, 0), (0, 0.5), (Fraction(1, 2), 1.0)]:
        with pytest.raises(DomainError):
            TorsionPoint(x, y)
    assert TorsionPoint(1, "1/3") == TorsionPoint(Fraction(0), Fraction(1, 3))


def test_evaluate_rejects_non_integer_vectors():
    # Inexact vectors cannot be built, so evaluate never sees one.
    for h, e in ((1.5, (0,) * 6), (1, (Fraction(1),) + (0,) * 5)):
        with pytest.raises(DomainError, match="vector coefficients must be integers"):
            LatticeVector(h, e)


def test_torsion_point_normalizes_mod_one():
    cases = [
        (Fraction(5, 4), Fraction(1, 4)),
        (Fraction(-1, 3), Fraction(2, 3)),
        (Fraction(-7, 2), Fraction(1, 2)),
        (3, Fraction(0)),
        (-2, Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(2, 5), Fraction(2, 5)),
        (True, Fraction(0)),  # a bool is an int: Fraction(True) % 1
    ]
    for given, want in cases:
        p = TorsionPoint(given, given)
        assert (p.x, p.y) == (want, want)
        assert type(p.x) is Fraction and type(p.y) is Fraction


def test_torsion_point_parse():
    assert TorsionPoint.parse("1/2,0") == HALF
    assert TorsionPoint.parse("5/2,-1/4") == TorsionPoint(
        Fraction(1, 2), Fraction(3, 4)
    )
    for bad in ["1/2", "a,b", "1/0,0", "1/2,0,0"]:
        with pytest.raises(DomainError):
            TorsionPoint.parse(bad)


def _period_from_fracs(fracs):
    return make_period([TorsionPoint(Fraction(a), Fraction(b)) for a, b in fracs])


def test_make_period_enforces_kappa():
    # pi(h) = 0 and a single nonzero e-image break 3*pi(h) = sum pi(e_i)
    bad = [(0, 0)] * 6 + [(Fraction(1, 2), 0)]
    with pytest.raises(ConstraintError):
        _period_from_fracs(bad)
    good = [(0, 0)] + [(Fraction(1, 2), 0)] * 2 + [(0, 0)] * 4
    period = _period_from_fracs(good)
    assert period.r == 6
    with pytest.raises(DomainError):
        make_period([Z] * 3)
    with pytest.raises(DomainError):
        make_period([Z] * 10)
    # built directly, a period is checked the same way
    points = tuple(TorsionPoint(Fraction(a), Fraction(b)) for a, b in bad)
    with pytest.raises(ConstraintError, match="kappa image must vanish; got 1/2,0"):
        PeriodHomomorphism(points)
    with pytest.raises(ConstraintError):
        PeriodHomomorphism((HALF,) + (Z,) * 6)
    for count in (3, 10):
        with pytest.raises(DomainError, match=f"got {count}$"):
            PeriodHomomorphism((Z,) * count)
    assert PeriodHomomorphism(period.images) == period


def test_kappa_always_maps_to_zero():
    rng = random.Random(31)
    for _ in range(50):
        r = rng.randint(3, 8)
        period = _random_period(rng, r)
        M = make_marked_lattice(r)
        assert evaluate(period, M.kappa).is_zero()


def _random_period(rng: random.Random, r: int) -> PeriodHomomorphism:
    # pick e-images freely, then solve for pi(h) with a 3-divisible sum
    while True:
        es = [
            TorsionPoint(
                Fraction(rng.randint(0, 5), rng.choice([1, 2, 3, 6])),
                Fraction(rng.randint(0, 5), rng.choice([1, 2, 3, 6])),
            )
            for _ in range(r)
        ]
        total = Z
        for p in es:
            total = total + p
        h = TorsionPoint(total.x / 3, total.y / 3)
        if (3 * h - total).is_zero():
            return make_period([h] + es)


def test_evaluate_examples():
    period = _period_from_fracs([(0, 0)] + [(Fraction(1, 2), 0)] * 2 + [(0, 0)] * 4)
    assert evaluate(period, basis_e(6, 1)) == HALF
    assert evaluate(period, basis_h(6)).is_zero()
    assert evaluate(period, basis_e(6, 1) + basis_e(6, 2)).is_zero()
    with pytest.raises(DomainError):
        evaluate(period, basis_h(5))


def test_evaluate_is_additive():
    rng = random.Random(32)
    for _ in range(200):
        r = rng.randint(3, 8)
        period = _random_period(rng, r)
        v = random_vector(rng, r)
        w = random_vector(rng, r)
        assert evaluate(period, v + w) == evaluate(period, v) + evaluate(period, w)
        assert evaluate(period, 3 * v) == 3 * evaluate(period, v)


def test_restrict_to_coroots():
    # half-points on e1 and e6 leave three coroots hot
    M = make_marked_lattice(6)
    period = _period_from_fracs(
        [(0, 0), (Fraction(1, 2), 0), (0, 0), (0, 0), (0, 0), (0, 0), (Fraction(1, 2), 0)]
    )
    values = restrict_to_coroots(period, M)
    assert values == (HALF, Z, Z, Z, HALF, HALF)
    with pytest.raises(DomainError):
        restrict_to_coroots(period, make_marked_lattice(5))


def test_restriction_can_vanish_on_nonzero_period():
    M = make_marked_lattice(6)
    # pi(h) = 0 with equal 3-torsion on every e_i factors through the degree
    third = TorsionPoint(Fraction(1, 3), Fraction(2, 3))
    period = make_period([Z] + [third] * 6)
    assert all(p.is_zero() for p in restrict_to_coroots(period, M))
    assert not evaluate(period, basis_e(6, 1)).is_zero()


def _precompose(period, word, M):
    images = [evaluate(period, apply_word(word, basis_h(M.r), M))]
    for i in range(1, M.r + 1):
        images.append(evaluate(period, apply_word(word, basis_e(M.r, i), M)))
    return make_period(images)


def test_canonicalize_invariant_under_weyl():
    M = make_marked_lattice(6)
    rng = random.Random(33)
    period = _period_from_fracs(
        [(0, 0), (Fraction(1, 2), 0), (0, 0), (0, 0), (0, 0), (0, 0), (Fraction(1, 2), 0)]
    )
    canonical = weyl_canonicalize(period, M)
    for _ in range(30):
        word = random_word(rng, 6, 10)
        moved = _precompose(period, word, M)
        assert weyl_canonicalize(moved, M) == canonical
    # canonical tuple is minimal in particular against the raw restriction
    assert canonical <= restrict_to_coroots(period, M)


def test_canonicalize_matches_brute_force_orbit():
    M = make_marked_lattice(4)
    period = _period_from_fracs(
        [(0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), 0), (0, 0), (0, 0)]
    )
    start = restrict_to_coroots(period, M)
    gram = [[inner(a, b) for b in M.simple_coroots] for a in M.simple_coroots]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for tup in frontier:
            for j in range(4):
                image = tuple(tup[i] + gram[i][j] * tup[j] for i in range(4))
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    assert weyl_canonicalize(period, M) == min(seen)
    assert 120 % len(seen) == 0  # orbit size divides the group order


def test_canonicalize_zero_period():
    M = make_marked_lattice(6)
    period = make_period([Z] * 7)
    assert weyl_canonicalize(period, M) == (Z,) * 6


def test_canonicalize_cap():
    M = make_marked_lattice(6)
    period = _period_from_fracs(
        [(0, 0), (Fraction(1, 2), 0), (0, 0), (0, 0), (0, 0), (0, 0), (Fraction(1, 2), 0)]
    )
    with pytest.raises(OrbitCapError):
        weyl_canonicalize(period, M, cap=2)


# --- the residue kernel against the Fraction BFS oracle -------------------------


def _assert_exact(got, want):
    assert got == want
    assert all(type(p.x) is Fraction and type(p.y) is Fraction for p in got)


def _tied_period(r: int, family: str, t: TorsionPoint) -> PeriodHomomorphism:
    """pi(h) = 0 and: t on e1 with -t on e2 ("pair"), or t on two or four e_i."""
    es = [Z] * r
    if family == "pair":
        es[0], es[1] = t, -t
    else:
        for i in range(2 if family == "half2" else 4):
            es[i] = t
    return make_period([Z] + es)


HALF_POINTS = [TorsionPoint.parse(t) for t in ("1/2,0", "0,1/2", "1/2,1/2")]
# For a half-point t the pair (t, -t) is the half2 period, so pairs use others.
PAIR_POINTS = [TorsionPoint.parse(t) for t in ("1/3,2/3", "1/4,0", "0,1/5", "1/6,5/6")]


@pytest.mark.parametrize("r", range(3, 9))
def test_canonicalize_matches_oracle_on_tied_periods(r):
    M = make_marked_lattice(r)
    periods = [make_period([Z] * (r + 1))]
    periods += [_tied_period(r, "pair", t) for t in PAIR_POINTS]
    periods += [_tied_period(r, "half2", t) for t in HALF_POINTS]
    if r >= 4:
        periods += [_tied_period(r, "half4", t) for t in HALF_POINTS]
    for period in periods:
        _assert_exact(weyl_canonicalize(period, M), bfs_canonicalize(period, M))


def _generic_period(rng: random.Random, r: int, n: int) -> PeriodHomomorphism:
    """n-torsion images of h, e_1..e_{r-1}, pi(e_r) solved from the kappa
    relation, redrawn until no root is killed (so the orbit is all of W)."""
    roots = closed_form_positive_roots(r)
    while True:
        pts = [
            TorsionPoint(Fraction(rng.randrange(n), n), Fraction(rng.randrange(n), n))
            for _ in range(r)
        ]
        last = 3 * pts[0]
        for p in pts[1:]:
            last = last - p
        period = make_period(pts + [last])
        if not any(evaluate(period, a).is_zero() for a in roots):
            return period


@pytest.mark.parametrize("r,n", [(3, 3), (3, 5), (4, 4), (4, 5), (5, 5)])
def test_canonicalize_matches_oracle_on_generic_periods(r, n):
    M = make_marked_lattice(r)
    period = _generic_period(random.Random(f"generic/{r}/{n}"), r, n)
    _assert_exact(weyl_canonicalize(period, M), bfs_canonicalize(period, M))


@pytest.mark.parametrize("r,draws", [(3, 10), (4, 6), (5, 2), (6, 1)])
def test_canonicalize_matches_oracle_on_random_periods(r, draws):
    # Draws whose orbit exceeds 5,000 are skipped, since the oracle BFS takes
    # seconds on those.
    M = make_marked_lattice(r)
    rng = random.Random(40 + r)
    compared = 0
    while compared < draws:
        period = _random_period(rng, r)
        try:
            residue_bfs_canonicalize(period, M, cap=5_000)
        except OrbitCapError:
            continue
        _assert_exact(weyl_canonicalize(period, M), bfs_canonicalize(period, M))
        compared += 1


def _cap_outcome(fn, period, M, cap):
    try:
        return fn(period, M, cap=cap)
    except OrbitCapError as exc:
        return ("cap", exc.cap, exc.partial_count)


def test_canonicalize_cap_boundary_matches_oracle():
    # The cap bounds the prefixes the search expands: every cap below the
    # least answering one raises with the cap rule's limit, every cap from
    # it up answers, and no orbit has to fit under it.
    M = make_marked_lattice(6)
    period = make_period([Z, HALF, Z, Z, Z, Z, HALF])  # half-points on e1 and e6
    size = 36
    assert len(coroot_residue_orbit(period, M)[1]) == size
    want = bfs_canonicalize(period, M)
    caps = range(-3, size + 3)
    outcomes = [_cap_outcome(weyl_canonicalize, period, M, cap) for cap in caps]
    least = next(cap for cap, out in zip(caps, outcomes) if out[0] != "cap")
    assert least <= size
    for cap, out in zip(caps, outcomes):
        assert out == (("cap", cap, _cap_limit(cap)) if cap < least else want)


def _pinned_period(family: str, r: int) -> PeriodHomomorphism:
    if family == "generic":
        return period_of_assigns(GENERIC_ASSIGNS[r])
    if family == "zero":
        return make_period([Z] * (r + 1))
    return make_period([Z, HALF] + [Z] * (r - 2) + [HALF])  # half-points on e1, e_r


@pytest.mark.parametrize(
    "family,r,least",
    [("generic", 7, 8), ("generic", 8, 9)]
    + [("zero", r, least) for r, least in zip(range(5, 9), (7, 8, 8, 9))]
    + [("half", r, least) for r, least in zip(range(5, 9), (14, 11, 10, 11))],
)
def test_canonicalize_least_answering_cap_is_pinned(family, r, least):
    # The number of prefixes the search expands before it answers: a search
    # that takes the value groups out of order or expands a prefix twice
    # moves it.  The prefixes of one group are all expanded before any of
    # their children, so their order within the group does not.
    M = make_marked_lattice(r)
    period = _pinned_period(family, r)
    for cap in range(1, least):
        with pytest.raises(OrbitCapError):
            weyl_canonicalize(period, M, cap=cap)
    assert weyl_canonicalize(period, M, cap=least) == weyl_canonicalize(period, M)


@pytest.mark.parametrize("r", range(3, 9))
def test_root_table_masks_match_inner(r):
    table = _root_table(r)
    roots = sorted(a.vector for a in enumerate_roots(make_marked_lattice(r)))
    assert table.coeffs == tuple(a.coeffs() for a in roots)
    for i, a in enumerate(roots):
        pairs = [inner(a, b) for b in roots]
        for mask, v in ((table.zero, (0,)), (table.one, (1,)), (table.up, (1, 2))):
            assert mask[i] == sum(1 << j for j, x in enumerate(pairs) if x in v), (r, a, v)


def test_every_capped_search_defaults_to_the_orbit_cap():
    for fn in (orbit, orbit_of_set, weyl_canonicalize):
        assert inspect.signature(fn).parameters["cap"].default == DEFAULT_ORBIT_CAP


def test_canonicalize_generic_r6_is_weyl_invariant():
    M = make_marked_lattice(6)
    rng = random.Random(61)
    period = _generic_period(rng, 6, 5)
    canonical = weyl_canonicalize(period, M)
    for _ in range(3):
        moved = _precompose(period, random_word(rng, 6, 12), M)
        assert weyl_canonicalize(moved, M) == canonical
    assert canonical <= restrict_to_coroots(period, M)


def test_canonicalize_generic_r8_answers():
    # A generic r = 8 period has an orbit of |W(E8)| = 696,729,600 tuples,
    # out of reach of any BFS; the search answers well under a cap of 10,000.
    M = make_marked_lattice(8)
    rng = random.Random(81)
    period = _generic_period(rng, 8, 7)
    canonical = weyl_canonicalize(period, M, cap=10_000)
    for _ in range(3):
        moved = _precompose(period, random_word(rng, 8, 12), M)
        assert weyl_canonicalize(moved, M, cap=10_000) == canonical
    assert canonical <= restrict_to_coroots(period, M)


def test_canonicalize_checks_the_rank():
    with pytest.raises(DomainError, match="period rank 6 != lattice rank 5"):
        weyl_canonicalize(make_period([Z] * 7), make_marked_lattice(5))


# --- the leaf test of the search ------------------------------------------------


def _cartan_tuples(r: int):
    """Every ordered root tuple with the Gram matrix of the simple coroots."""
    M = make_marked_lattice(r)
    roots = [a.vector for a in enumerate_roots(M)]
    pairs = {(a, b): inner(a, b) for a in roots for b in roots}
    gram = [[inner(a, b) for b in M.simple_coroots] for a in M.simple_coroots]
    out = []
    stack = [()]
    while stack:
        prefix = stack.pop()
        k = len(prefix)
        if k == r:
            out.append(prefix)
            continue
        for b in roots:
            if all(pairs[b, c] == gram[k][j] for j, c in enumerate(prefix)):
                stack.append(prefix + (b,))
    return out


def _leaf_test(tup, M):
    table = _root_table(M.r)
    index = {t: i for i, t in enumerate(table.coeffs)}
    return _is_weyl_image(table, [index[b.coeffs()] for b in tup])


@pytest.mark.parametrize("r", [3, 4, 5])
def test_leaf_row_test_matches_the_full_matrix_on_every_cartan_tuple(r):
    M = make_marked_lattice(r)
    tuples = _cartan_tuples(r)
    images = {t for t in tuples if maps_basis_integrally(t, M)}
    assert all(_leaf_test(t, M) == (t in images) for t in tuples)
    # the integral ones are the Weyl images, one per element; the others
    # come from diagram automorphisms
    assert len(images) == WEYL_ORDERS[r] < len(tuples)


@pytest.mark.parametrize("r", [6, 7, 8])
def test_leaf_row_test_matches_the_full_matrix_on_weyl_images(r):
    # w(alpha), -w(alpha) and, at r = 6, w(alpha) through the E6 diagram
    # automorphism: -1 is a Weyl element at r = 7, 8 but not at r = 6
    M = make_marked_lattice(r)
    rng = random.Random(70 + r)
    flip = [4, 3, 2, 1, 0, 5]  # alpha_1..alpha_5 reversed, alpha_6 fixed
    for _ in range(10):
        word = random_word(rng, r, 20)
        w = [apply_word(word, a, M) for a in M.simple_coroots]
        cases = {tuple(w): True, tuple(-b for b in w): r > 6}
        if r == 6:
            cases[tuple(w[i] for i in flip)] = False
        for tup, want in cases.items():
            assert _leaf_test(tup, M) == maps_basis_integrally(tup, M) == want
