import random
from fractions import Fraction

import pytest

from delpezzo import (
    ConstraintError,
    DomainError,
    OrbitCapError,
    PeriodHomomorphism,
    TorsionPoint,
    apply_word,
    basis_e,
    basis_h,
    evaluate,
    inner,
    make_marked_lattice,
    make_period,
    restrict_to_coroots,
    weyl_canonicalize,
)
from helpers import random_vector, random_word

Z = TorsionPoint.zero()
HALF = TorsionPoint(Fraction(1, 2), Fraction(0))


def test_torsion_point_normalizes_mod_1():
    p = TorsionPoint(Fraction(3, 2), Fraction(-1, 4))
    assert p.x == Fraction(1, 2)
    assert p.y == Fraction(3, 4)
    assert TorsionPoint(Fraction(2), Fraction(-3)) == Z


def test_torsion_point_arithmetic():
    third = TorsionPoint(Fraction(1, 3), Fraction(0))
    assert third + third + third == Z
    assert 3 * third == Z
    assert third * 2 == TorsionPoint(Fraction(2, 3), Fraction(0))
    assert -third == TorsionPoint(Fraction(2, 3), Fraction(0))
    assert (HALF - HALF).is_zero()
    assert str(third) == "1/3,0"
    assert str(Z) == "0,0"


def test_torsion_point_rejects_floats():
    for x, y in [(0.1, 0), (0, 0.5), (Fraction(1, 2), 1.0)]:
        with pytest.raises(DomainError):
            TorsionPoint(x, y)
    assert TorsionPoint(1, "1/3") == TorsionPoint(Fraction(0), Fraction(1, 3))


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
