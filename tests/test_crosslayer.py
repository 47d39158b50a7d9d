"""Checks that tie `period` to `roots`, `degeneration` and `weyl`.

A period p kills a root system Phi_p, the roots it sends to zero.  Its
simple roots (helpers.simple_killed_roots) are an RDP configuration, the
reflections in them fix p, and the multiset of p's values on all roots is a
Weyl invariant.  Each check runs on the same seeded periods at r = 3..8 of
orders 2..7 and 101, most images drawn from a palette that repeats zero so
that many roots die.
"""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from delpezzo import (
    OrbitCapError,
    TorsionPoint,
    enumerate_roots,
    evaluate,
    expand_in_simple,
    inner,
    lines,
    make_configuration,
    make_marked_lattice,
    make_period,
    orbit_decomposition,
    restrict_to_coroots,
    weyl_canonicalize,
)
from delpezzo.lattice import closure

from helpers import simple_killed_roots

Z = TorsionPoint.zero()
ORDERS = (2, 3, 4, 5, 6, 7, 101)
WEYL_ORDERS = {3: 12, 4: 120, 5: 1_920, 6: 51_840}
CAP = 3_000


def _period(rng: random.Random, r: int, n: int):
    """h and e_1..e_{r-1} drawn from zero (twice) and one to three other
    n-torsion points; pi(e_r) is solved from 3 pi(h) = sum_i pi(e_i)."""
    palette = [Z, Z] + [
        TorsionPoint(Fraction(rng.randrange(n), n), Fraction(rng.randrange(n), n))
        for _ in range(rng.randint(1, 3))
    ]
    pts = [rng.choice(palette) for _ in range(r)]
    last = 3 * pts[0]
    for p in pts[1:]:
        last = last - p
    return make_period(pts + [last])


@pytest.fixture(scope="module")
def periods():
    """120 periods, 20 at each r, with their lattice and simple killed roots."""
    rng = random.Random(2023)
    out = []
    for r in range(3, 9):
        M = make_marked_lattice(r)
        for _ in range(20):
            p = _period(rng, r, rng.choice(ORDERS))
            out.append((p, M, simple_killed_roots(p, M)))
    return out


def test_simple_killed_roots_are_a_configuration(periods):
    kinds = Counter()
    for p, M, simple in periods:
        config = make_configuration(simple, M)
        assert config.dynkin.rank == len(simple)
        assert all(evaluate(p, a).is_zero() for a in simple)
        kinds[config.dynkin] += 1
    assert len(kinds) >= 8 and {x for k in kinds for x, _ in k.components} == set("ADE")


def test_line_sub_orbits_have_one_period_value(periods):
    for p, M, simple in periods:
        config = make_configuration(simple, M)
        parts = orbit_decomposition(config, [c.vector for c in lines(M)], M)
        for part in parts:
            assert len({evaluate(p, v) for v in part.members}) == 1, (p, part)


def _coroot_orbit_size(p, M, cap: int) -> int:
    """Size of the W-orbit of p's coroot-value tuple, closed on residues mod
    the common denominator under v_i -> v_i + <alpha_i, alpha_j> v_j."""
    values = restrict_to_coroots(p, M)
    n = lcm(*(c.denominator for v in values for c in (v.x, v.y)))
    start = tuple(int(c * n) for v in values for c in (v.x, v.y))
    gram = [[inner(a, b) for b in M.simple_coroots] for a in M.simple_coroots]
    r = M.r

    def images(t):
        for j in range(r):
            if t[2 * j] or t[2 * j + 1]:
                yield tuple(
                    (t[2 * i + k] + gram[i][j] * t[2 * j + k]) % n
                    for i in range(r)
                    for k in (0, 1)
                )

    return len(closure(start, images, cap))


def test_killed_weyl_group_divides_the_stabilizer(periods):
    checked = larger = 0
    for p, M, simple in periods:
        if M.r > 6:
            continue
        try:
            size = _coroot_orbit_size(p, M, CAP)
        except OrbitCapError:
            continue
        stabilizer, rem = divmod(WEYL_ORDERS[M.r], size)
        assert rem == 0
        order = make_configuration(simple, M).dynkin.weyl_order
        assert stabilizer % order == 0, (p, size, order)
        checked += 1
        larger += stabilizer > order
    assert checked >= 40 and larger >= 1


def test_root_values_read_off_the_canonical_form(periods):
    canonical = Counter()
    for p, M, _ in periods:
        try:
            form = weyl_canonicalize(p, M, cap=CAP)
        except OrbitCapError:
            continue
        canonical[M.r] += 1
        roots = enumerate_roots(M)
        want = Counter(evaluate(p, a.vector) for a in roots)
        got = Counter()
        for a in roots:
            value = Z
            for m, v in zip(expand_in_simple(a, M), form):
                value = value + m * v
            got[value] += 1
        assert got == want, p
    assert canonical[7] + canonical[8] >= 10 and sum(canonical.values()) >= 60
