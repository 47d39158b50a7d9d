"""Checks that tie `period` to `roots`, `degeneration` and `weyl`.

A period p kills a root system Phi_p, the roots it sends to zero.  Its
simple roots (helpers.simple_killed_roots) are an RDP configuration, the
reflections in them fix p, and the multiset of p's values on all roots is a
Weyl invariant.  Each check runs on the same seeded periods at r = 3..8 of
orders 2..7 and 101, most images drawn from a palette that repeats zero so
that many roots die; the canonical-form check also on the two generic
periods of helpers.GENERIC_ASSIGNS.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from delpezzo import (
    OrbitCapError,
    TorsionPoint,
    enumerate_roots,
    evaluate,
    expand_in_simple,
    lines,
    make_configuration,
    make_marked_lattice,
    make_period,
    orbit_decomposition,
    weyl_canonicalize,
)
from helpers import (
    GENERIC_ASSIGNS,
    WEYL_ORDERS,
    coroot_residue_orbit,
    period_of_assigns,
    simple_killed_roots,
)

Z = TorsionPoint.zero()
ORDERS = (2, 3, 4, 5, 6, 7, 101)
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


def test_killed_weyl_group_divides_the_stabilizer(periods):
    checked = larger = 0
    for p, M, simple in periods:
        if M.r > 6:
            continue
        try:
            size = len(coroot_residue_orbit(p, M, CAP)[1])
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
    generic = [(period_of_assigns(a), make_marked_lattice(r)) for r, a in GENERIC_ASSIGNS.items()]
    for p, M in [(p, M) for p, M, _ in periods] + generic:
        form = weyl_canonicalize(p, M)
        roots = enumerate_roots(M)
        want = Counter(evaluate(p, a.vector) for a in roots)
        got = Counter()
        for a in roots:
            value = Z
            for m, v in zip(expand_in_simple(a, M), form):
                value = value + m * v
            got[value] += 1
        assert got == want, p
