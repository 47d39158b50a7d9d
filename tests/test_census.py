"""Every 2-torsion period, one orbit at a time.

The W-orbits of 2-torsion coroot-value tuples are the 2-torsion points of
(Lambda (x) E)/W, the moduli of the semistable E_r-bundles that the source
paper builds its bundles from.  helpers.torsion_census partitions all 4^r
tuples by breadth-first closure, so it also finds the rare tied and
large-stabilizer orbits that random draws miss; weyl_canonicalize must give
each orbit's least member from any member.
"""

import random
from fractions import Fraction

import pytest

from delpezzo import TorsionPoint, make_marked_lattice, restrict_to_coroots, weyl_canonicalize
from helpers import WEYL_ORDERS, period_with_coroot_values, torsion_census

# Orbit counts at N = 2, pinned from the closure; ROADMAP item 3 records
# Burnside's lemma agreeing with it at r = 3..6, and 24 and 15 at r = 7, 8.
ORBIT_COUNTS = {3: 20, 4: 14, 5: 23, 6: 15, 7: 24, 8: 15}


def _points(tup):
    return tuple(TorsionPoint(Fraction(x, 2), Fraction(y, 2)) for x, y in zip(tup[::2], tup[1::2]))


@pytest.mark.parametrize("r", range(3, 9))
def test_canonical_form_is_the_orbit_minimum_on_every_two_torsion_orbit(r):
    M = make_marked_lattice(r)
    orbits = torsion_census(M, 2)
    assert len(orbits) == ORBIT_COUNTS[r]
    assert sum(map(len, orbits)) == 4**r
    rng = random.Random(f"census/{r}")
    for orbit in orbits:
        assert WEYL_ORDERS[r] % len(orbit) == 0
        least = _points(orbit[0])
        for member in (orbit[0], orbit[-1], rng.choice(orbit)):
            period = period_with_coroot_values(_points(member), r)
            assert restrict_to_coroots(period, M) == _points(member)
            assert weyl_canonicalize(period, M) == least
