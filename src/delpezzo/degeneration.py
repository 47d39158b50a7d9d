"""Rational double point configurations and their action on curve classes.

A configuration is an independent set of roots with pairwise products in
{0, 1}; its components form an ADE diagram (the gauge type).  The
reflections in the configuration curves break orbits of curve classes
into the pieces that collide in the degeneration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, mul
from typing import Iterable

from .errors import ConfigurationError
from .geometry import CurveClass, _class_table, _line_table
from .lattice import LatticeVector, MarkedLattice, _coeffs, _dual_row, _vector, _vector_of, closure
from .roots import DynkinType, Root, dynkin_type

__all__ = [
    "RdpConfiguration",
    "SubOrbit",
    "incident_lines",
    "make_configuration",
    "orbit_decomposition",
]


@dataclass(frozen=True)
class RdpConfiguration:
    curves: tuple[Root, ...]
    dynkin: DynkinType


def make_configuration(
    curves: Iterable[Root | LatticeVector], lattice: MarkedLattice
) -> RdpConfiguration:
    """Validate a curve list into a configuration; errors name the offender."""
    vecs = []
    for x in curves:
        v = _vector_of(x)
        if v.rank != lattice.r:
            raise ConfigurationError(f"{v} has rank {v.rank}, lattice has r = {lattice.r}")
        vecs.append(v)
    kind = dynkin_type(vecs)  # validates roots, pairings, independence, shape
    return RdpConfiguration(tuple(Root(v) for v in sorted(vecs)), kind)


@dataclass(frozen=True)
class SubOrbit:
    """One orbit of the sub-Weyl group generated by the configuration."""

    representative: LatticeVector
    members: tuple[LatticeVector, ...]
    label: str

    @property
    def size(self) -> int:
        return len(self.members)


def orbit_decomposition(
    config: RdpConfiguration,
    weights: Iterable[LatticeVector],
    lattice: MarkedLattice,
) -> list[SubOrbit]:
    """Partition the closure of `weights` under the configuration reflections.

    Orbits are listed by lexicographically least representative; a size-2
    orbit whose members differ by a configuration curve is labelled
    "extension pair" (the two classes that collide in the degeneration).
    Weights must have rank r, else DomainError.  Reflecting x in curve c_j
    adds m_j c_j to x and m_j G_j to its pairings m, for m_j = <x, c_j> and
    G_j row j of the curves' Gram matrix.  So the orbit of x is {x + s} for
    shifts s that depend on m alone: the memo `shapes` lists them, sorted
    (so x + s is too), once per m, by a breadth-first closure
    (lattice.closure) on tuples (m, s) from (m, 0).  Each member is popped
    once from `left`, the given tuples in no orbit yet: given members come
    back as passed (a repeated class as passed last), the rest are wrapped.
    A class pairing non-zero with two independent curves has three or more
    images, so a size-2 orbit is {x, x + m_j c_j}: a pair iff max |m| = 1.
    """
    gens = [_coeffs(c.vector, lattice) for c in config.curves]
    duals = [_dual_row(g) for g in gens]
    steps = [(*(sum(map(mul, d, g)) for d in duals), *g) for g in gens]

    def images(x: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [tuple(map(add, x, map(mul, repeat(p), step))) for step, p in zip(steps, x) if p]

    given = {_coeffs(w, lattice): w for w in weights}
    left = dict(given)
    k, zero = len(gens), (0,) * (lattice.r + 1)
    shapes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    orbits = []
    for v in given:
        if v in left:
            m = tuple(sum(map(mul, v, d)) for d in duals)
            if (shape := shapes.get(m)) is None:
                shape = shapes[m] = sorted(x[k:] for x in closure(m + zero, images))
            orb = [tuple(map(add, v, s)) for s in shape]
            orbits.append((orb[0], m, tuple(left.pop(t, None) or _vector(t) for t in orb)))
    parts = []
    for _, m, members in sorted(orbits):  # disjoint orbits: least tuples differ
        if len(members) == 1:
            label = "singleton"
        elif len(members) == 2 and max(map(abs, m)) == 1:
            label = "extension pair"
        else:
            label = "orbit"
        parts.append(SubOrbit(members[0], members, label))
    return parts


def incident_lines(
    config: RdpConfiguration, lattice: MarkedLattice
) -> list[CurveClass]:
    """Line classes moved by the configuration, i.e. meeting some C_j.

    These are exactly the classes of lines through the singular points;
    the complement is the fixed-point set of the sub-Weyl action.  Each
    line of geometry._line_table is paired with each curve's dual row, and
    the lines handed out are the CurveClass objects of its _class_table.
    """
    classes, ts = _class_table(lattice.r, -1, 1), _line_table(lattice.r)[1]
    rows = [_dual_row(_coeffs(c.vector, lattice)) for c in config.curves]
    return [c for c, t in zip(classes, ts) if any(sum(map(mul, d, t)) for d in rows)]
