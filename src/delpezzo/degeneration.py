"""Rational double point configurations and their action on curve classes.

A configuration is an independent set of roots with pairwise products in
{0, 1}; its components form an ADE diagram (the gauge type).  The
reflections in the configuration curves break orbits of curve classes
into the pieces that collide in the degeneration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigurationError
from .geometry import CurveClass, lines
from .lattice import LatticeVector, MarkedLattice, _coeffs, _vector, _vector_of, closure, inner
from .roots import DynkinType, Root, dynkin_type
from .weyl import _reflect_in

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
    Each orbit is a breadth-first closure (lattice.closure) on coefficient
    tuples (a, c_1, ..., c_r); weights must have rank r, else DomainError.
    """
    gens = [_coeffs(c.vector, lattice) for c in config.curves]
    gen_set = {g for v in gens for g in (v, tuple(-x for x in v))}
    seen: set[tuple[int, ...]] = set()
    orbits = []
    for v in {_coeffs(w, lattice) for w in weights}:
        if v not in seen:
            orb = closure(v, lambda u: (_reflect_in(u, g) for g in gens))
            seen |= orb
            orbits.append(sorted(orb))
    parts = []
    for orb in sorted(orbits):  # disjoint orbits: ordered by least member
        if len(orb) == 1:
            label = "singleton"
        elif len(orb) == 2 and tuple(y - x for x, y in zip(*orb)) in gen_set:
            label = "extension pair"
        else:
            label = "orbit"
        members = tuple(map(_vector, orb))
        parts.append(SubOrbit(members[0], members, label))
    return parts


def incident_lines(
    config: RdpConfiguration, lattice: MarkedLattice
) -> list[CurveClass]:
    """Line classes moved by the configuration, i.e. meeting some C_j.

    These are exactly the classes of lines through the singular points;
    the complement is the fixed-point set of the sub-Weyl action.
    """
    return [
        c
        for c in lines(lattice)
        if any(inner(c.vector, g.vector) != 0 for g in config.curves)
    ]
