"""Representation-theoretic weight data read off the lattice.

Weights of the complement torus live in the lattice modulo kappa; the
fundamental ones lift to explicit curve classes (conic, quartic, line
chains, twisted cubic).  Minuscule/adjoint/dual classifications are all
computed from exact pairings, never from tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InternalError
from .geometry import _triples_summing_to
from .lattice import (
    LatticeVector,
    MarkedLattice,
    _vector_of,
    degree,
    dual_basis_lifts,
    inner,
    zero_vector,
)
from .roots import enumerate_roots, highest_root
from .weyl import Word, apply_word, dominant_representative, is_dominant, orbit

__all__ = [
    "DualPartner",
    "WeightLift",
    "WeightSystem",
    "adjoint_weight_system",
    "central_character",
    "cubic_form_support",
    "dual_partner",
    "fundamental_weight_lift",
    "is_minuscule",
    "weight_evaluations",
]


@dataclass(frozen=True, order=True)
class WeightLift:
    """Integral lift of a weight; `index` is set for fundamental ones."""

    vector: LatticeVector
    index: int | None = None


def fundamental_weight_lift(lattice: MarkedLattice, i: int) -> WeightLift:
    """Lift of the i-th fundamental weight: dual basis to the simple coroots.

    Closed forms: w1 = h-e1 (conic), w2 = 2h-e1-e2 (quartic),
    w_i = e_{i+1}+...+e_r for 3 <= i < r (disjoint lines), w_r = h
    (twisted cubic).
    """
    if not (isinstance(i, int) and 1 <= i <= lattice.r):
        raise DomainError(f"fundamental index {i} outside 1..{lattice.r}")
    return WeightLift(dual_basis_lifts(lattice)[i - 1], i)


def weight_evaluations(
    w: WeightLift | LatticeVector, lattice: MarkedLattice
) -> tuple[int, ...]:
    """Pairings with the simple coroots; invariant under kappa shifts."""
    v = _vector_of(w)
    return tuple(inner(v, a) for a in lattice.simple_coroots)


def is_minuscule(w: WeightLift | LatticeVector, lattice: MarkedLattice) -> bool:
    """True when every root pairs with the weight in {-1, 0, 1}.

    Requires a dominant input; equivalent to the Weyl group acting
    transitively on the weights of the corresponding representation.
    """
    v = _vector_of(w)
    if not is_dominant(v, lattice):
        raise DomainError(f"{v} is not dominant")
    return all(inner(v, root.vector) in (-1, 0, 1) for root in enumerate_roots(lattice))


@dataclass(frozen=True)
class WeightSystem:
    """Multiset of weights mod kappa, stored as normalized lifts."""

    entries: tuple[tuple[LatticeVector, int], ...]
    dimension: int
    highest: LatticeVector


def adjoint_weight_system(lattice: MarkedLattice) -> WeightSystem:
    """Nonzero weights = the roots, zero weight with multiplicity r.

    The highest weight is the class of kappa - theta, theta the highest
    root; its lift of degree 0 is -theta.
    """
    if lattice.r < 4:
        raise DomainError("adjoint weight system requires 4 <= r <= 8")
    roots = enumerate_roots(lattice)
    entries = [(root.vector, 1) for root in roots]
    entries.insert(len(roots) // 2, (zero_vector(lattice.r), lattice.r))
    return WeightSystem(tuple(entries), len(roots) + lattice.r, -highest_root(lattice).vector)


@dataclass(frozen=True)
class DualPartner:
    """Witness that w_i + w(w_partner) = multiple * kappa."""

    index: int
    partner: int
    word: Word
    multiple: int


def dual_partner(i: int, lattice: MarkedLattice) -> DualPartner:
    """Find the fundamental weight dual to the i-th, with an exact witness.

    Descending -w_i to its dominant representative lands on a fundamental
    lift shifted by a kappa multiple; reversing the descent word gives the
    Weyl element of the witness equation.
    """
    wi = fundamental_weight_lift(lattice, i).vector
    dom, descent = dominant_representative(-wi, lattice)
    evals = weight_evaluations(dom, lattice)
    if sorted(evals) != [0] * (lattice.r - 1) + [1]:
        raise InternalError(f"-w{i} descends to non-fundamental weight {dom}")
    j = evals.index(1) + 1
    wj = fundamental_weight_lift(lattice, j).vector
    shift = dom - wj
    if shift.coeff_h % 3 != 0 or shift != (shift.coeff_h // 3) * lattice.kappa:
        raise InternalError(f"descent of -w{i} is not a kappa shift of w{j}")
    word = tuple(reversed(descent))
    n = -(shift.coeff_h // 3)
    assert wi + apply_word(word, wj, lattice) == n * lattice.kappa
    return DualPartner(i, j, word, n)


def cubic_form_support(lattice: MarkedLattice) -> list[frozenset[LatticeVector]]:
    """Weight triples of the 27-dimensional system summing to kappa (r = 6).

    Computed from the Weyl orbit of the line weight, independently of the
    curve-class search route.
    """
    if lattice.r != 6:
        raise DomainError("cubic form support requires r = 6")
    return _triples_summing_to(orbit(dual_basis_lifts(lattice)[4], lattice), lattice.kappa)


def central_character(
    w: WeightLift | LatticeVector, lattice: MarkedLattice
) -> int:
    """Degree of the weight mod 9-r: the character of the diagonal center."""
    return degree(_vector_of(w), lattice) % lattice.d
