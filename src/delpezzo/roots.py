"""Root systems of the orthogonal complement of kappa.

Roots are the vectors of square -2 and degree 0; for r = 3..8 they form
the systems A1+A2, A4, D5, E6, E7, E8.  Everything here is exact and
emitted in lexicographic order, read off the roots root_system walks once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Iterable

from .errors import ConfigurationError, DomainError
from .lattice import (
    LatticeVector,
    MarkedLattice,
    _vector_of,
    closure,
    degree,
    dual_basis_lifts,
    inner,
    vectors_of_type,
)

__all__ = [
    "DynkinType",
    "Root",
    "RootSystemData",
    "cartan_matrix",
    "dynkin_type",
    "enumerate_roots",
    "expand_in_simple",
    "highest_root",
    "positive_roots",
    "root_height",
    "root_system",
]


@dataclass(frozen=True, order=True)
class Root:
    """A lattice vector of square -2 orthogonal to kappa; self-validating."""

    vector: LatticeVector

    def __post_init__(self):
        v = self.vector
        if inner(v, v) != -2 or 3 * v.coeff_h + sum(v.coeff_e) != 0:
            raise DomainError(f"{v} is not a root (need square -2 and degree 0)")


def as_root_vector(x: Root | LatticeVector) -> LatticeVector:
    """Accept either a Root or a bare vector, validating the latter."""
    if isinstance(x, Root):
        return x.vector
    return Root(x).vector


_E_ORDERS = {6: 51_840, 7: 2_903_040, 8: 696_729_600}


@dataclass(frozen=True, order=True)
class DynkinType:
    """Multiset of simply-laced components, e.g. (('A', 1), ('A', 2)).

    Components are kept sorted by (letter, rank); printed as "A1+A2".
    """

    components: tuple[tuple[str, int], ...]

    @property
    def rank(self) -> int:
        return sum(n for _, n in self.components)

    @property
    def weyl_order(self) -> int:
        """|W| of the type: (n+1)! for A_n, 2^(n-1) n! for D_n and the E_n
        table, multiplied over the components (Humphreys 2.11)."""
        order = 1
        for letter, n in self.components:
            if letter == "A":
                order *= factorial(n + 1)
            elif letter == "D":
                order *= 2 ** (n - 1) * factorial(n)
            else:
                order *= _E_ORDERS[n]
        return order

    def __str__(self) -> str:
        if not self.components:
            return "trivial"
        return "+".join(f"{letter}{n}" for letter, n in self.components)


def enumerate_roots(lattice: MarkedLattice) -> list[Root]:
    """Every root in lexicographic order: a fresh list of root_system's."""
    return list(root_system(lattice).all_roots)


def expand_in_simple(alpha: Root | LatticeVector, lattice: MarkedLattice) -> tuple[int, ...]:
    """Coordinates of a degree-0 vector over the simple coroots.

    The coordinates are read off against the dual basis lifts; the simple
    coroots are a Z-basis of kappa-perp, so integral input gives integral
    coordinates.
    """
    v = _vector_of(alpha)
    if degree(v, lattice) != 0:
        raise DomainError(f"{v} has degree {degree(v, lattice)}, not in kappa-perp")
    return tuple(inner(v, w) for w in dual_basis_lifts(lattice))


def positive_roots(lattice: MarkedLattice) -> list[Root]:
    """Roots with non-negative simple-coroot coordinates, sorted: a fresh list."""
    return list(root_system(lattice).positive)


def root_height(alpha: Root | LatticeVector, lattice: MarkedLattice) -> int:
    return sum(expand_in_simple(alpha, lattice))

def highest_root(lattice: MarkedLattice) -> Root:
    """The unique positive root of maximal height (r = 4..8 only): the
    last root in lexicographic order (see root_system)."""
    if lattice.r == 3:
        raise DomainError("rank 3 gives the non-simple system A1+A2; no highest root")
    return root_system(lattice).highest


def cartan_matrix(lattice: MarkedLattice) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the simple coroots, sign-adjusted so the diagonal is 2."""
    return root_system(lattice).cartan


# --- configuration classification -------------------------------------------


def dynkin_type(roots: Iterable[Root | LatticeVector]) -> DynkinType:
    """ADE type of an independent set of roots with pairwise products in {0, 1}.

    A component is named by the determinant of its Cartan matrix 2I - A:
    k + 1 for A_k, 4 for D_k, 9 - k for E_k.  Z^{1,r} has one positive
    direction for every r, so 2I - A, minus the Gram matrix, has at most one
    negative eigenvalue: det > 0 makes it positive definite, hence ADE and
    independent (Humphreys 2.7).  det <= 0 raises the dependence error,
    which at r >= 10 also covers sets such as T_{2,3,7} (det -1).
    """
    try:
        vecs = [as_root_vector(x) for x in roots]
    except DomainError as exc:
        raise ConfigurationError(str(exc)) from exc
    adj: dict[int, set[int]] = {i: set() for i in range(len(vecs))}
    for i, j in combinations(adj, 2):
        p = inner(vecs[i], vecs[j])
        if p not in (0, 1):
            raise ConfigurationError(f"pairing <{vecs[i]}, {vecs[j]}> = {p} is outside {{0, 1}}")
        if p:
            adj[i].add(j)
            adj[j].add(i)
    components = []
    for comp in {frozenset(closure(i, adj.__getitem__)) for i in adj}:
        det = _determinant([[2 if i == j else -(j in adj[i]) for j in comp] for i in comp])
        if det <= 0:
            raise ConfigurationError("roots are linearly dependent")
        components.append(("A" if det == len(comp) + 1 else "D" if det == 4 else "E", len(comp)))
    return DynkinType(tuple(sorted(components)))


def _determinant(m: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix; Bareiss, in place."""
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, len(m)):
            m[i] = [(x * m[k][k] - m[i][k] * y) // prev for x, y in zip(m[i], m[k])]
        prev = m[k][k]
    return sign * m[-1][-1]


# --- aggregate --------------------------------------------------------------


@dataclass(frozen=True)
class RootSystemData:
    """Everything about the root system of one marked lattice."""

    all_roots: tuple[Root, ...]
    positive: tuple[Root, ...]
    highest: Root | None
    cartan: tuple[tuple[int, ...], ...]
    dynkin: DynkinType


@lru_cache(maxsize=None)
def root_system(lattice: MarkedLattice) -> RootSystemData:
    """The roots, walked and validated once per lattice, and what their sorted
    tuple gives.  Every simple coroot is lexicographically positive, so the
    positive roots are its upper half, and the highest root theta (r >= 4)
    is its last: theta - beta is a sum of simple coroots for each positive beta."""
    roots = tuple(Root(v) for v in vectors_of_type(lattice, -2, 0))
    pos = roots[len(roots) // 2 :]
    assert {Root(-p.vector) for p in pos} | set(pos) == set(roots)
    top = roots[-1] if lattice.r >= 4 else None
    assert top is None or min(expand_in_simple(top, lattice)) >= 0
    alphas = lattice.simple_coroots
    return RootSystemData(
        all_roots=roots,
        positive=pos,
        highest=top,
        cartan=tuple(tuple(-inner(a, b) for b in alphas) for a in alphas),
        dynkin=dynkin_type(alphas),
    )
