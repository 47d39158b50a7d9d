"""Curve classes on a marked del Pezzo lattice.

Lines, conics and friends are enumerated exactly from (self-intersection,
degree) data; the r = 6 lattice additionally carries the classical
incidence structures: 45 coplanar triples, 72 sixes, 36 double sixes.
Each double six is read straight off one positive root rho: its two sixes
are the lines L with <L, rho> = +1 and those with <L, rho> = -1.
The line searches read one lazy table per rank, _line_table; lines() and
conics() read lazy per-rank tables of CurveClass objects, _class_table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul
from typing import Iterable, Sequence

from .errors import DomainError, InternalError
from .lattice import (
    LatticeVector,
    MarkedLattice,
    _coeffs,
    _dual_row,
    _form,
    _pairing_masks,
    _tuples_of_type,
    _vector,
    _vector_of,
    degree,
    inner,
    vectors_of_type,
)
from .roots import Root, positive_roots

__all__ = [
    "BlowdownBasis",
    "CurveClass",
    "blowdown_basis",
    "conics",
    "coplanar_triples",
    "disjoint_line_sets",
    "double_sixes",
    "enumerate_classes",
    "lines",
    "root_from_six",
]


@dataclass(frozen=True, order=True)
class CurveClass:
    vector: LatticeVector
    self_int: int
    degree: int

    @classmethod
    def from_vector(cls, v: LatticeVector, lattice: MarkedLattice) -> "CurveClass":
        return cls(v, inner(v, v), degree(v, lattice))


def enumerate_classes(lattice: MarkedLattice, self_int: int, deg: int) -> list[CurveClass]:
    """All smooth rational classes with the given self-intersection and degree.

    Such classes satisfy self_int - deg = -2 (adjunction), and any other
    pair raises DomainError; vectors_of_type lists vectors of any type.
    """
    _check_adjunction(self_int, deg)
    vecs = vectors_of_type(lattice, self_int, deg)  # refuses non-int types
    self_int, deg = int(self_int), int(deg)  # a bool is stored as the int it counts as
    return [CurveClass(v, self_int, deg) for v in vecs]


def _check_adjunction(self_int: int, deg: int) -> None:
    """Raise DomainError unless self_int - deg = -2, the adjunction type of
    a smooth rational curve."""
    if self_int - deg != -2:
        raise DomainError(f"self_int - degree = {self_int - deg} != -2 (adjunction)")


def lines(lattice: MarkedLattice) -> list[CurveClass]:
    """Classes of lines: self-intersection -1, degree 1, read from _class_table."""
    return list(_class_table(lattice.r, -1, 1))


def conics(lattice: MarkedLattice) -> list[CurveClass]:
    """Classes of conics: self-intersection 0, degree 2, read from _class_table."""
    return list(_class_table(lattice.r, 0, 2))


@lru_cache(maxsize=None)
def _class_table(r: int, self_int: int, deg: int) -> tuple[CurveClass, ...]:
    """The rank-r lines (-1, 1) or conics (0, 2) in increasing order, keyed
    on ints like _line_table, whose vectors the lines wrap."""
    vecs = _line_table(r)[0] if deg == 1 else map(_vector, _tuples_of_type(r, self_int, deg))
    return tuple(CurveClass(v, self_int, deg) for v in vecs)


def coplanar_triples(lattice: MarkedLattice) -> list[frozenset[LatticeVector]]:
    """Unordered line triples summing to kappa (r = 6 only).

    The triples are found by completing each pair of lines; the completion
    kappa - L1 - L2 is a line exactly when L1 and L2 meet once.
    """
    if lattice.r != 6:
        raise DomainError("coplanar triples require r = 6")
    return _triples_summing_to(_line_table(6)[0], lattice.kappa)


def _triples_summing_to(
    vecs: tuple[LatticeVector, ...], total: LatticeVector
) -> list[frozenset[LatticeVector]]:
    """Unordered triples of distinct members of `vecs` summing to `total`.

    `vecs` must be sorted: each triple a < b < c is found once, from its two
    least members, so the triples come out ordered by their sorted members.
    """
    vset = set(vecs)
    triples = []
    for i, a in enumerate(vecs):
        for b in vecs[i + 1 :]:
            c = total - a - b
            if c > b and c in vset:
                triples.append(frozenset((a, b, c)))
    return triples


@lru_cache(maxsize=None)
def _line_table(r: int) -> tuple[tuple, tuple, tuple[int, ...]]:
    """The rank-r lines in increasing order, as vectors and as coefficient
    tuples, and masks: bit j of later[i] is set when j > i and lines i and
    j are disjoint, the pairing 0 masks of lattice._pairing_masks with the
    bits <= i cleared.  Keyed on the int r, since hashing a lattice hashes
    its vectors; it holds only tuples, so every list handed out is fresh.
    It is the one source of line vectors, which _class_table wraps.
    """
    ts = tuple(_tuples_of_type(r, -1, 1))
    (disjoint,) = _pairing_masks(ts, (0,))
    later = tuple(m >> i + 1 << i + 1 for i, m in enumerate(disjoint))
    return tuple(map(_vector, ts)), ts, later


def disjoint_line_sets(lattice: MarkedLattice, k: int) -> list[frozenset[LatticeVector]]:
    """All k-element sets of pairwise-disjoint line classes, in sorted order."""
    return _disjoint_sets(lattice.r, k, _line_table(lattice.r)[0])


def _disjoint_sets(r: int, k: int, members: Sequence) -> list[frozenset]:
    """The k-sets of pairwise-disjoint rank-r lines, each line i stood in
    for by members[i]: its vector, or its text for the sixes report.

    The sets are the k-cliques of the disjointness graph on the lines,
    found by backtracking on the int bitmasks of the per-rank line table
    (_line_table; after Bron & Kerbosch, 1973): each partial clique that
    can still be completed is extended by its lowest candidate bit first.
    The lines are listed in increasing order, so the cliques come out as
    index-ascending tuples in lexicographic order, which is the order of
    the sets' sorted member tuples; no sort is needed.  A clique is built
    as `chosen | single[i]` from per-call singletons: a union copies
    stored hashes, so each member is hashed once per call.
    """
    if not (isinstance(k, int) and 1 <= k <= r):
        raise DomainError(f"k must be in 1..{r}, got {k}")
    single = [frozenset((m,)) for m in members]
    out: list[frozenset] = []
    _extend((1 << len(single)) - 1, frozenset(), k, _line_table(r)[2], single, out)
    return out


def _extend(cand: int, chosen: frozenset, need: int, later: tuple, single: list, out: list) -> None:
    """Append to out every clique chosen | single[i] | ... of `need` more
    lines from the candidate bits `cand`; a module function, not a closure
    over itself, so the cliques are freed by reference counting."""
    while cand:
        low = cand & -cand
        cand ^= low
        i = low.bit_length() - 1
        if need == 1:
            out.append(chosen | single[i])
        elif (nxt := cand & later[i]).bit_count() >= need - 1:
            _extend(nxt, chosen | single[i], need - 1, later, single, out)


@dataclass(frozen=True)
class BlowdownBasis:
    """Alternative diagonal basis (gamma, eps_1..eps_r) with kappa = 3*gamma - sum eps_i."""

    gamma: LatticeVector
    epsilons: tuple[LatticeVector, ...]


def blowdown_basis(
    classes: Iterable[CurveClass | LatticeVector], lattice: MarkedLattice
) -> BlowdownBasis:
    """Complete r pairwise-disjoint lines to a blowdown basis.

    gamma = (kappa + sum of the lines)/3; integrality of that vector is
    exactly the condition for the lines to contract to a plane marking.

    Disjointness is one square: two distinct lines have L.L' >= 0, since
    L - L' lies in the negative definite kappa-perp and (L - L')^2 =
    -2 - 2 L.L' < 0, so r distinct lines are pairwise disjoint exactly
    when (sum L)^2 = -r.  Input that fails goes to _raise_first_fault.
    """
    eps = tuple(sorted(map(_vector_of, classes)))
    if len(eps) != lattice.r:
        raise DomainError(f"need exactly r = {lattice.r} classes, got {len(eps)}")
    ts = [_coeffs(a, lattice) for a in eps]
    kappa = lattice.kappa.coeffs()
    s = [sum(col) for col in zip(*ts)]
    if not (
        all(_form(t, t) == -1 and _form(t, kappa) == 1 for t in ts)
        and len(set(ts)) == len(ts)
        and _form(s, s) == -len(ts)
    ):
        _raise_first_fault(eps, ts, kappa)
    total = list(map(add, kappa, s))
    if any(c % 3 != 0 for c in total):
        raise DomainError("gamma = (kappa + sum)/3 is not integral for these lines")
    g = tuple(c // 3 for c in total)
    assert _form(g, g) == 1
    assert not any(_form(g, t) for t in ts)
    gamma = _vector(g)
    return BlowdownBasis(gamma, eps)


def _raise_first_fault(eps: Sequence[LatticeVector], ts: list, kappa: tuple[int, ...]) -> None:
    """Raise the first fault of the sorted classes, in the order the pair
    test meets them: class i not a line, then class i meeting a later one."""
    for i, (a, t) in enumerate(zip(eps, ts)):
        if _form(t, t) != -1 or _form(t, kappa) != 1:
            raise DomainError(f"{a} is not a line class")
        for b, u in zip(eps[i + 1 :], ts[i + 1 :]):
            if _form(t, u):
                raise DomainError(f"lines {a} and {b} are not disjoint")
    raise InternalError("the square of the sum and the pair test disagree")


def root_from_six(
    six: Iterable[CurveClass | LatticeVector], lattice: MarkedLattice
) -> Root:
    """The root 2*gamma - sum eps_i attached to a six of disjoint lines (r = 6)."""
    if lattice.r != 6:
        raise DomainError("sixes require r = 6")
    basis = blowdown_basis(six, lattice)
    v = 2 * basis.gamma
    for a in basis.epsilons:
        v = v - a
    return Root(v)


def double_sixes(
    lattice: MarkedLattice,
) -> list[tuple[frozenset[LatticeVector], frozenset[LatticeVector]]]:
    """The 36 double sixes, one per positive root rho (r = 6).

    The sixes of rho are the lines L with <L, rho> = +1 (root_from_six gives
    rho) and with <L, rho> = -1 (it gives -rho); the lesser one comes first.
    They interleave in the classical pattern: under the right indexing L_i
    meets L_j' exactly when i != j.
    """
    if lattice.r != 6:
        raise DomainError("double sixes require r = 6")
    vecs, ts, _ = _line_table(6)
    pairs = []
    for rho in positive_roots(lattice):
        d = _dual_row(rho.vector.coeffs())
        pairing = [sum(map(mul, d, t)) for t in ts]
        plus = [i for i, x in enumerate(pairing) if x == 1]
        minus = [i for i, x in enumerate(pairing) if x == -1]
        if len(plus) != 6 or len(minus) != 6:
            raise InternalError(f"root {rho.vector} splits the lines {len(plus)}/{len(minus)}")
        _check_double_six([ts[i] for i in plus], [ts[j] for j in minus])
        pairs.append(sorted(([vecs[i] for i in plus], [vecs[j] for j in minus])))
    return [(frozenset(first), frozenset(second)) for first, second in sorted(pairs)]


def _check_double_six(first: list[tuple[int, ...]], second: list[tuple[int, ...]]) -> None:
    """Each line of `first` meets five of `second` once, and misses a distinct sixth."""
    partners = set()
    for d in map(_dual_row, first):
        meets = [sum(map(mul, d, b)) for b in second]
        if meets.count(0) != 1 or meets.count(1) != 5:
            raise InternalError("six pair does not interleave as a double six")
        partners.add(meets.index(0))
    if len(partners) != 6:
        raise InternalError("double six partner matching is not a bijection")
