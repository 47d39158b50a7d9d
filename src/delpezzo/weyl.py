"""Weyl group action: reflections, words, orbits, canonical representatives.

The group is generated by the reflections in the simple coroots; it is
exactly the isometry group of the marked lattice fixing kappa, which is
what connect_markings exploits to factor an isometry into a word.

The simple reflections run on raw coefficient tuples (a, c_1, ..., c_r).
For i < r the label <v, alpha_i> is c_{i+1} - c_i and s_i swaps c_i and
c_{i+1}; for i = r the label is m = a + c_1 + c_2 + c_3 and s_r adds m
to a and subtracts it from c_1, c_2, c_3.  Words, descents and orbits
all use this one kernel.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul
from typing import Iterable, Sequence

from .errors import DomainError, InternalError, OrbitCapError
from .lattice import (
    LatticeVector,
    MarkedLattice,
    _cap_limit,
    _check_same_rank,
    _coeffs,
    _form,
    _vector,
    closure,
    dual_basis_lifts,
    make_marked_lattice,
)
from .roots import Root, as_root_vector, dynkin_type

__all__ = [
    "DEFAULT_ORBIT_CAP",
    "Word",
    "apply_word",
    "connect_markings",
    "dominant_representative",
    "format_word",
    "is_dominant",
    "orbit",
    "orbit_of_set",
    "parse_word",
    "reflect",
    "word_matrix",
]

Word = tuple[int, ...]
Coeffs = tuple[int, ...]

DEFAULT_ORBIT_CAP = 10_000_000


def format_word(word: Word) -> str:
    """Serialize a word as "s1,s3,s2"; the identity is the empty string."""
    return ",".join(f"s{i}" for i in word)


def parse_word(text: str) -> Word:
    if not text:
        return ()
    out = []
    for token in text.split(","):
        if len(token) < 2 or token[0] != "s" or not token[1:].isdecimal():
            raise DomainError(f"bad word token {token!r}; expected like 's1'")
        out.append(int(token[1:]))
    return tuple(out)


def reflect(alpha: Root | LatticeVector, v: LatticeVector) -> LatticeVector:
    """Reflection in a root: v + <v, alpha> alpha.

    The sign is forced by alpha.alpha = -2, so the formula is involutive,
    preserves the form and fixes kappa.
    """
    a = as_root_vector(alpha)
    _check_same_rank(v, a)
    return _vector(_reflect_in(v.coeffs(), a.coeffs()))


# --- the coefficient-tuple kernel ---------------------------------------------


def _labels(t: Coeffs) -> list[int]:
    """Pairings <t, alpha_i> with the simple coroots; entry i-1 is label i."""
    out = [y - x for x, y in zip(t[1:-1], t[2:])]
    out.append(t[0] + t[1] + t[2] + t[3])
    return out


def _reflect(t: Coeffs, i: int) -> Coeffs:
    """Simple reflection s_i, 1-based."""
    if i < len(t) - 1:
        return t[:i] + (t[i + 1], t[i]) + t[i + 2 :]
    m = t[0] + t[1] + t[2] + t[3]
    return (t[0] + m, t[1] - m, t[2] - m, t[3] - m) + t[4:]


def _reflect_in(t: Coeffs, g: Coeffs) -> Coeffs:
    """Reflection t + <t, g> g in a root g."""
    m = _form(t, g)
    return tuple(x + m * y for x, y in zip(t, g)) if m else t


def _descend(t: Coeffs) -> tuple[Coeffs, list[int]]:
    """Reflect at the lowest negative label until none is left."""
    word = []
    while True:
        for i, x in enumerate(_labels(t), 1):
            if x < 0:
                t = _reflect(t, i)
                word.append(i)
                break
        else:
            return t, word


@lru_cache(maxsize=None)
def _parabolic_order(r: int, nodes: frozenset[int]) -> int:
    """|W_J| for the simple reflections J = `nodes` of the E_r diagram."""
    coroots = make_marked_lattice(r).simple_coroots
    return dynkin_type(coroots[i - 1] for i in nodes).weyl_order


def _orbit_size(dom: Coeffs) -> int:
    """|W|/|W_J| for a dominant tuple, J being its zero labels (Humphreys 1.12)."""
    r = len(dom) - 1
    zeros = frozenset(i for i, x in enumerate(_labels(dom), 1) if x == 0)
    return _parabolic_order(r, frozenset(range(1, r + 1))) // _parabolic_order(r, zeros)


def _reverse_search(dom: Coeffs) -> list[Coeffs]:
    """Every element of the orbit of the dominant tuple `dom`, each once.

    _descend gives each non-dominant u the parent s_p u, p its lowest
    negative label.  Reversed (Avis & Fukuda), s_j u is a child of u when
    label j of u is positive and s_j u has no negative label below j; the
    children edges form a spanning tree of the orbit rooted at dom, so no
    seen-set is needed.  Label i of s_j u is label i of u, plus label j
    of u when nodes i and j are adjacent; the only node below j adjacent
    to it is j - 1 for j < r and node 3 for j = r.
    """
    r = len(dom) - 1
    found = [dom]
    frontier = [dom]
    while frontier:
        nxt = []
        for u in frontier:
            lab = _labels(u)
            p = r  # 0-based index of the lowest negative label, r if none
            for k, x in enumerate(lab):
                if x < 0:
                    p = k
                    break
            for k in range(min(p + 2, r - 1)):
                x = lab[k]
                if x > 0 and (k < p or lab[p] + x >= 0):
                    nxt.append(u[: k + 1] + (u[k + 2], u[k + 1]) + u[k + 3 :])
            m = lab[-1]
            if m > 0 and (
                p >= r - 1
                or (p == 2 < r - 1 and lab[2] + m >= 0 and min(lab[3:-1], default=0) >= 0)
            ):
                nxt.append((u[0] + m, u[1] - m, u[2] - m, u[3] - m) + u[4:])
        found += nxt
        frontier = nxt
    return found


# --- public API ---------------------------------------------------------------


def _check_index(i: int, lattice: MarkedLattice) -> None:
    if not (isinstance(i, int) and 1 <= i <= lattice.r):
        raise DomainError(f"simple reflection index {i} outside 1..{lattice.r}")


def apply_word(word: Iterable[int], v: LatticeVector, lattice: MarkedLattice) -> LatticeVector:
    """Apply simple reflections left to right (first index acts first)."""
    t = None
    for i in word:
        _check_index(i, lattice)
        t = _reflect(_coeffs(v, lattice) if t is None else t, i)
    return v if t is None else _vector(t)


def orbit(
    v: LatticeVector, lattice: MarkedLattice, cap: int = DEFAULT_ORBIT_CAP
) -> list[LatticeVector]:
    """Weyl orbit of v, in lexicographic order.

    The orbit size |W|/|W_J|, J the zero labels of the dominant
    representative, is checked against the limit of lattice._cap_limit
    before any work.  Otherwise the orbit is enumerated by reverse search
    from the dominant representative.
    """
    limit = _cap_limit(cap)
    dom, _ = _descend(_coeffs(v, lattice))
    size = _orbit_size(dom)
    if size > limit:
        raise OrbitCapError(cap, limit)
    found = _reverse_search(dom)
    if len(found) != size:
        raise InternalError(f"reverse search found {len(found)} elements, |W|/|W_J| = {size}")
    found.sort()
    return list(map(_vector, found))


def orbit_of_set(
    vectors: Iterable[LatticeVector],
    lattice: MarkedLattice,
    cap: int = DEFAULT_ORBIT_CAP,
) -> list[tuple[LatticeVector, ...]]:
    """Orbit of an unordered tuple of vectors under the diagonal action.

    Elements are kept as sorted tuples, so the action is on k-element
    multisets; used for transitivity checks on line k-tuples.
    Breadth-first closure (lattice.closure) of the sorted tuple of
    coefficient tuples under the simple reflections; raises
    OrbitCapError once it needs more elements than the cap admits.
    """
    start = tuple(_coeffs(u, lattice) for u in sorted(vectors))
    gens = range(1, lattice.r + 1)
    # The sets share few distinct vectors, so each is reflected and wrapped once.
    step = lru_cache(maxsize=None)(_reflect)
    seen = closure(
        start, lambda tup: (tuple(sorted([step(u, i) for u in tup])) for i in gens), cap
    )
    wrap = lru_cache(maxsize=None)(_vector)
    return [tuple(map(wrap, tup)) for tup in sorted(seen)]


def is_dominant(v: LatticeVector, lattice: MarkedLattice) -> bool:
    return min(_labels(_coeffs(v, lattice))) >= 0


def dominant_representative(
    v: LatticeVector, lattice: MarkedLattice
) -> tuple[LatticeVector, Word]:
    """Descend to the unique orbit element pairing >= 0 with every simple coroot.

    Returns (representative, word) with apply_word(word, v) equal to the
    representative; ties broken by always reflecting at the lowest index,
    so the word is deterministic.
    """
    dom, word = _descend(_coeffs(v, lattice))
    return (_vector(dom) if word else v), tuple(word)


# --- isometries as matrices --------------------------------------------------


def word_matrix(word: Iterable[int], lattice: MarkedLattice) -> tuple[tuple[int, ...], ...]:
    """Matrix of a word in the basis (h, e_1, ..., e_r); column j is the
    image of the j-th basis vector."""
    word = tuple(word)
    for i in word:
        _check_index(i, lattice)
    n = lattice.r + 1
    units = (tuple(int(i == j) for i in range(n)) for j in range(n))
    return tuple(zip(*(reduce(_reflect, word, t) for t in units)))


def connect_markings(
    matrix: Sequence[Sequence[int]], lattice: MarkedLattice
) -> Word:
    """Factor a kappa-fixing isometry into a word of simple reflections.

    The matrix is (r+1)x(r+1) over the basis (h, e_1, ..., e_r), columns
    being images of basis vectors.  Every such isometry is a Weyl element,
    so the factorization must exist; its failure raises InternalError.
    """
    r = lattice.r
    if len(matrix) != r + 1 or any(len(row) != r + 1 for row in matrix):
        raise DomainError(f"matrix must be {r + 1}x{r + 1}")
    columns = [LatticeVector(col[0], col[1:]).coeffs() for col in zip(*matrix)]
    for i, t in enumerate(columns):
        for j in range(i, r + 1):
            if _form(t, columns[j]) != (i == j) * (1 if i == 0 else -1):
                raise DomainError("matrix does not preserve the intersection form")

    def image(v: Coeffs) -> Coeffs:
        return tuple(sum(map(mul, row, v)) for row in matrix)

    kappa = lattice.kappa.coeffs()
    if image(kappa) != kappa:
        raise DomainError("matrix does not fix kappa")
    # A strictly dominant vector has trivial stabilizer, so matching its
    # image pins the group element uniquely.
    regular = tuple(map(sum, zip(*(w.coeffs() for w in dual_basis_lifts(lattice)))))
    dom, descent = _descend(image(regular))
    if dom != regular:
        raise InternalError("isometry is not a Weyl element; kappa-fixing guarantee broken")
    word = tuple(reversed(descent))
    if word_matrix(word, lattice) != tuple(map(tuple, matrix)):
        raise InternalError("word reconstruction failed to match the isometry")
    return word
