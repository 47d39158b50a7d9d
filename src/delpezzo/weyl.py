"""Weyl group action: reflections, words, orbits, canonical representatives.

The group is generated by the reflections in the simple coroots; it is
exactly the isometry group of the marked lattice fixing kappa, which is
what connect_markings exploits to factor an isometry into a word.

The simple reflections run on raw coefficient tuples (a, c_1, ..., c_r).
For i < r the label <v, alpha_i> is c_{i+1} - c_i and s_i swaps c_i and
c_{i+1}; for i = r the label is m = a + c_1 + c_2 + c_3 and s_r adds m
to a and subtracts it from c_1, c_2, c_3.  Words and descents use this
kernel.  Orbits use its quotient by S_r = <s_1, ..., s_{r-1}>, the
permutations of c: a Weyl orbit is the disjoint union of the S_r-orbits
of the (a, sorted c) in it, found by closing them under s_r.  Each
height is then listed in lexicographic order by one depth-first walk
over the distinct prefixes of its sorted c together, which joins each
prefix to the memoized permutations of its last five slots.  Orbits
of sets act on int indices into the sorted union of the members' orbits,
through a table of each index's simple reflections.
"""

from __future__ import annotations

import gc
from functools import lru_cache
from itertools import combinations, groupby, repeat
from operator import add, itemgetter, mul, sub
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, InternalError, OrbitCapError
from .lattice import (
    LatticeVector,
    MarkedLattice,
    _cap_limit,
    _coeffs,
    _form,
    _vector,
    _vectors,
    closure,
    dual_basis_lifts,
    inner,
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
        try:  # int() also refuses more digits than sys.get_int_max_str_digits()
            if token[:1] != "s" or not token[1:].isdecimal():
                raise ValueError
            out.append(int(token[1:]))
        except ValueError:
            raise DomainError(f"bad word token {token!r}; expected like 's1'") from None
    return tuple(out)


def reflect(alpha: Root | LatticeVector, v: LatticeVector) -> LatticeVector:
    """Reflection in a root: v + <v, alpha> alpha.

    The sign is forced by alpha.alpha = -2, so the formula is involutive,
    preserves the form and fixes kappa.
    """
    a = as_root_vector(alpha)
    m = inner(v, a)
    return _vector(tuple(x + m * y for x, y in zip(v.coeffs(), a.coeffs())))


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


def _sorted_images(q: Coeffs) -> Iterator[Coeffs]:
    """The tuples (a, sorted c) that s_r reaches from the S_r-orbit of q.

    q = (a, c) with c sorted.  After a permutation, s_r acts on three
    entries x, y, z of c: with m = a + x + y + z it adds m to a and
    subtracts it from each.  The image depends only on the value triple,
    so each distinct one is taken once, in lexicographic order.  m = 0
    gives q back.
    """
    a, c = q[0], q[1:]
    for x, y, z in dict.fromkeys(combinations(c, 3)):
        m = a + x + y + z
        if m:
            d = list(c)
            for v in (x, y, z):
                d.remove(v)
            yield (a + m, *sorted(d + [x - m, y - m, z - m]))


def _join_tails(prefix: Coeffs, rests: tuple[Coeffs, ...], memo: dict, out: list[Coeffs]) -> None:
    """Append prefix + p to out for every distinct permutation p of every
    multiset in rests (sorted tuples of one length, no two equal), in
    lexicographic order: a depth-first walk over the distinct prefixes
    (after Knuth, TAOCP 4A, 7.2.1.2, Algorithm L).  From five free slots
    down, memo holds the listing of each rests, built once by the same walk
    one slot shorter, and the prefix is joined to it in one pass, so each
    output tuple is built once."""
    if len(rests[0]) > 5:
        for x, left in _children(rests):
            _join_tails(prefix + (x,), left, memo, out)
        return
    tails = memo.get(rests)
    if tails is None:
        tails = memo[rests] = [] if rests[0] else [()]
        for x, left in _children(rests):
            _join_tails((x,), left, memo, tails)
    out += [prefix + p for p in tails]


def _children(rests: tuple[Coeffs, ...]) -> list[tuple[int, tuple[Coeffs, ...]]]:
    """(x, rests') for each distinct value x in rests, in increasing order;
    rests' holds each member of rests that has an x, less one x."""
    kids: dict[int, tuple[Coeffs, ...]] = {}
    for c in rests:
        for i, x in enumerate(c):
            if not i or x != c[i - 1]:
                kids[x] = kids.get(x, ()) + (c[:i] + c[i + 1 :],)
    return sorted(kids.items())


# --- public API ---------------------------------------------------------------


def _check_index(i: int, lattice: MarkedLattice) -> None:
    if not (isinstance(i, int) and 1 <= i <= lattice.r):
        raise DomainError(f"simple reflection index {i} outside 1..{lattice.r}")


def apply_word(word: Iterable[int], v: LatticeVector, lattice: MarkedLattice) -> LatticeVector:
    """Apply simple reflections left to right (first index acts first)."""
    t = _coeffs(v, lattice)
    for i in word:
        _check_index(i, lattice)
        t = _reflect(t, i)
    return _vector(t)


def _capped_orbit_size(v: LatticeVector, lattice: MarkedLattice, cap: int) -> tuple[Coeffs, int]:
    """The dominant tuple of v's orbit and the orbit size |W|/|W_J|, J its
    zero labels; OrbitCapError if the size is over lattice._cap_limit."""
    limit = _cap_limit(cap)
    dom, _ = _descend(_coeffs(v, lattice))
    size = _orbit_size(dom)
    if size > limit:
        raise OrbitCapError(cap, limit)
    return dom, size


def _listing(dom: Coeffs, size: int) -> tuple[list[int], list[Coeffs]]:
    """Heights and tails of the orbit of the dominant tuple dom, in
    lexicographic order, by S_r-quotient: the (a, sorted c) in it are
    closed under s_r from dom, and the c of each height a are listed by
    one _join_tails walk over their distinct permutations, already in
    order, with one memo of five-slot tails for the whole listing.
    InternalError unless the listing has `size` elements."""
    heights, tails, memo = [], [], {}
    for a, qs in groupby(sorted(closure(dom, _sorted_images)), itemgetter(0)):
        _join_tails((), tuple(q[1:] for q in qs), memo, tails)
        heights += repeat(a, len(tails) - len(heights))
    if len(tails) != size:
        raise InternalError(f"orbit listing found {len(tails)} elements, |W|/|W_J| = {size}")
    return heights, tails


def orbit(
    v: LatticeVector, lattice: MarkedLattice, cap: int = DEFAULT_ORBIT_CAP
) -> list[LatticeVector]:
    """Weyl orbit of v, in lexicographic order.

    The orbit size |W|/|W_J|, J the zero labels of the dominant
    representative, is checked against the limit of lattice._cap_limit
    before any work; _listing's prefix walk builds each orbit tuple once,
    and its heights and tuples go to lattice._vectors as they are.  The
    listing makes no reference cycles, so the cyclic collector is paused
    while it runs.
    """
    dom, size = _capped_orbit_size(v, lattice, cap)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _vectors(*_listing(dom, size))
    finally:
        if enabled:
            gc.enable()


def orbit_of_set(
    vectors: Iterable[LatticeVector],
    lattice: MarkedLattice,
    cap: int = DEFAULT_ORBIT_CAP,
) -> list[tuple[LatticeVector, ...]]:
    """Orbit of an unordered tuple of vectors under the diagonal action.

    Elements are kept as sorted tuples, so the action is on k-element
    multisets; used for transitivity checks on line k-tuples.
    Each w.S holds w.x for every member x, so the set orbit meets exactly
    the union of the members' orbits, at most k of them per set (k distinct
    members): a member orbit over k times the limit of lattice._cap_limit
    raises OrbitCapError before any listing.  Otherwise the member orbits
    (_listing) form one sorted pool, so a pool index is a lexicographic
    rank, and moves[x] holds the indices of pool[x]'s simple reflections.
    The sorted index tuple is closed under those moves by lattice.closure,
    which raises OrbitCapError once it needs more sets than the cap admits.
    """
    starts = [_coeffs(u, lattice) for u in vectors]
    limit = _cap_limit(cap)
    k = len(set(starts))
    sizes = {dom: _orbit_size(dom) for dom, _ in map(_descend, starts)}
    if any(size > k * limit for size in sizes.values()):
        raise OrbitCapError(cap, limit)
    pool = sorted((a, *p) for d, n in sizes.items() for a, p in zip(*_listing(d, n)))
    index = {t: x for x, t in enumerate(pool)}
    moves = [[index[_reflect(t, i)] for i in range(1, lattice.r + 1)] for t in pool]

    def images(tup: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        return map(tuple, map(sorted, zip(*map(moves.__getitem__, tup))))

    seen = closure(tuple(sorted(map(index.__getitem__, starts))), images, cap)
    wrapped = list(map(_vector, pool))
    return [tuple(map(wrapped.__getitem__, tup)) for tup in sorted(seen)]


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
    image of the j-th basis vector.  Each letter acts on every column at
    once, as _reflect does on one: s_i (i < r) swaps rows i and i + 1, and
    s_r adds m = R_0 + R_1 + R_2 + R_3 to row 0 and subtracts it from rows
    1..3."""
    word = tuple(word)
    for i in word:
        _check_index(i, lattice)
    n = lattice.r + 1
    rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for i in word:
        if i < lattice.r:
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
        else:
            m = [a + b + c + d for a, b, c, d in zip(*rows[:4])]
            rows[:4] = [tuple(map(op, row, m)) for op, row in zip((add, sub, sub, sub), rows)]
    return tuple(rows)


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
