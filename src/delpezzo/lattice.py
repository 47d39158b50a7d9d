"""Exact integer lattice Z^{1,r} with a marked anticanonical vector.

The basis is h, e_1, ..., e_r with diagonal intersection form
h.h = 1, e_i.e_i = -1, mixed products 0.  A marking singles out
kappa = 3h - e_1 - ... - e_r together with the simple coroots of its
orthogonal complement; every other module computes against this data.
All arithmetic is arbitrary-precision integer/rational, never floating
point, so invariants hold exactly.

Exactness is checked once, in the LatticeVector constructor, which
raises DomainError for any coefficient that is not an int and stores each
as a plain int, bools too; results that are ints by construction are
wrapped unchecked, here alone, by _vector and, with no Python call per
vector, by _vectors.

Vectors of a given type come from one generator, _walk, which yields
them in lexicographic order without holding them: a depth-first walk
over prefixes down to four free coordinates, then the groups of those
four, which reference the tails of the last three.  Groups and tails are
memoized for the call, and the groups are filled before the first
output.  The walk joins per-slot pieces, so it gives the int tuples
(a, c_1, ..., c_r) of _tuples_of_type, which vectors_of_type wraps at
the library boundary, and the text of _texts_of_type, which the CLI
prints with no tuple built.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import isqrt, lcm
from operator import add, mul, neg, sub
from typing import Callable, Iterable, Iterator

from .errors import DomainError, OrbitCapError, VectorParseError

__all__ = [
    "DiscriminantData",
    "LatticeVector",
    "MarkedLattice",
    "anticanonical",
    "basis_e",
    "basis_h",
    "degree",
    "discriminant_data",
    "dual_basis_lifts",
    "euler_char",
    "format_vector",
    "inner",
    "lift_character",
    "lift_weight",
    "make_marked_lattice",
    "parse_vector",
    "vectors_of_type",
    "zero_vector",
]

MIN_RANK = 3
MAX_RANK = 8


@dataclass(frozen=True, order=True)
class LatticeVector:
    """Integer vector a*h + sum_i c_i*e_i.

    Ordering is lexicographic on (a, c_1, ..., c_r), which is the
    deterministic order used by every enumeration in the package.

    The slots are declared here, so the frozen __setattr__ and __delattr__
    that dataclass generates refuse every name on this very class; pickle
    and copy would go through them, so __setstate__ uses the slots' setters.
    """

    __slots__ = ("coeff_h", "coeff_e")
    coeff_h: int
    coeff_e: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.coeff_e, tuple):
            raise DomainError(f"coeff_e must be a tuple, got {type(self.coeff_e).__name__}")
        for c in (self.coeff_h, *self.coeff_e):
            if not isinstance(c, int):
                raise DomainError(f"vector coefficients must be integers, got {c!r}")
        _set_h(self, int(self.coeff_h))  # a bool is stored as the int it counts as
        _set_e(self, tuple(map(int, self.coeff_e)))

    @property
    def rank(self) -> int:
        return len(self.coeff_e)

    def coeffs(self) -> tuple[int, ...]:
        return (self.coeff_h, *self.coeff_e)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        _check_same_rank(self, other)
        return _vector(tuple(map(add, self.coeffs(), other.coeffs())))

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        _check_same_rank(self, other)
        return _vector(tuple(map(sub, self.coeffs(), other.coeffs())))

    def __neg__(self) -> "LatticeVector":
        return _vector(tuple(-c for c in self.coeffs()))

    def __mul__(self, n: int) -> "LatticeVector":
        if not isinstance(n, int):
            return NotImplemented
        return _vector(tuple(n * c for c in self.coeffs()))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.coeff_h == 0 and not any(self.coeff_e)

    def __str__(self) -> str:
        return format_vector(self)

    def __getstate__(self):
        return self.coeff_h, self.coeff_e

    def __setstate__(self, state):
        _set_h(self, state[0])
        _set_e(self, state[1])


_set_h = LatticeVector.coeff_h.__set__
_set_e = LatticeVector.coeff_e.__set__


def _vector(t: tuple[int, ...]) -> LatticeVector:
    """Wrap an int tuple (a, c_1, ..., c_r) without the constructor's check,
    through the slots' own setters, which skip object.__setattr__'s lookup."""
    v = object.__new__(LatticeVector)
    _set_h(v, t[0])
    _set_e(v, t[1:])
    return v


def _vectors(heights: list[int], tails: list[tuple[int, ...]]) -> list[LatticeVector]:
    """_vector of each (heights[i],) + tails[i], with no Python frame per
    vector: one map makes the instances, then one map per slot fills it."""
    out = list(map(object.__new__, repeat(LatticeVector, len(tails))))
    deque(map(_set_h, out, heights), 0)
    deque(map(_set_e, out, tails), 0)
    return out


def _coeffs(v: LatticeVector, lattice: MarkedLattice) -> tuple[int, ...]:
    """The tuple (a, c_1, ..., c_r) of a vector of the lattice's rank."""
    if v.rank != lattice.r:
        raise DomainError(f"rank mismatch: {v.rank} vs {lattice.r}")
    return v.coeffs()


def _vector_of(x) -> LatticeVector:
    """The vector carried by a Root, CurveClass or WeightLift, or x itself."""
    return x if isinstance(x, LatticeVector) else x.vector


def _check_same_rank(a: LatticeVector, b: LatticeVector) -> None:
    if a.rank != b.rank:
        raise DomainError(f"rank mismatch: {a.rank} vs {b.rank}")


def _check_rank(r: int) -> None:
    """Any int r >= 0 is a rank here; make_marked_lattice asks for 3..8."""
    if not isinstance(r, int) or r < 0:
        raise DomainError(f"rank r must be a non-negative integer, got {r!r}")


def zero_vector(r: int) -> LatticeVector:
    _check_rank(r)
    return LatticeVector(0, (0,) * r)


def basis_h(r: int) -> LatticeVector:
    _check_rank(r)
    return LatticeVector(1, (0,) * r)


def basis_e(r: int, i: int) -> LatticeVector:
    """Unit vector e_i, 1-based index."""
    _check_rank(r)
    if not (isinstance(i, int) and 1 <= i <= r):
        raise DomainError(f"basis index e{i} outside 1..{r}")
    return LatticeVector(0, tuple(1 if j == i else 0 for j in range(1, r + 1)))


def anticanonical(r: int) -> LatticeVector:
    """kappa = 3h - e_1 - ... - e_r."""
    _check_rank(r)
    return LatticeVector(3, (-1,) * r)


def _form(t: tuple[int, ...], u: tuple[int, ...]) -> int:
    """The intersection form (1, -1, ..., -1) on coefficient tuples
    (a, c_1, ..., c_r); the only copy of it in the package, apart from
    the rows of _dual_row."""
    return 2 * t[0] * u[0] - sum(map(mul, t, u))


def _dual_row(t: tuple[int, ...]) -> tuple[int, ...]:
    """The row (a, -c_1, ..., -c_r): sum(map(mul, row, u)) == _form(t, u)."""
    return (t[0], *map(neg, t[1:]))


def _pairing_masks(ts: tuple, *values: tuple[int, ...]) -> list[tuple[int, ...]]:
    """For each value set, the int masks of the members of the table `ts`:
    bit j of the i-th mask is set when _form(ts[i], ts[j]) is in the set.

    Coordinate c of the members is packed one byte each into P_c, so with
    d the dual row of member i, byte j of sum_c d_c P_c + 128 sum_j 256^j
    is its pairing with member j plus 128 (coefficients and pairings lie in
    -128..127).  A mask is read off those bytes by one translate to '0'
    and '1' digits and one int(.., 2), with no Python step per pair.
    """
    bias = int.from_bytes(b"\x80" * len(ts), "big")
    cols = [int.from_bytes(bytes(x + 128 for x in col), "big") - bias for col in zip(*ts[::-1])]
    rows = [(sum(map(mul, d, cols)) + bias).to_bytes(len(ts), "big") for d in map(_dual_row, ts)]
    picks = [bytes(49 if b - 128 in v else 48 for b in range(256)) for v in values]
    return [tuple(int(row.translate(pick), 2) for row in rows) for pick in picks]


def inner(a: LatticeVector, b: LatticeVector) -> int:
    """Intersection product for the diagonal form (1, -1, ..., -1)."""
    _check_same_rank(a, b)
    return _form(a.coeffs(), b.coeffs())


def _cap_limit(cap: int) -> int:
    """The cap rule: an int cap admits `cap` elements, and at least one."""
    if not isinstance(cap, int):
        raise DomainError(f"cap must be an integer, got {cap!r}")
    return max(cap, 1)


def closure(start, images: Callable[..., Iterable], cap: int | None = None) -> set:
    """Every element reachable from `start` under `images`, by breadth-first search.

    `images(x)` gives the neighbours of x.  With a cap, OrbitCapError(cap,
    limit) is raised when a new element turns up while the limit of
    _cap_limit is already held, whatever order the search takes.
    """
    limit = None if cap is None else _cap_limit(cap)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in images(x):
                if y not in seen:
                    if limit is not None and len(seen) >= limit:
                        raise OrbitCapError(cap, limit)
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# --- text syntax ------------------------------------------------------------
#
# Vectors print and parse as sign-joined terms like "3h-e1-2e8"; an omitted
# coefficient means 1, an omitted basis term means 0, the zero vector is "0".
# _TERM matches one term: sign, magnitude, then h (group 3) or e<index> (4).
_TERM = re.compile(r"([+-]?)(\d*)(?:(h)|e(\d*))?")


@lru_cache(maxsize=None)
def _symbols(r: int) -> tuple[str, ...]:
    """The basis symbols ("h", "e1", ..., "er")."""
    return ("h", *(f"e{i}" for i in range(1, r + 1)))


def _term(c: int, sym: str) -> str:
    """The term of coefficient c on basis symbol sym: '' for 0, else its
    sign, its magnitude unless that is 1, then the symbol."""
    return f"{'-' if c < 0 else '+'}{'' if abs(c) == 1 else abs(c)}{sym}" if c else ""


def format_vector(v: LatticeVector) -> str:
    try:  # str() refuses more digits than sys.get_int_max_str_digits()
        return "".join(map(_term, v.coeffs(), _symbols(v.rank))).lstrip("+") or "0"
    except ValueError as exc:
        raise DomainError(f"cannot print vector: {exc}") from None


def parse_vector(text: str, r: int) -> LatticeVector:
    """Parse the `3h-e1-2e8` syntax back into a rank-r vector.

    Exact round-trip partner of format_vector.  Grammar: terms
    `[+-]? digits? (h | e digits)`, a sign required after the first term,
    digits being those int() reads.  Raises VectorParseError with the
    offset of the first offending character.
    """
    _check_rank(r)
    if text == "0":
        return zero_vector(r)
    if not text:
        raise VectorParseError(text, 0, "empty vector text")
    coeffs = [0] * (r + 1)
    i = 0
    while i < len(text):
        m = _TERM.match(text, i)
        sign, mag, h, idx = m.groups()
        if i and not sign:
            raise VectorParseError(text, i, "expected '+' or '-' between terms")
        if not h and idx is None:
            raise VectorParseError(text, m.end(), "expected basis symbol 'h' or 'e<i>'")
        try:  # int() refuses a digit run longer than sys.get_int_max_str_digits()
            slot = 0 if h else int(idx or 0)
        except ValueError:
            raise VectorParseError(text, m.start(4), "too many index digits") from None
        if not h and not 1 <= slot <= r:
            reason = f"index e{slot} outside 1..{r}" if idx else "expected index digits after 'e'"
            raise VectorParseError(text, m.start(4), reason)
        try:
            coeffs[slot] += int(sign + (mag or "1"))
        except ValueError:
            raise VectorParseError(text, m.start(2), "too many coefficient digits") from None
        i = m.end()
    return _vector(tuple(coeffs))


# --- marked lattice ---------------------------------------------------------


@dataclass(frozen=True)
class MarkedLattice:
    """Z^{1,r} together with kappa and a simple coroot system for kappa-perp.

    The simple coroots are alpha_i = e_i - e_{i+1} for i < r and
    alpha_r = h - e_1 - e_2 - e_3; they form a Z-basis of kappa-perp.
    Construction checks that r is in 3..8 and that kappa and the coroots
    are these, which the Weyl kernel assumes; make_marked_lattice builds them.
    """

    r: int
    kappa: LatticeVector
    simple_coroots: tuple[LatticeVector, ...]

    def __post_init__(self):
        if (self.kappa, self.simple_coroots) != _standard_marking(self.r):
            raise DomainError(f"kappa and simple coroots must be make_marked_lattice({self.r})'s")

    @property
    def d(self) -> int:
        """Degree kappa.kappa = 9 - r."""
        return 9 - self.r

    @property
    def h(self) -> LatticeVector:
        return basis_h(self.r)

    def e(self, i: int) -> LatticeVector:
        return basis_e(self.r, i)

    def zero(self) -> LatticeVector:
        return zero_vector(self.r)


def _standard_marking(r: int) -> tuple[LatticeVector, tuple[LatticeVector, ...]]:
    """kappa and the simple coroots of the rank-r marking, for r in 3..8."""
    if not isinstance(r, int) or not MIN_RANK <= r <= MAX_RANK:
        raise DomainError(f"rank r must be an integer in {MIN_RANK}..{MAX_RANK}, got {r!r}")
    coroots = [basis_e(r, i) - basis_e(r, i + 1) for i in range(1, r)]
    coroots.append(basis_h(r) - basis_e(r, 1) - basis_e(r, 2) - basis_e(r, 3))
    return anticanonical(r), tuple(coroots)


@lru_cache(maxsize=None)
def make_marked_lattice(r: int) -> MarkedLattice:
    lattice = MarkedLattice(r, *_standard_marking(r))
    assert inner(lattice.kappa, lattice.kappa) == 9 - r
    for alpha in lattice.simple_coroots:
        assert inner(alpha, alpha) == -2 and inner(alpha, lattice.kappa) == 0
    dual_basis_lifts(lattice)  # validates independence via the dual basis
    return lattice


def degree(v: LatticeVector, lattice: MarkedLattice) -> int:
    """Pairing with kappa: 3a + sum_i c_i."""
    return inner(v, lattice.kappa)


@lru_cache(maxsize=None)
def dual_basis_lifts(lattice: MarkedLattice) -> tuple[LatticeVector, ...]:
    """Integral lifts w_i with <w_i, alpha_j> = delta_ij.

    Unique up to adding multiples of kappa; these are the standard
    representatives (h - e_1, 2h - e_1 - e_2, e_{i+1} + ... + e_r, h).
    """
    r = lattice.r
    h, e = basis_h(r), [basis_e(r, i) for i in range(1, r + 1)]
    tail = (sum(e[i:], zero_vector(r)) for i in range(3, r))
    lifts = (h - e[0], 2 * h - e[0] - e[1], *tail, h)
    for i, w in enumerate(lifts, 1):
        for j, alpha in enumerate(lattice.simple_coroots, 1):
            assert inner(w, alpha) == (1 if i == j else 0), (i, j)
    return lifts


# --- discriminant data ------------------------------------------------------


@dataclass(frozen=True)
class DiscriminantData:
    """The degree-one marking class mu and the glue vector mu2.

    mu2 = mu - kappa/(kappa.kappa) is stored as exact rational coordinates
    over (h, e_1, ..., e_r); it generates the d-torsion discriminant group
    of kappa-perp.
    """

    d: int
    mu: LatticeVector
    mu2: tuple[Fraction, ...]

    def order(self) -> int:
        """Additive order of mu2 modulo the integral lattice."""
        return lcm(*(c.denominator for c in self.mu2))


def discriminant_data(lattice: MarkedLattice) -> DiscriminantData:
    r, d = lattice.r, lattice.d
    mu = basis_e(r, r)
    kappa = lattice.kappa
    mu2 = tuple(
        Fraction(m) - Fraction(k, d) for m, k in zip(mu.coeffs(), kappa.coeffs())
    )
    return DiscriminantData(d, mu, mu2)


# --- lifting characters and weights -----------------------------------------


def _dual_combination(psi: tuple[int, ...], lattice: MarkedLattice) -> LatticeVector:
    """sum_i psi_i * w_i over the dual basis lifts."""
    r = lattice.r
    if len(psi) != r:
        raise DomainError(f"psi must have {r} entries, got {len(psi)}")
    if not all(isinstance(x, int) for x in psi):
        raise DomainError(f"psi entries must be integers, got {psi!r}")
    return sum(map(mul, psi, dual_basis_lifts(lattice)), zero_vector(r))


def lift_character(a: int, psi: tuple[int, ...], lattice: MarkedLattice):
    """Find lam with <lam, kappa> = a and <lam, alpha_i> = psi[i-1], or None.

    A lift exists iff a is congruent mod 9-r to the degree of
    sum_i psi_i * w_i; the spread of degrees over all lifts of the coroot
    data is exactly one residue class mod 9-r (kappa has degree 9-r).
    """
    v = _dual_combination(psi, lattice)
    if not isinstance(a, int):
        raise DomainError(f"degree must be an integer, got {a!r}")
    shift, rest = divmod(a - degree(v, lattice), lattice.d)
    return None if rest else v + shift * lattice.kappa


def lift_weight(psi: tuple[int, ...], lattice: MarkedLattice) -> LatticeVector:
    """The lift of a coroot-value tuple, normalized to 0 <= degree < 9-r."""
    v = _dual_combination(psi, lattice)
    return v - degree(v, lattice) // lattice.d * lattice.kappa


def euler_char(v: LatticeVector, lattice: MarkedLattice) -> int:
    """Riemann-Roch integer 1 + (v.v + deg v)/2.

    The sum v.v + deg v is always even because kappa is characteristic.
    """
    return 1 + (inner(v, v) + degree(v, lattice)) // 2


# --- bounded exact enumeration ----------------------------------------------


def vectors_of_type(lattice: MarkedLattice, norm: int, deg: int) -> list[LatticeVector]:
    """All v with <v,v> = norm and <v,kappa> = deg, in lexicographic order.

    The vectors are those of _tuples_of_type, the package's one
    enumeration of a type, wrapped here at the library boundary.
    """
    if not (isinstance(norm, int) and isinstance(deg, int)):
        raise DomainError(f"norm and degree must be integers, got {norm!r} and {deg!r}")
    return list(map(_vector, _tuples_of_type(lattice.r, norm, deg)))


def _texts_of_type(r: int, norm: int, deg: int) -> list[str]:
    """format_vector of every vector of the type, in lexicographic order,
    joined from per-slot term strings with no vector or tuple built."""
    values = _values(r, norm, deg)
    pieces = [{c: _term(c, sym) for c in values} for sym in _symbols(r)]
    if norm > 0:  # a = 0 gives norm -sum c_i^2 <= 0, so a text starts with its h term
        pieces[0] = {c: text.lstrip("+") for c, text in pieces[0].items()}
        return list(_walk(r, norm, deg, pieces))
    return [text.lstrip("+") or "0" for text in _walk(r, norm, deg, pieces)]


def _values(r: int, norm: int, deg: int) -> range:
    """A range that holds every coefficient of every vector of the type."""
    heights = _heights(r, norm, deg)
    top = max(abs(heights.start), abs(heights.stop - 1))
    # |a| <= top and c_i^2 <= a^2 - norm bound every coefficient
    bound = isqrt(top * top + abs(norm))
    return range(-bound, bound + 1)


def _heights(r: int, norm: int, deg: int) -> range:
    """A range of h-coefficients a that holds every vector of the type.

    Writing v = a*h + sum c_i e_i the constraints read sum c_i = deg - 3a
    and sum c_i^2 = a^2 - norm, so Cauchy-Schwarz, (deg - 3a)^2 <=
    r (a^2 - norm), confines a to a finite interval.
    """
    disc = r * (deg * deg - (9 - r) * norm)
    if disc < 0:
        return range(0)
    s = isqrt(disc)
    return range((3 * deg - s) // (9 - r) - 1, (3 * deg + s) // (9 - r) + 2)


def _tuples_of_type(r: int, norm: int, deg: int) -> Iterator[tuple[int, ...]]:
    """Every (a, c_1, ..., c_r) with a^2 - sum c_i^2 = norm and
    3a + sum c_i = deg, in lexicographic order: _walk over (c,) pieces."""
    singletons = {c: (c,) for c in _values(r, norm, deg)}
    return _walk(r, norm, deg, [singletons] * (r + 1))


def _children(k: int, s: int, q: int) -> range:
    """The values c of the next of k free slots, in decreasing order, that
    leave k - 1 slots with sum s - c and square sum q - c^2 inside
    Cauchy-Schwarz: |k c - s| <= sqrt((k - 1)(k q - s^2))."""
    m = isqrt((k - 1) * (k * q - s * s))
    return range((s + m) // k, (s - m - 1) // k, -1)


def _four_slot_states(r: int, level: set) -> set:
    """The distinct (s, q) of the walk's nodes at four free slots, from
    those of its nodes at r."""
    for k in range(r, 4, -1):
        level = {(s - c, q - c * c) for s, q in level for c in _children(k, s, q)}
    return level


def _walk(r: int, norm: int, deg: int, pieces: list[dict]) -> Iterator:
    """pieces[0][a] + pieces[1][c_1] + ... + pieces[r][c_r] for every
    (a, c_1, ..., c_r) of the type, r >= 3, in lexicographic order of the
    tuples.  Each slot maps every value of _values to its piece: (c,)
    pieces join to the tuple and _term pieces to its text.

    A depth-first walk on a stack of (prefix, k, s, q): the k coefficients
    after the prefix must sum to s with squares summing to q.  They exist
    only if s - q is even, which is norm + deg mod 2 at every node (a^2 + 3a
    and c^2 - c are even), so it is tested on the heights alone, and if
    s^2 <= k q (Cauchy-Schwarz), which _children keeps for every child.
    Children are pushed in decreasing c, so they pop in order.

    The stack stops at k = 4; r = 3 starts at k = 3 and joins its tails
    directly.  A four-slot node reads the group of its (s, q): the pieces
    c of the fourth-from-last slot, in increasing c, each followed by
    tails(s - c, q - c^2), the joined pieces of the last three slots; it
    yields prefix + piece + tail from two plain loops.  Tails and groups
    depend only on (s, q), which repeat across prefixes (the 82,560 classes
    of (8, 2, 4) have 166 four-slot states), so each has a memo that lives
    for this call.  A group holds references to pieces and to the shared
    tails, stored flat as (piece, tails, piece, tails, ...), and no joined
    four-slot piece: joined four-slot tails took the peak of the (8, 2, 4)
    walk to ~300 kB, past its memory test's 100 kB.

    Every group is filled before the first output, from the distinct
    (s, q) of each level.  Filled between outputs, the memo's tuples sat in
    the pymalloc arenas of the output; freed to the tuple free lists when
    the walk ended, they kept those arenas, ~5 MB of RSS after the
    (8, 2, 4) list was dropped.

    Within a tail the last pair is solved in closed form: c + d = s and
    c^2 + d^2 = q give (d - c)^2 = 2q - s^2 = t^2 and c = (s - t)/2,
    integral whenever t is.
    """
    memo = {}
    first, second, third = pieces[r - 2], pieces[r - 1], pieces[r]

    def tails(s, q):
        out = memo.get((s, q))
        if out is None:
            out = []
            for c in reversed(_children(3, s, q)):
                s2, q2 = s - c, q - c * c
                t_sq = 2 * q2 - s2 * s2
                t = isqrt(t_sq)
                if t * t == t_sq:
                    d = (s2 - t) // 2
                    head = first[c]
                    out.append(head + second[d] + third[s2 - d])
                    if t:
                        out.append(head + second[s2 - d] + third[d])
            out = memo[s, q] = tuple(out)
        return out

    stack = []
    for a in reversed(_heights(r, norm, deg)):
        s, q = deg - 3 * a, a * a - norm
        if s * s <= r * q and (s - q) % 2 == 0:
            stack.append((pieces[0][a], r, s, q))
    groups = {}  # filled before the first output; see the docstring
    if r > 3:
        fourth = pieces[r - 3]
        for s, q in _four_slot_states(r, {(s, q) for _, _, s, q in stack}):
            group = []
            for c in reversed(_children(4, s, q)):
                tail = tails(s - c, q - c * c)
                if tail:
                    group += (fourth[c], tail)
            groups[s, q] = tuple(group)
    while stack:
        prefix, k, s, q = stack.pop()
        if k > 4:
            piece = pieces[r + 1 - k]
            for c in _children(k, s, q):
                stack.append((prefix + piece[c], k - 1, s - c, q - c * c))
        elif k == 3:
            for t in tails(s, q):
                yield prefix + t
        else:
            it = iter(groups[s, q])
            for piece, tail in zip(it, it):
                head = prefix + piece
                for t in tail:
                    yield head + t
