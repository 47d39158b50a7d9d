"""Period points: homomorphisms from the lattice to the 2-torus Q/Z x Q/Z.

A period assigns an exact torsion point to each basis vector subject to
the single relation 3*pi(h) = sum_i pi(e_i) (kappa must die).  The Weyl
group acts by precomposition; canonicalization picks the lexicographically
least coroot-value tuple on the orbit.  It searches the ordered simple
systems (w alpha_1, ..., w alpha_r) by a recursion over groups of tied
values, least first, on the pairing masks of a per-rank root table
(_root_table), so no orbit is listed.

The arithmetic runs on one integer kernel of residues.  With N the lcm of
the denominators of a period's images, the torus value (X/N, Y/N) is its
residue pair (X, Y), 0 <= X, Y < N, which orders as TorsionPoint does.
Values on vectors are integer dot products mod N, one per coordinate, and
TorsionPoint appears only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .errors import ConstraintError, DomainError, InternalError, OrbitCapError
from .lattice import (
    LatticeVector,
    MarkedLattice,
    _cap_limit,
    _form,
    _pairing_masks,
    _tuples_of_type,
    anticanonical,
    basis_e,
    dual_basis_lifts,
    make_marked_lattice,
)
from .weyl import DEFAULT_ORBIT_CAP

__all__ = [
    "PeriodHomomorphism",
    "TorsionPoint",
    "evaluate",
    "make_period",
    "restrict_to_coroots",
    "weyl_canonicalize",
]


@dataclass(frozen=True, order=True)
class TorsionPoint:
    """Point of (Q/Z)^2 as a pair of exact rationals in [0, 1)."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        if isinstance(self.x, float) or isinstance(self.y, float):
            raise DomainError(
                f"torsion point coordinates must be exact, got floats in ({self.x!r}, {self.y!r})"
            )
        for name in ("x", "y"):
            c = getattr(self, name)
            if not (isinstance(c, Fraction) and 0 <= c.numerator < c.denominator):
                object.__setattr__(self, name, Fraction(c) % 1)

    @classmethod
    def zero(cls) -> "TorsionPoint":
        return cls(Fraction(0), Fraction(0))

    @classmethod
    def parse(cls, text: str) -> "TorsionPoint":
        parts = text.split(",")
        if len(parts) != 2:
            raise DomainError(f"torsion point {text!r} must be 'a/b,c/d'")
        try:
            return cls(Fraction(parts[0]), Fraction(parts[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad torsion point {text!r}: {exc}") from exc

    def __add__(self, other: "TorsionPoint") -> "TorsionPoint":
        return TorsionPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "TorsionPoint") -> "TorsionPoint":
        return TorsionPoint(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "TorsionPoint":
        return TorsionPoint(-self.x, -self.y)

    def __mul__(self, n: int) -> "TorsionPoint":
        if not isinstance(n, int):
            return NotImplemented
        return TorsionPoint(n * self.x, n * self.y)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __str__(self) -> str:
        try:  # str() refuses more digits than sys.get_int_max_str_digits()
            return f"{self.x},{self.y}"
        except ValueError as exc:
            raise DomainError(f"cannot print torsion point: {exc}") from None


@dataclass(frozen=True)
class PeriodHomomorphism:
    """Images of (h, e_1, ..., e_r), 3 <= r <= 8; kills kappa by
    construction: DomainError on any other count of images and
    ConstraintError when 3*pi(h) != sum pi(e_i)."""

    images: tuple[TorsionPoint, ...]

    def __post_init__(self):
        if not 4 <= len(self.images) <= 9:
            raise DomainError(
                f"need images for h and e_1..e_r with 3 <= r <= 8, got {len(self.images)}"
            )
        kappa = evaluate(self, anticanonical(self.r))
        if not kappa.is_zero():
            raise ConstraintError(
                f"kappa image must vanish; got {kappa} from these assignments"
            )

    @property
    def r(self) -> int:
        return len(self.images) - 1


# --- the residue kernel -------------------------------------------------------


def _residues(points: Sequence[TorsionPoint]) -> tuple[int, list[int], list[int]]:
    """Common denominator N and the numerators over N of every x and y."""
    n = lcm(*(p.x.denominator for p in points), *(p.y.denominator for p in points))
    xs = [p.x.numerator * (n // p.x.denominator) for p in points]
    ys = [p.y.numerator * (n // p.y.denominator) for p in points]
    return n, xs, ys


def _dot(coeffs: Sequence[int], xs: list[int], ys: list[int], n: int) -> tuple[int, int]:
    """Residue pair of the combination sum_i coeffs[i] * (xs[i], ys[i])."""
    return sum(map(mul, coeffs, xs)) % n, sum(map(mul, coeffs, ys)) % n


def _points(values: tuple[int, ...], n: int) -> tuple[TorsionPoint, ...]:
    """TorsionPoints of a flat tuple of residue pairs (x_1, y_1, ..., x_k, y_k)."""
    pairs = zip(values[::2], values[1::2])
    return tuple(TorsionPoint(Fraction(x, n), Fraction(y, n)) for x, y in pairs)


def _images(period: PeriodHomomorphism, lattice: MarkedLattice) -> tuple[TorsionPoint, ...]:
    """The period's basis images, checked to be as many as the lattice's basis."""
    if period.r != lattice.r:
        raise DomainError(f"period rank {period.r} != lattice rank {lattice.r}")
    return period.images


# --- public API ---------------------------------------------------------------


def make_period(points: Sequence[TorsionPoint]) -> PeriodHomomorphism:
    """The period with these basis images; PeriodHomomorphism checks them."""
    return PeriodHomomorphism(tuple(points))


def evaluate(period: PeriodHomomorphism, v: LatticeVector) -> TorsionPoint:
    """Value on any lattice vector, linear in the coefficients."""
    if v.rank != period.r:
        raise DomainError(f"vector rank {v.rank} != period rank {period.r}")
    n, xs, ys = _residues(period.images)
    return _points(_dot(v.coeffs(), xs, ys, n), n)[0]


def restrict_to_coroots(
    period: PeriodHomomorphism, lattice: MarkedLattice
) -> tuple[TorsionPoint, ...]:
    """Values on the simple coroots; zero everywhere iff the period kills kappa-perp."""
    n, xs, ys = _residues(_images(period, lattice))
    return _points(tuple(v for a in lattice.simple_coroots for v in _dot(a.coeffs(), xs, ys, n)), n)


def weyl_canonicalize(
    period: PeriodHomomorphism,
    lattice: MarkedLattice,
    cap: int = DEFAULT_ORBIT_CAP,
) -> tuple[TorsionPoint, ...]:
    """Least coroot-value tuple over the orbit of precompositions by W.

    The values of p o w on the simple coroots are p(w alpha_1), ...,
    p(w alpha_r), so the orbit is the set of value tuples of the ordered
    simple systems (w alpha_i), and the least tuple is found by a search
    over root tuples (beta_1, ..., beta_k) with the Gram matrix of
    (alpha_1, ..., alpha_k) (_least_values); no orbit is listed.  `cap`
    bounds the prefixes the search expands: past the limit of
    lattice._cap_limit it raises OrbitCapError(cap, limit), and a cap that
    is not an int, None too, raises DomainError before the search.
    """
    limit = _cap_limit(cap)
    n, xs, ys = _residues(_images(period, lattice))
    table = _root_table(lattice.r)
    half = len(table.coeffs) // 2
    vx = [sum(map(mul, t, xs)) % n for t in table.coeffs[half:]]
    vy = [sum(map(mul, t, ys)) % n for t in table.coeffs[half:]]
    # the roots are sorted, so root i is minus root len - 1 - i
    vals = [-x % n * n + -y % n for x, y in zip(reversed(vx), reversed(vy))]
    vals += [x * n + y for x, y in zip(vx, vy)]
    killed = sum(1 << i for i, v in enumerate(vals) if not v)
    try:
        least = _least_values(table, vals, [((), killed)], iter(range(limit)))
    except StopIteration:
        raise OrbitCapError(cap, limit) from None
    if least is None:
        raise InternalError("no Weyl image of the simple coroots was reached")
    return _points(tuple(c for v in least for c in divmod(v, n)), n)


# --- the search over simple systems --------------------------------------------


class _RootTable(NamedTuple):
    """The rank-r roots in increasing order, as coefficient tuples, and int
    bitmasks over their indices: bit j of zero[i], one[i] and up[i] is set
    when roots i and j pair 0, 1, and 1 or 2 (root j is then -root i or
    meets it once).  links[k] lists, for each j < k, the masks that give
    <alpha_k, alpha_j>: `one` for Dynkin neighbours, `zero` otherwise.
    row holds the c_i of (9 - r) e_r - kappa = sum_i c_i alpha_i."""

    coeffs: tuple[tuple[int, ...], ...]
    zero: tuple[int, ...]
    one: tuple[int, ...]
    up: tuple[int, ...]
    links: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    row: tuple[int, ...]
    kappa: tuple[int, ...]


@lru_cache(maxsize=None)
def _root_table(r: int) -> _RootTable:
    """Built on first use and kept per rank, keyed on the int r; zero, one
    and up are the masks of lattice._pairing_masks for the pairings (0,),
    (1,) and (1, 2)."""
    ts = tuple(_tuples_of_type(r, -2, 0))
    zero, one, up = _pairing_masks(ts, (0,), (1,), (1, 2))
    lattice = make_marked_lattice(r)
    alphas = [a.coeffs() for a in lattice.simple_coroots]
    links = tuple(
        tuple((j, one if _form(a, alphas[j]) else zero) for j in range(k))
        for k, a in enumerate(alphas)
    )
    kappa = lattice.kappa.coeffs()
    target = ((9 - r) * basis_e(r, r) - lattice.kappa).coeffs()
    row = tuple(_form(target, w.coeffs()) for w in dual_basis_lifts(lattice))
    return _RootTable(ts, zero, one, up, links, row, kappa)


def _is_weyl_image(table: _RootTable, leaf: Sequence[int]) -> bool:
    """Whether alpha_i -> beta_i (root leaf[i]), kappa -> kappa extends to an
    integral isometry, that is, to a Weyl element.  The map is defined on
    Q(E_r) + Z kappa, of index 9 - r in Z^{1,r} with e_r generating the
    quotient, so it is integral exactly when the image of e_r,
    (sum_i c_i beta_i + kappa) / (9 - r), is."""
    d = 9 - len(table.row)
    cols = zip(*(table.coeffs[b] for b in leaf))
    return all((sum(map(mul, table.row, col)) + k) % d == 0 for k, col in zip(table.kappa, cols))


def _least_values(table: _RootTable, vals: list[int], nodes: list, budget: Iterator) -> list | None:
    """The least (vals[b_k+1], ..., vals[b_r]) over the leaves (b_1, ...,
    b_r) below the prefixes (b_1, ..., b_k) of `nodes` that are Weyl images
    of the simple coroots, or None when there is none.

    `nodes` is one value group: prefixes of equal values, each with the
    mask of the killed roots orthogonal to it.  A prefix is extended by the
    roots that pair with it as alpha_k pairs with the alpha_j before it
    (links); the children are grouped by value, and the groups are searched
    least first, each prefix in a group in the order it was found, down to
    the leaves, where _is_weyl_image decides.  The reflections in the
    killed roots orthogonal to a prefix fix p and the prefix, so children
    that they move into each other have equal subtrees; only the child in
    the closed chamber of the lexicographic positive system is kept, the
    one pairing <= 0 with every positive such root, and a closed chamber
    meets each orbit once (Humphreys 1.12).  Each expanded prefix takes one
    next(budget), so an exhausted budget raises StopIteration.
    """
    k = len(nodes[0][0])
    if k == len(table.row):
        return [] if any(_is_weyl_image(table, prefix) for prefix, _ in nodes) else None
    positive = (1 << len(vals)) - (1 << len(vals) // 2)
    children: dict[int, list] = {}
    for prefix, free in nodes:
        next(budget)
        cand = (1 << len(vals)) - 1
        for j, masks in table.links[k]:
            cand &= masks[prefix[j]]
        free_positive = free & positive
        while cand:
            low = cand & -cand
            cand ^= low
            b = low.bit_length() - 1
            if not table.up[b] & free_positive:
                children.setdefault(vals[b], []).append((prefix + (b,), free & table.zero[b]))
    for value, group in sorted(children.items()):
        rest = _least_values(table, vals, group, budget)
        if rest is not None:
            return [value, *rest]
    return None
