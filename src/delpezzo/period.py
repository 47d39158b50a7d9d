"""Period points: homomorphisms from the lattice to the 2-torus Q/Z x Q/Z.

A period assigns an exact torsion point to each basis vector subject to
the single relation 3*pi(h) = sum_i pi(e_i) (kappa must die).  The Weyl
group acts by precomposition; canonicalization picks the lexicographically
least coroot-value tuple on the orbit.

The arithmetic runs on one integer kernel of residues.  With N the lcm of
the denominators of a period's images, the torus value (X/N, Y/N) is its
residue pair (X, Y), 0 <= X, Y < N, which orders as TorsionPoint does.
Values on vectors are integer dot products mod N, one per coordinate, and
TorsionPoint appears only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import ConstraintError, DomainError
from .lattice import LatticeVector, MarkedLattice, _cap_limit, anticanonical, closure
from .roots import cartan_matrix
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


def _coroot_residues(
    period: PeriodHomomorphism, lattice: MarkedLattice
) -> tuple[int, tuple[int, ...]]:
    """N and the residue pairs on the simple coroots, flat: (x_1, y_1, ..., x_r, y_r)."""
    if period.r != lattice.r:
        raise DomainError(f"period rank {period.r} != lattice rank {lattice.r}")
    n, xs, ys = _residues(period.images)
    return n, tuple(v for a in lattice.simple_coroots for v in _dot(a.coeffs(), xs, ys, n))


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
    n, values = _coroot_residues(period, lattice)
    return _points(values, n)


def weyl_canonicalize(
    period: PeriodHomomorphism,
    lattice: MarkedLattice,
    cap: int = DEFAULT_ORBIT_CAP,
) -> tuple[TorsionPoint, ...]:
    """Least coroot-value tuple over the orbit of precompositions by W.

    Precomposing with the reflection s_j sends the value tuple v to
    v_i + <alpha_i, alpha_j> v_j: it negates v_j, adds v_j to the Dynkin
    neighbours of j (Cartan entry -1) and leaves the rest alone, so it
    fixes tuples with v_j = 0.  Breadth-first closure (lattice.closure) under
    these maps on flat tuples of residue pairs, x_j and y_j at 2j and 2j + 1,
    capped at `cap` tuples; only the least tuple is turned back into
    TorsionPoints.  A cap that is not an int, None too, raises DomainError
    (lattice._cap_limit) before the search.
    """
    _cap_limit(cap)
    n, start = _coroot_residues(period, lattice)
    moves = [
        (2 * j, [2 * i for i, c in enumerate(row) if c == -1])
        for j, row in enumerate(cartan_matrix(lattice))
    ]

    def images(tup):
        for j, neighbours in moves:
            vx, vy = tup[j], tup[j + 1]
            if not (vx or vy):
                continue
            image = list(tup)
            image[j], image[j + 1] = -vx % n, -vy % n
            for i in neighbours:
                image[i], image[i + 1] = (image[i] + vx) % n, (image[i + 1] + vy) % n
            yield tuple(image)

    return _points(min(closure(start, images, cap)), n)
