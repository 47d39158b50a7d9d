"""Period points: homomorphisms from the lattice to the 2-torus Q/Z x Q/Z.

A period assigns an exact torsion point to each basis vector subject to
the single relation 3*pi(h) = sum_i pi(e_i) (kappa must die).  The Weyl
group acts by precomposition; canonicalization picks the lexicographically
least coroot-value tuple on the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ConstraintError, DomainError, OrbitCapError
from .lattice import LatticeVector, MarkedLattice, inner

DEFAULT_PERIOD_CAP = 1_000_000


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
        object.__setattr__(self, "x", Fraction(self.x) % 1)
        object.__setattr__(self, "y", Fraction(self.y) % 1)

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
        return f"{self.x},{self.y}"


@dataclass(frozen=True)
class PeriodHomomorphism:
    """Images of (h, e_1, ..., e_r); kills kappa by construction."""

    images: tuple[TorsionPoint, ...]

    @property
    def r(self) -> int:
        return len(self.images) - 1


def make_period(points: Sequence[TorsionPoint]) -> PeriodHomomorphism:
    """Build a period from basis images, enforcing the kappa constraint."""
    images = tuple(points)
    if not 4 <= len(images) <= 9:
        raise DomainError(
            f"need images for h and e_1..e_r with 3 <= r <= 8, got {len(images)}"
        )
    residue = 3 * images[0]
    for p in images[1:]:
        residue = residue - p
    if not residue.is_zero():
        raise ConstraintError(
            f"kappa image must vanish; got {residue} from these assignments"
        )
    return PeriodHomomorphism(images)


def evaluate(period: PeriodHomomorphism, v: LatticeVector) -> TorsionPoint:
    """Value on any lattice vector, linear in the coefficients."""
    if v.rank != period.r:
        raise DomainError(f"vector rank {v.rank} != period rank {period.r}")
    acc = v.coeff_h * period.images[0]
    for c, p in zip(v.coeff_e, period.images[1:]):
        acc = acc + c * p
    return acc


def restrict_to_coroots(
    period: PeriodHomomorphism, lattice: MarkedLattice
) -> tuple[TorsionPoint, ...]:
    """Values on the simple coroots; zero everywhere iff the period kills kappa-perp."""
    if period.r != lattice.r:
        raise DomainError(f"period rank {period.r} != lattice rank {lattice.r}")
    return tuple(evaluate(period, a) for a in lattice.simple_coroots)


def weyl_canonicalize(
    period: PeriodHomomorphism,
    lattice: MarkedLattice,
    cap: int = DEFAULT_PERIOD_CAP,
) -> tuple[TorsionPoint, ...]:
    """Least coroot-value tuple over the orbit of precompositions by W.

    Precomposing with the reflection s_j sends the value tuple v to
    v_i + <alpha_i, alpha_j> v_j; breadth-first closure under these maps,
    capped at `cap` tuples.
    """
    start = restrict_to_coroots(period, lattice)
    r = lattice.r
    gram = [
        [inner(a, b) for b in lattice.simple_coroots] for a in lattice.simple_coroots
    ]
    seen = {start}
    frontier = [start]
    best = start
    while frontier:
        nxt = []
        for tup in frontier:
            for j in range(r):
                image = tuple(
                    tup[i] + gram[i][j] * tup[j] for i in range(r)
                )
                if image not in seen:
                    if len(seen) >= cap:
                        raise OrbitCapError(cap, len(seen))
                    seen.add(image)
                    nxt.append(image)
                    if image < best:
                        best = image
        frontier = nxt
    return best
