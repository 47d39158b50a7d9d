"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations

__all__ = [
    "ConfigurationError",
    "ConstraintError",
    "DomainError",
    "InternalError",
    "LatticeError",
    "OrbitCapError",
    "VectorParseError",
]


class LatticeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LatticeError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class ConfigurationError(DomainError):
    """A set of curve classes fails the root-configuration constraints."""


class ConstraintError(DomainError):
    """A constructor invariant is violated by the supplied data."""


class VectorParseError(DomainError):
    """Vector text that does not match the `3h-e1-2e8` syntax.

    `position` is the 0-based offset of the first offending character.
    """

    def __init__(self, text: str, position: int, reason: str):
        self.text = text
        self.position = position
        self.reason = reason
        super().__init__(f"cannot parse {text!r} at position {position}: {reason}")


class OrbitCapError(LatticeError, RuntimeError):
    """An orbit search needed more elements than its cap admits.

    `partial_count` is the limit of the one cap rule, lattice._cap_limit:
    `cap` elements, and at least one.  `lattice.closure` raises it when a
    new element turns up at the limit, `weyl.orbit` before any search when
    the predicted orbit size |W|/|W_J| is over it, `weyl.orbit_of_set`
    before any listing when a member orbit is over k times it (k distinct
    members), and `period.weyl_canonicalize` when its search would expand
    one prefix more than the limit.
    """

    def __init__(self, cap: int, partial_count: int):
        self.cap = cap
        self.partial_count = partial_count
        super().__init__(
            f"orbit exceeded cap of {cap} elements ({partial_count} found so far)"
        )


class InternalError(LatticeError, RuntimeError):
    """A structural guarantee failed; indicates a bug, not bad input."""
