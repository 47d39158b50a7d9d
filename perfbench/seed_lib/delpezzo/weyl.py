"""Weyl group action: reflections, words, orbits, canonical representatives.

The group is generated by the reflections in the simple coroots; it is
exactly the isometry group of the marked lattice fixing kappa, which is
what connect_markings exploits to factor an isometry into a word.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DomainError, InternalError, OrbitCapError
from .lattice import (
    LatticeVector,
    MarkedLattice,
    basis_e,
    basis_h,
    dual_basis_lifts,
    inner,
    zero_vector,
)
from .roots import Root, as_root_vector

Word = tuple[int, ...]

DEFAULT_ORBIT_CAP = 10_000_000


def format_word(word: Word) -> str:
    """Serialize a word as "s1,s3,s2"; the identity is the empty string."""
    return ",".join(f"s{i}" for i in word)


def parse_word(text: str) -> Word:
    if not text:
        return ()
    out = []
    for token in text.split(","):
        if len(token) < 2 or token[0] != "s" or not token[1:].isdigit():
            raise DomainError(f"bad word token {token!r}; expected like 's1'")
        out.append(int(token[1:]))
    return tuple(out)


def reflect(alpha: Root | LatticeVector, v: LatticeVector) -> LatticeVector:
    """Reflection in a root: v + <v, alpha> alpha.

    The sign is forced by alpha.alpha = -2, so the formula is involutive,
    preserves the form and fixes kappa.
    """
    a = as_root_vector(alpha)
    return v + inner(v, a) * a


def _check_index(i: int, lattice: MarkedLattice) -> None:
    if not 1 <= i <= lattice.r:
        raise DomainError(f"simple reflection index {i} outside 1..{lattice.r}")


def apply_word(word: Iterable[int], v: LatticeVector, lattice: MarkedLattice) -> LatticeVector:
    """Apply simple reflections left to right (first index acts first)."""
    for i in word:
        _check_index(i, lattice)
        a = lattice.simple_coroots[i - 1]
        v = v + inner(v, a) * a
    return v


def orbit(
    v: LatticeVector, lattice: MarkedLattice, cap: int = DEFAULT_ORBIT_CAP
) -> list[LatticeVector]:
    """Weyl orbit of v, in lexicographic order.

    Breadth-first closure under the simple reflections; raises
    OrbitCapError once more than `cap` elements have been found.
    """
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for a in lattice.simple_coroots:
                w = u + inner(u, a) * a
                if w not in seen:
                    if len(seen) >= cap:
                        raise OrbitCapError(cap, len(seen))
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


def orbit_of_set(
    vectors: Iterable[LatticeVector],
    lattice: MarkedLattice,
    cap: int = DEFAULT_ORBIT_CAP,
) -> list[tuple[LatticeVector, ...]]:
    """Orbit of an unordered tuple of vectors under the diagonal action.

    Elements are kept as sorted tuples, so the action is on k-element
    multisets; used for transitivity checks on line k-tuples.
    """
    start = tuple(sorted(vectors))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for tup in frontier:
            for a in lattice.simple_coroots:
                image = tuple(sorted(u + inner(u, a) * a for u in tup))
                if image not in seen:
                    if len(seen) >= cap:
                        raise OrbitCapError(cap, len(seen))
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return sorted(seen)


def is_dominant(v: LatticeVector, lattice: MarkedLattice) -> bool:
    return all(inner(v, a) >= 0 for a in lattice.simple_coroots)


def dominant_representative(
    v: LatticeVector, lattice: MarkedLattice
) -> tuple[LatticeVector, Word]:
    """Descend to the unique orbit element pairing >= 0 with every simple coroot.

    Returns (representative, word) with apply_word(word, v) equal to the
    representative; ties broken by always reflecting at the lowest index,
    so the word is deterministic.
    """
    word: list[int] = []
    cur = v
    while True:
        for i, a in enumerate(lattice.simple_coroots, 1):
            if inner(cur, a) < 0:
                cur = cur + inner(cur, a) * a
                word.append(i)
                break
        else:
            return cur, tuple(word)


# --- isometries as matrices --------------------------------------------------


def word_matrix(word: Iterable[int], lattice: MarkedLattice) -> tuple[tuple[int, ...], ...]:
    """Matrix of a word in the basis (h, e_1, ..., e_r); column j is the
    image of the j-th basis vector."""
    r = lattice.r
    basis = [basis_h(r)] + [basis_e(r, i) for i in range(1, r + 1)]
    images = [apply_word(word, b, lattice) for b in basis]
    return tuple(
        tuple(images[j].coeffs()[i] for j in range(r + 1)) for i in range(r + 1)
    )


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
    images = [
        LatticeVector(matrix[0][j], tuple(matrix[i][j] for i in range(1, r + 1)))
        for j in range(r + 1)
    ]
    basis = [basis_h(r)] + [basis_e(r, i) for i in range(1, r + 1)]
    for i in range(r + 1):
        for j in range(i, r + 1):
            if inner(images[i], images[j]) != inner(basis[i], basis[j]):
                raise DomainError("matrix does not preserve the intersection form")
    kappa_image = 3 * images[0]
    for img in images[1:]:
        kappa_image = kappa_image - img
    if kappa_image != lattice.kappa:
        raise DomainError("matrix does not fix kappa")

    def act(v: LatticeVector) -> LatticeVector:
        acc = v.coeff_h * images[0]
        for c, img in zip(v.coeff_e, images[1:]):
            acc = acc + c * img
        return acc

    # A strictly dominant vector has trivial stabilizer, so matching its
    # image pins the group element uniquely.
    regular = zero_vector(r)
    for w in dual_basis_lifts(lattice):
        regular = regular + w
    dom, descent = dominant_representative(act(regular), lattice)
    if dom != regular:
        raise InternalError("isometry is not a Weyl element; kappa-fixing guarantee broken")
    word = tuple(reversed(descent))
    for b in basis:
        if apply_word(word, b, lattice) != act(b):
            raise InternalError("word reconstruction failed to match the isometry")
    return word
