"""Independent integer kernel and closed forms used to check outputs.

Nothing here calls `delpezzo`: vectors are plain coefficient tuples
(a, c_1, ..., c_r) for a*h + sum c_i e_i, and the simple reflections are
the explicit moves on those tuples.  The checks compare the library's
outputs with what this module computes by a separate route.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

WEYL_ORDER = {3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040, 8: 696729600}
# Number of unordered sets of k pairwise-disjoint lines that orbit_of_set
# reaches from one such set, keyed by (r, k).
DISJOINT_SET_ORBIT = {(6, 2): 216, (6, 3): 720, (7, 2): 756, (7, 3): 4032}


def ip(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Intersection form diag(1, -1, ..., -1)."""
    return u[0] * v[0] - sum(x * y for x, y in zip(u[1:], v[1:]))


def reflect(v: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Simple reflection s_i: swap c_i, c_{i+1} for i < r; the quadratic
    Cremona move in h - e1 - e2 - e3 for i = r."""
    r = len(v) - 1
    if i < r:
        w = list(v)
        w[i], w[i + 1] = w[i + 1], w[i]
        return tuple(w)
    m = v[0] + v[1] + v[2] + v[3]
    return (v[0] + m, v[1] - m, v[2] - m, v[3] - m, *v[4:])


def apply_word(word, v: tuple[int, ...]) -> tuple[int, ...]:
    for i in word:
        v = reflect(v, i)
    return v


def labels(v: tuple[int, ...]) -> tuple[int, ...]:
    """Pairings <v, alpha_i> with the simple coroots."""
    r = len(v) - 1
    out = [v[i + 1] - v[i] for i in range(1, r)]
    out.append(v[0] + v[1] + v[2] + v[3])
    return tuple(out)


def dominant(v: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Descend to the dominant element, reflecting at the lowest negative label."""
    word = []
    while True:
        neg = next((i for i, x in enumerate(labels(v), 1) if x < 0), None)
        if neg is None:
            return v, tuple(word)
        v = reflect(v, neg)
        word.append(neg)


def fundamental(r: int, i: int) -> tuple[int, ...]:
    """Closed-form lift of the i-th fundamental weight."""
    if i == 1:
        return (1, -1) + (0,) * (r - 1)
    if i == 2:
        return (2, -1, -1) + (0,) * (r - 2)
    if i == r:
        return (1,) + (0,) * r
    return (0,) + (0,) * i + (1,) * (r - i)


def weight(r: int, lab: dict[int, int]) -> tuple[int, ...]:
    """The dominant weight with Dynkin labels `lab` (missing labels are 0)."""
    acc = [0] * (r + 1)
    for i, a in lab.items():
        for j, c in enumerate(fundamental(r, i)):
            acc[j] += a * c
    return tuple(acc)


def _diagram(r: int) -> dict[int, set[int]]:
    adj = {i: set() for i in range(1, r + 1)}
    for i in range(1, r - 1):
        adj[i].add(i + 1)
        adj[i + 1].add(i)
    adj[r].add(3)
    adj[3].add(r)
    return adj


def parabolic_order(r: int, nodes) -> int:
    """|W_J| for the subdiagram on `nodes`, from the ADE type of each component."""
    adj = _diagram(r)
    nodes = set(nodes)
    total, seen = 1, set()
    for start in sorted(nodes):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            x = stack.pop()
            for y in adj[x] & nodes - comp:
                comp.add(y)
                stack.append(y)
        seen |= comp
        n = len(comp)
        branch = [x for x in comp if len(adj[x] & comp) == 3]
        if not branch:
            total *= factorial(n + 1)
            continue
        arms = []
        for nb in adj[branch[0]] & comp:
            prev, cur, length = branch[0], nb, 1
            while len(adj[cur] & comp) == 2:
                prev, cur = cur, next(iter(adj[cur] & comp - {prev}))
                length += 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            total *= 2 ** (n - 1) * factorial(n)
        else:
            total *= {6: 51840, 7: 2903040, 8: 696729600}[n]
    return total


def orbit_size(v: tuple[int, ...]) -> int:
    """|W| / |W_J| with J the zero labels of the dominant representative."""
    r = len(v) - 1
    dom, _ = dominant(v)
    zeros = [i for i, x in enumerate(labels(dom), 1) if x == 0]
    return WEYL_ORDER[r] // parabolic_order(r, zeros)


def basis(r: int) -> list[tuple[int, ...]]:
    return [tuple(1 if j == i else 0 for j in range(r + 1)) for i in range(r + 1)]


def word_matrix(word, r: int) -> tuple[tuple[int, ...], ...]:
    """Matrix with column j the image of the j-th basis vector."""
    cols = [apply_word(word, b) for b in basis(r)]
    return tuple(tuple(col[i] for col in cols) for i in range(r + 1))


def simple_coroot(r: int, i: int) -> tuple[int, ...]:
    if i < r:
        return tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(r + 1))
    return (1, -1, -1, -1) + (0,) * (r - 3)


@lru_cache(maxsize=None)
def roots(r: int) -> tuple[tuple[int, ...], ...]:
    """All roots, as the Weyl closure of the simple coroots."""
    return tuple(sorted(_closure({simple_coroot(r, i) for i in range(1, r + 1)}, r, reflect)))


def _closure(start: set, r: int, move) -> set:
    """Breadth-first closure of `start` under move(x, i) for i = 1..r."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(1, r + 1):
                y = move(x, i)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def kills_root(images: list[tuple[Fraction, Fraction]]) -> bool:
    """True when the period with these basis images vanishes on some root."""
    r = len(images) - 1
    for root in roots(r):
        x = sum(c * p[0] for c, p in zip(root, images))
        y = sum(c * p[1] for c, p in zip(root, images))
        if x.denominator == 1 and y.denominator == 1:
            return True
    return False


@lru_cache(maxsize=None)
def disjoint_sets(r: int, k: int) -> tuple[frozenset[tuple[int, ...]], ...]:
    """Orbit of {e_{r-k+1}, ..., e_r} under W: all k-sets of disjoint lines."""
    start = frozenset(basis(r)[r - k + 1 :])
    seen = _closure({start}, r, lambda s, i: frozenset(reflect(v, i) for v in s))
    return tuple(sorted(seen, key=sorted))


def root_of_six(six) -> tuple[int, ...]:
    """2*gamma - sum eps for gamma = (kappa + sum eps)/3 (r = 6)."""
    total = [3] + [-1] * 6
    for v in six:
        total = [x + y for x, y in zip(total, v)]
    return tuple(2 * (x // 3) - sum(col) for x, *col in zip(total, *six))


def subsets(r: int) -> list[tuple[int, ...]]:
    """All non-empty sets of simple-coroot indices."""
    return [c for k in range(1, r + 1) for c in combinations(range(1, r + 1), k)]


def digest(obj) -> str:
    """Short fingerprint of a canonical Python value (tuples, ints, strings)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]
