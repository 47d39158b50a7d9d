"""Shared oracles for the test suite.

Everything here is built directly from closed-form descriptions, not by
calling the enumeration code under test, so the two routes stay
independent.
"""

from __future__ import annotations

import pickle
import random
import sys
from collections import defaultdict
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial, isqrt, lcm
from operator import mul

import pytest

from delpezzo import (
    DEFAULT_ORBIT_CAP,
    ConfigurationError,
    DomainError,
    DynkinType,
    LatticeVector,
    MarkedLattice,
    OrbitCapError,
    Root,
    SubOrbit,
    TorsionPoint,
    VectorParseError,
    basis_e,
    basis_h,
    enumerate_roots,
    evaluate,
    expand_in_simple,
    inner,
    lines,
    make_period,
    positive_roots,
    restrict_to_coroots,
    root_from_six,
    zero_vector,
)
from delpezzo.lattice import _coeffs, _symbols, _term, _vector, closure
from delpezzo.roots import as_root_vector
from delpezzo.weyl import _labels, dominant_representative

LINE_COUNTS = {3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
ROOT_COUNTS = {3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}
DYNKIN_NAMES = {3: "A1+A2", 4: "A4", 5: "D5", 6: "E6", 7: "E7", 8: "E8"}
WEYL_ORDERS = {3: 12, 4: 120, 5: 1_920, 6: 51_840, 7: 2_903_040, 8: 696_729_600}


def esum(r: int, indices) -> LatticeVector:
    v = zero_vector(r)
    for i in indices:
        v = v + basis_e(r, i)
    return v


def closed_form_positive_roots(r: int) -> set[LatticeVector]:
    """The closed families: e_i - e_j (i<j), h - e_i - e_j - e_k,
    2h - six e's (r >= 6), 3h - 2e_i - the rest (r = 8)."""
    h = basis_h(r)
    out = {basis_e(r, i) - basis_e(r, j) for i, j in combinations(range(1, r + 1), 2)}
    out |= {h - esum(r, t) for t in combinations(range(1, r + 1), 3)}
    if r >= 6:
        out |= {2 * h - esum(r, t) for t in combinations(range(1, r + 1), 6)}
    if r == 8:
        out |= {
            3 * h - basis_e(r, i) - esum(r, range(1, 9)) for i in range(1, 9)
        }
    return out


def positive_roots_by_coordinates(lattice: MarkedLattice) -> list[Root]:
    """The roots whose simple-coroot coordinates are all non-negative, in
    enumeration order: the filter roots.positive_roots replaced."""
    return [
        root
        for root in enumerate_roots(lattice)
        if all(c >= 0 for c in expand_in_simple(root, lattice))
    ]


def closed_form_highest_root(r: int) -> LatticeVector:
    h = basis_h(r)
    if r in (4, 5):
        return h - esum(r, (r - 2, r - 1, r))
    if r in (6, 7):
        return 2 * h - esum(r, range(r - 5, r + 1))
    return 3 * h - esum(r, range(1, 8)) - 2 * basis_e(r, 8)


def descent_highest_root(lattice: MarkedLattice) -> Root:
    """Minus the dominant root, all roots being one Weyl orbit (r >= 4):
    the Weyl descent roots.highest_root replaced."""
    return Root(-dominant_representative(lattice.simple_coroots[0], lattice)[0])


def chain_parabolic_order(r: int, nodes: frozenset[int]) -> int:
    """|W_J| for the simple reflections J = `nodes` of the E_r diagram, read
    off the diagram's shape.  Oracle for weyl._parabolic_order.

    Nodes 1..r-1 form a chain and, for r >= 4, node r hangs off node 3.
    So every component of J is a run of chain nodes, with node r attached
    when the run holds node 3: type A_n, or D_n / E_n when node 3 is
    inside the run and becomes a branch point.
    """
    e_orders = {6: 51_840, 7: 2_903_040, 8: 696_729_600}
    runs: list[list[int]] = []
    for i in sorted(n for n in nodes if n < r):
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    order = 1
    spare = r in nodes  # node r not yet counted in a component
    for lo, hi in runs:
        n = hi - lo + 1
        if spare and r > 3 and lo <= 3 <= hi:
            spare = False
            n += 1
            if lo < 3 < hi:  # arms of lengths 3 - lo, hi - 3 and 1
                if min(3 - lo, hi - 3) == 2:
                    order *= e_orders[n]
                else:
                    order *= 2 ** (n - 1) * factorial(n)
                continue
        order *= factorial(n + 1)
    return order * 2 if spare else order


def simple_coroot_vectors(r: int) -> list[LatticeVector]:
    """e_i - e_{i+1} for i < r, then h - e_1 - e_2 - e_3, built directly so
    that ranks above 8 (which have no MarkedLattice) can be used too."""
    e = [LatticeVector(0, tuple(int(i == j) for j in range(r))) for i in range(r)]
    chain = [e[i] - e[i + 1] for i in range(r - 1)]
    return chain + [LatticeVector(1, (0,) * r) - e[0] - e[1] - e[2]]


def shape_dynkin_type(roots) -> DynkinType:
    """ADE type of roots with pairings in {0, 1}, read off the shape of each
    component's graph: a path is A_n; one branch point with arms of lengths
    (1, 1, n) is D, with (1, 2, 2..4) is E; anything else is dependent.
    Oracle for roots.dynkin_type."""
    try:
        vecs = [as_root_vector(x) for x in roots]
    except DomainError as exc:
        raise ConfigurationError(str(exc)) from exc
    n = len(vecs)
    for i in range(n):
        for j in range(i + 1, n):
            p = inner(vecs[i], vecs[j])
            if p not in (0, 1):
                raise ConfigurationError(
                    f"pairing <{vecs[i]}, {vecs[j]}> = {p} is outside {{0, 1}}"
                )
    adj = {i: {j for j in range(n) if j != i and inner(vecs[i], vecs[j]) == 1} for i in range(n)}
    components = []
    seen: set[int] = set()
    for start in range(n):
        if start in seen:
            continue
        comp = closure(start, adj.__getitem__)
        seen |= comp
        kind = _classify_component(comp, adj)
        if kind is None:
            raise ConfigurationError("roots are linearly dependent")
        components.append(kind)
    return DynkinType(tuple(sorted(components)))


def _classify_component(nodes, adj) -> tuple[str, int] | None:
    """ADE type of a connected diagram, or None when it is not ADE."""
    n = len(nodes)
    deg = [len(adj[v]) for v in nodes]
    if sum(deg) != 2 * (n - 1) or max(deg) > 3:
        return None
    branch = [v for v in nodes if len(adj[v]) == 3]
    if not branch:
        return ("A", n)
    if len(branch) > 1:
        return None
    arms = sorted(_arm_length(branch[0], nb, adj) for nb in adj[branch[0]])
    if arms[0] == 1 and arms[1] == 1:
        return ("D", n)
    if (arms[0], arms[1]) == (1, 2) and arms[2] in (2, 3, 4):
        return ("E", n)
    return None


def _arm_length(branch: int, first: int, adj: dict[int, set[int]]) -> int:
    prev, cur, length = branch, first, 1
    while len(adj[cur]) == 2:
        nxt = next(iter(adj[cur] - {prev}))
        prev, cur, length = cur, nxt, length + 1
    return length


def brute_force_classes(r: int, norm: int, deg: int, box: int) -> set[LatticeVector]:
    """Plain box scan oracle; `box` bounds every coefficient magnitude.
    The points are tested as int tuples and only the matches are wrapped."""
    span = range(-box, box + 1)
    return {
        LatticeVector(a, tail)
        for tail in product(span, repeat=r)
        for a in span
        if a * a - sum(c * c for c in tail) == norm and 3 * a + sum(tail) == deg
    }


def recursive_tuples_of_type(r: int, norm: int, deg: int) -> list[tuple[int, ...]]:
    """Oracle for lattice._tuples_of_type: every (a, c_1, ..., c_r) with
    a^2 - sum c_i^2 = norm and 3a + sum c_i = deg, in lexicographic order.

    For r <= 8, Cauchy-Schwarz (deg - 3a)^2 <= r (a^2 - norm) gives
    a^2 <= 6|a||deg| + 8|norm|, so |a| <= 6|deg| + 8|norm| + 1 holds every
    height; each is searched, not only those lattice._heights gives.
    """
    assert 0 < r <= 8
    top = 6 * abs(deg) + 8 * abs(norm) + 1
    return [
        (a, *tail)
        for a in range(-top, top + 1)
        if a * a >= norm
        for tail in recursive_coeff_solutions(r, deg - 3 * a, a * a - norm)
    ]


def recursive_coeff_solutions(k: int, total: int, total_sq: int) -> list[tuple[int, ...]]:
    """Every (c_1, ..., c_k) with sum `total` and sum of squares `total_sq`,
    k >= 1, in lexicographic order, by a search down to k = 1, where the one
    coefficient left is `total`; no closed form for the last pair."""
    if k == 1:
        return [(total,)] if total * total == total_sq else []
    sols = []
    bound = isqrt(total_sq)
    for c in range(-bound, bound + 1):
        rest, rest_sq = total - c, total_sq - c * c
        if rest * rest > (k - 1) * rest_sq or (rest - rest_sq) % 2 != 0:
            continue
        for tail in recursive_coeff_solutions(k - 1, rest, rest_sq):
            sols.append((c, *tail))
    return sols


def wrap_mismatches(vectors) -> list[LatticeVector]:
    """The vectors that differ from LatticeVector(a, c), built by the checked
    constructor, in ==, hash or str, before or after a pickle round-trip, or
    that let a field be assigned.  Oracle for the unchecked wraps."""
    out = []
    for v in vectors:
        built, back = LatticeVector(v.coeff_h, v.coeff_e), pickle.loads(pickle.dumps(v))
        alike = all(
            w == built and hash(w) == hash(built) and str(w) == str(built) for w in (v, back)
        )
        try:
            v.coeff_h = built.coeff_h
            alike = False
        except FrozenInstanceError:
            pass
        if not alike:
            out.append(v)
    return out


def random_vector(rng: random.Random, r: int, span: int = 3) -> LatticeVector:
    return LatticeVector(
        rng.randint(-span, span), tuple(rng.randint(-span, span) for _ in range(r))
    )


def random_word(rng: random.Random, r: int, max_len: int = 10) -> tuple[int, ...]:
    return tuple(rng.randint(1, r) for _ in range(rng.randint(0, max_len)))


def exact_determinant(matrix) -> int:
    """Cofactor expansion; fine for the tiny matrices in these tests."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in [list(m) for m in matrix[1:]]]
        total += (-1) ** j * matrix[0][j] * exact_determinant(minor)
    return total


def exact_rank(vectors) -> int:
    """Rank over Q of a list of LatticeVectors, by Fraction Gaussian elimination."""
    rows = [[Fraction(c) for c in v.coeffs()] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / lead[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], lead)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def two_pass_format_vector(v: LatticeVector) -> str:
    """The `3h-e1-2e8` text built term by term, then sign-joined."""
    parts: list[tuple[str, str]] = []

    def push(coeff: int, sym: str) -> None:
        if coeff == 0:
            return
        mag = abs(coeff)
        body = sym if mag == 1 else f"{mag}{sym}"
        parts.append(("-" if coeff < 0 else "+", body))

    push(v.coeff_h, "h")
    for i, c in enumerate(v.coeff_e, 1):
        push(c, f"e{i}")
    if not parts:
        return "0"
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += sign + body
    return out


def format_tuples(r: int, values, tuples) -> list[str]:
    """format_vector of each rank-r tuple (a, c_1, ..., c_r), with no vector
    built: every coefficient must lie in `values`, and the terms come from
    one dict per slot from each value to its lattice._term.  Oracle for
    lattice._texts_of_type."""
    table = [{c: _term(c, s) for c in values} for s in _symbols(r)]
    get = dict.__getitem__
    return ["".join(map(get, table, t)).lstrip("+") or "0" for t in tuples]


def _render_value(value) -> str:
    if isinstance(value, list):
        return " | ".join(_render_value(v) for v in value)
    if isinstance(value, dict):
        return "  ".join(f"{k}={_render_value(v)}" for k, v in value.items())
    return str(value)


# int() refuses a digit run longer than sys.get_int_max_str_digits(); a
# Python without that function, or with the limit set to 0, reads any
# length, and there the tests of the refusal are skipped.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
OVERLONG = "9" * (INT_DIGIT_LIMIT + 1)
needs_int_digit_limit = pytest.mark.skipif(
    not INT_DIGIT_LIMIT, reason="int() reads digit runs of any length"
)


def render_table(report: dict) -> str:
    """The table text of a report, one rendered line at a time: the query
    line, every key but tool, query, counts and items, the counts, then one
    line per item.  Oracle for the table half of cli._write."""
    out = []
    query = report["query"]
    head = query["command"] + "".join(
        f" {k}={v}" for k, v in query.items() if k != "command"
    )
    out.append(head)
    for key, value in report.items():
        if key in ("tool", "query", "counts", "items"):
            continue
        out.append(f"{key}: {_render_value(value)}")
    out.append(
        "counts: " + " ".join(f"{k}={v}" for k, v in report["counts"].items())
    )
    for item in report["items"]:
        out.append(_render_value(item))
    return "\n".join(out) + "\n"


def scan_parse_vector(text: str, r: int) -> LatticeVector:
    """The `3h-e1-2e8` syntax read by a character scanner; oracle for
    lattice.parse_vector.  It tests digits with str.isdigit but converts
    them with int(), so a digit such as '²' that int() rejects makes it
    raise ValueError instead of VectorParseError."""
    if text == "0":
        return zero_vector(r)
    if not text:
        raise VectorParseError(text, 0, "empty vector text")
    coeff_h = 0
    coeff_e = [0] * r
    i = 0
    first = True
    while i < len(text):
        sign = 1
        if text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i += 1
        elif not first:
            raise VectorParseError(text, i, "expected '+' or '-' between terms")
        j = i
        while j < len(text) and text[j].isdigit():
            j += 1
        mag = int(text[i:j]) if j > i else 1
        if j >= len(text):
            raise VectorParseError(text, j, "expected basis symbol 'h' or 'e<i>'")
        if text[j] == "h":
            coeff_h += sign * mag
            i = j + 1
        elif text[j] == "e":
            k = j + 1
            while k < len(text) and text[k].isdigit():
                k += 1
            if k == j + 1:
                raise VectorParseError(text, j + 1, "expected index digits after 'e'")
            idx = int(text[j + 1 : k])
            if not 1 <= idx <= r:
                raise VectorParseError(text, j + 1, f"index e{idx} outside 1..{r}")
            coeff_e[idx - 1] += sign * mag
            i = k
        else:
            raise VectorParseError(text, j, "expected basis symbol 'h' or 'e<i>'")
        first = False
    return _vector((coeff_h, *coeff_e))


def bfs_orbit(
    v: LatticeVector, lattice: MarkedLattice, cap: int = 10_000_000
) -> list[LatticeVector]:
    """Breadth-first closure under the simple reflections, on LatticeVector
    arithmetic; raises OrbitCapError once more than `cap` elements are found.
    Oracle for weyl.orbit."""
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


def reverse_search_orbit(dom: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every element of the orbit of the dominant tuple `dom`, each once.
    Oracle for weyl.orbit on orbits too large for bfs_orbit.

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


def position_triple_images(q: tuple[int, ...]):
    """The tuples (a, sorted c) that s_r reaches from the S_r-orbit of q,
    c sorted, over every position triple of c, repeated values or not.
    Oracle for weyl._sorted_images."""
    a, c = q[0], q[1:]
    for i, j, k in combinations(range(len(c)), 3):
        m = a + c[i] + c[j] + c[k]
        if m:
            d = list(c)
            for n in (i, j, k):
                d[n] -= m
            yield (a + m, *sorted(d))


def bfs_orbit_of_set(vectors, lattice: MarkedLattice) -> list[tuple[LatticeVector, ...]]:
    """Breadth-first closure of a sorted tuple of vectors under the diagonal
    action, on LatticeVector arithmetic.  Oracle for weyl.orbit_of_set."""
    start = tuple(sorted(vectors))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for tup in frontier:
            for a in lattice.simple_coroots:
                image = tuple(sorted(u + inner(u, a) * a for u in tup))
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return sorted(seen)


def backtrack_disjoint_line_sets(lattice: MarkedLattice, k: int) -> list[frozenset]:
    """All k-element sets of pairwise-disjoint lines, by plain backtracking on
    LatticeVector arithmetic, sorted by their sorted member tuples.  Oracle
    for geometry.disjoint_line_sets."""
    vecs = [c.vector for c in lines(lattice)]
    out: list[frozenset] = []

    def extend(start: int, chosen: list[LatticeVector]) -> None:
        if len(chosen) == k:
            out.append(frozenset(chosen))
            return
        for idx in range(start, len(vecs)):
            cand = vecs[idx]
            if all(inner(cand, c) == 0 for c in chosen):
                chosen.append(cand)
                extend(idx + 1, chosen)
                chosen.pop()

    extend(0, [])
    return sorted(out, key=lambda s: tuple(sorted(s)))


def set_and_sort_triples(vecs, total: LatticeVector) -> list[frozenset]:
    """Unordered triples of distinct members of `vecs` summing to `total`:
    every pair is completed, the triples are deduplicated in a set and
    sorted by their sorted member tuples.  Oracle for
    geometry._triples_summing_to."""
    vset = set(vecs)
    triples = set()
    for i, a in enumerate(vecs):
        for b in vecs[i + 1 :]:
            c = total - a - b
            if c != a and c != b and c in vset:
                triples.add(frozenset((a, b, c)))
    return sorted(triples, key=lambda s: tuple(sorted(s)))


def root_paired_double_sixes(lattice: MarkedLattice) -> list[tuple[frozenset, frozenset]]:
    """The 72 sixes of disjoint lines paired off by the opposite roots that
    root_from_six attaches to them; each pair and the list are sorted by
    sorted member tuples.  Oracle for geometry.double_sixes."""
    by_root = defaultdict(list)
    for six in backtrack_disjoint_line_sets(lattice, 6):
        rho = root_from_six(six, lattice).vector
        by_root[max(rho, -rho)].append(six)
    assert len(by_root) == 36 and all(len(g) == 2 for g in by_root.values())
    pairs = [tuple(sorted(g, key=lambda s: tuple(sorted(s)))) for g in by_root.values()]
    return sorted(pairs, key=lambda p: tuple(sorted(p[0])))


def bfs_canonicalize(period, lattice: MarkedLattice, cap: int = 1_000_000):
    """Least coroot-value tuple over the W-orbit of a period, by breadth-first
    closure on TorsionPoint (Fraction) arithmetic: precomposing with s_j
    sends v to v_i + <alpha_i, alpha_j> v_j.  Raises OrbitCapError once more
    than `cap` tuples are found.  Oracle for period.weyl_canonicalize."""
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
                image = tuple(tup[i] + gram[i][j] * tup[j] for i in range(r))
                if image not in seen:
                    if len(seen) >= cap:
                        raise OrbitCapError(cap, len(seen))
                    seen.add(image)
                    nxt.append(image)
                    if image < best:
                        best = image
        frontier = nxt
    return best


# Two generic periods, killing no root, as `period --assign` values in basis
# order: their W-orbits of 2,903,040 and 696,729,600 coroot-value tuples are
# out of reach of a BFS.
GENERIC_ASSIGNS = {
    r: ("h=17/101,72/101", "e1=97/101,8/101", "e2=32/101,15/101", "e3=63/101,97/101",
        "e4=57/101,60/101", "e5=83/101,48/101", "e6=100/101,26/101", *last)
    for r, last in ((7, ("e7=23/101,63/101",)), (8, ("e7=12/101,62/101", "e8=11/101,1/101")))
}


def period_of_assigns(assigns):
    """The period of `period --assign` values given for h, e_1, ..., e_r in order."""
    return make_period([TorsionPoint.parse(a.split("=")[1]) for a in assigns])


def residue_moves(lattice: MarkedLattice, n: int):
    """images(tup): what the simple reflections make of a flat tuple of
    residue pairs mod n, (x_1, y_1, ..., x_r, y_r), of coroot values.
    Precomposing with s_j negates v_j, adds v_j to the Dynkin neighbours of
    j and fixes tuples with v_j = 0."""
    moves = [
        (2 * j, [2 * i for i, b in enumerate(lattice.simple_coroots) if inner(a, b) == 1])
        for j, a in enumerate(lattice.simple_coroots)
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

    return images


def coroot_residue_orbit(period, lattice: MarkedLattice, cap: int | None = None):
    """N and the W-orbit of a period's coroot values as flat tuples of residue
    pairs mod N, closed breadth-first by lattice.closure with its cap rule."""
    values = restrict_to_coroots(period, lattice)
    n = lcm(*(c.denominator for v in values for c in (v.x, v.y)))
    start = tuple(int(c * n) for v in values for c in (v.x, v.y))
    return n, closure(start, residue_moves(lattice, n), cap)


def torsion_census(lattice: MarkedLattice, n: int) -> list[list[tuple[int, ...]]]:
    """The W-orbits on all n^(2r) flat residue tuples of n-torsion coroot
    values, each sorted and listed by its least member: the n-torsion points
    of (Lambda (x) E)/W, with Lambda the coroot lattice and E an elliptic
    curve."""
    images = residue_moves(lattice, n)
    seen: set = set()
    orbits = []
    for tup in product(range(n), repeat=2 * lattice.r):
        if tup not in seen:
            orbit = closure(tup, images)
            seen |= orbit
            orbits.append(sorted(orbit))
    return orbits


def period_with_coroot_values(values, r: int):
    """A period whose simple coroot values are values = (v_1, ..., v_r).
    With S_i = v_i + ... + v_(r-1) and S_r = 0, t = p(e_r) solves
    (9 - r) t = sum_i S_i - 3 (S_1 + S_2 + S_3) - 3 v_r, and then
    p(e_i) = t + S_i and p(h) = v_r + p(e_1) + p(e_2) + p(e_3)."""
    sums = [TorsionPoint.zero()]
    for v in reversed(values[:-1]):
        sums.insert(0, sums[0] + v)
    rhs = -3 * (values[-1] + sums[0] + sums[1] + sums[2])
    for s in sums:
        rhs = rhs + s
    t = TorsionPoint(rhs.x / (9 - r), rhs.y / (9 - r))
    es = [t + s for s in sums]
    return make_period([values[-1] + es[0] + es[1] + es[2], *es])


def residue_bfs_canonicalize(period, lattice: MarkedLattice, cap: int = DEFAULT_ORBIT_CAP):
    """Least member of coroot_residue_orbit as TorsionPoints, OrbitCapError
    past the cap: the library's canonical form until the search over simple
    systems replaced it.  Oracle for period.weyl_canonicalize on orbits too
    large for bfs_canonicalize's Fraction arithmetic."""
    n, orbit = coroot_residue_orbit(period, lattice, cap)
    least = min(orbit)
    return tuple(
        TorsionPoint(Fraction(x, n), Fraction(y, n)) for x, y in zip(least[::2], least[1::2])
    )


@lru_cache(maxsize=None)
def _scaled_inverse(columns: tuple[tuple[int, ...], ...]) -> tuple[int, list[list[int]]]:
    """(D, D A^-1) for the square matrix A with these columns, D the least
    common denominator of A^-1; A^-1 by Gauss-Jordan on Fractions."""
    size = len(columns)
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(i == j) for j in range(size)]
            for i in range(size)]
    for k in range(size):
        pivot = next(i for i in range(k, size) if rows[i][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(size):
            if i != k and rows[i][k]:
                rows[i] = [x - rows[i][k] * y for x, y in zip(rows[i], rows[k])]
    inv = [row[size:] for row in rows]
    den = lcm(*(x.denominator for row in inv for x in row))
    return den, [[int(x * den) for x in row] for row in inv]


def maps_basis_integrally(betas, lattice: MarkedLattice) -> bool:
    """Whether alpha_i -> betas[i], kappa -> kappa is an integral map of
    Z^{1,r}: B A^-1 has integer entries, with A's columns the simple
    coroots and kappa and B's their images.  Full-matrix oracle for the
    one-row leaf test period._is_weyl_image."""
    fixed = (*lattice.simple_coroots, lattice.kappa)
    den, inv = _scaled_inverse(tuple(v.coeffs() for v in fixed))
    rows = list(zip(*(v.coeffs() for v in (*betas, lattice.kappa))))
    return all(sum(map(mul, row, col)) % den == 0 for row in rows for col in zip(*inv))


def simple_killed_roots(period, lattice: MarkedLattice) -> list[LatticeVector]:
    """The simple roots of the root system a period kills, sorted: the killed
    positive roots that are not the sum of two other killed positive roots."""
    killed = {a.vector for a in positive_roots(lattice) if evaluate(period, a.vector).is_zero()}
    return sorted(killed - {a + b for a, b in combinations(killed, 2)})


def bfs_orbit_decomposition(config, weights, lattice: MarkedLattice) -> list[SubOrbit]:
    """Sub-Weyl orbits of `weights` under the configuration reflections, by
    breadth-first closure on LatticeVector arithmetic, listed by least
    representative and labelled as in degeneration.orbit_decomposition.
    Oracle for degeneration.orbit_decomposition."""
    gens = [c.vector for c in config.curves]
    gen_set = {g for v in gens for g in (v, -v)}
    seen: set[LatticeVector] = set()
    parts = []
    for v in sorted(set(weights)):
        if v in seen:
            continue
        orb = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for g in gens:
                    w = u + inner(u, g) * g
                    if w not in orb:
                        orb.add(w)
                        nxt.append(w)
            frontier = nxt
        seen |= orb
        members = tuple(sorted(orb))
        if len(members) == 1:
            label = "singleton"
        elif len(members) == 2 and members[1] - members[0] in gen_set:
            label = "extension pair"
        else:
            label = "orbit"
        parts.append(SubOrbit(members[0], members, label))
    return sorted(parts, key=lambda p: p.representative)


def reflect_orbit_decomposition(config, weights, lattice: MarkedLattice) -> list[SubOrbit]:
    """Sub-Weyl orbits by lattice.closure over the reflections t + <t, g> g on
    coefficient tuples, with the form written out as 2 t_0 g_0 - sum t_i g_i,
    every member wrapped anew and a two-member orbit labelled by whether its
    members differ by a curve up to sign.  Shares no kernel with
    degeneration.orbit_decomposition, for which it is the oracle."""

    def reflect(t, g):
        m = 2 * t[0] * g[0] - sum(x * y for x, y in zip(t, g))
        return tuple(x + m * y for x, y in zip(t, g))

    gens = [_coeffs(c.vector, lattice) for c in config.curves]
    gen_set = {g for v in gens for g in (v, tuple(-x for x in v))}
    seen: set[tuple[int, ...]] = set()
    orbits = []
    for v in {_coeffs(w, lattice) for w in weights}:
        if v not in seen:
            orb = closure(v, lambda u: (reflect(u, g) for g in gens))
            seen |= orb
            orbits.append(sorted(orb))
    parts = []
    for orb in sorted(orbits):
        if len(orb) == 1:
            label = "singleton"
        elif len(orb) == 2 and tuple(y - x for x, y in zip(*orb)) in gen_set:
            label = "extension pair"
        else:
            label = "orbit"
        members = tuple(map(_vector, orb))
        parts.append(SubOrbit(members[0], members, label))
    return parts


def inner_incident_lines(config, lattice: MarkedLattice) -> list:
    """The lines of geometry.lines meeting some configuration curve, by
    `inner`.  Oracle for degeneration.incident_lines."""
    return [
        c
        for c in lines(lattice)
        if any(inner(c.vector, g.vector) != 0 for g in config.curves)
    ]
