import gc
import random
import re
import time
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from delpezzo import (
    DomainError,
    LatticeVector,
    OrbitCapError,
    Root,
    apply_word,
    connect_markings,
    degree,
    dominant_representative,
    dual_basis_lifts,
    enumerate_roots,
    format_word,
    inner,
    is_dominant,
    make_marked_lattice,
    orbit,
    orbit_of_set,
    parse_word,
    reflect,
    word_matrix,
)
from delpezzo import weyl
from delpezzo.errors import InternalError
from delpezzo.lattice import _vector, closure
from delpezzo.weyl import _descend, _join_tails, _orbit_size, _parabolic_order, _sorted_images
from helpers import (
    LINE_COUNTS,
    OVERLONG,
    ROOT_COUNTS,
    bfs_orbit,
    bfs_orbit_of_set,
    chain_parabolic_order,
    needs_int_digit_limit,
    position_triple_images,
    random_vector,
    random_word,
    reverse_search_orbit,
    wrap_mismatches,
)

WEYL_ORDER = {4: 120, 5: 1920, 6: 51840}


def test_word_syntax():
    assert parse_word("s1,s3,s2") == (1, 3, 2)
    assert parse_word("") == ()
    assert format_word((1, 3, 2)) == "s1,s3,s2"
    assert format_word(()) == ""
    assert parse_word(format_word((4, 4, 1))) == (4, 4, 1)
    with pytest.raises(DomainError):
        parse_word("t1")
    with pytest.raises(DomainError):
        parse_word("s1,,s2")
    with pytest.raises(DomainError):
        parse_word("s1,s²")
    assert parse_word("s١,s3") == (1, 3)


@needs_int_digit_limit
def test_word_with_an_overlong_index_is_a_bad_token():
    for text in ("s" + OVERLONG, "s1,s" + OVERLONG):
        with pytest.raises(DomainError, match="bad word token"):
            parse_word(text)


def test_reflect_examples():
    M = make_marked_lattice(6)
    a1 = M.simple_coroots[0]  # e1 - e2
    assert reflect(a1, M.e(1)) == M.e(2)
    assert reflect(a1, M.e(2)) == M.e(1)
    assert reflect(a1, M.e(3)) == M.e(3)
    assert reflect(a1, M.h) == M.h
    a6 = M.simple_coroots[5]  # h - e1 - e2 - e3
    assert reflect(a6, M.h) == 2 * M.h - M.e(1) - M.e(2) - M.e(3)
    assert reflect(a6, M.e(4)) == M.e(4)
    with pytest.raises(DomainError):
        reflect(M.e(1), M.e(2))  # not a root


def test_reflect_accepts_root_objects():
    M = make_marked_lattice(6)
    v = LatticeVector(2, (1, 0, -1, 3, 0, 1))
    for root in enumerate_roots(M):
        assert reflect(root, v) == reflect(root.vector, v)
    assert reflect(Root(M.e(1) - M.e(2)), M.e(1)) == M.e(2)


@pytest.mark.parametrize("r", range(3, 9))
def test_reflect_properties(r):
    M = make_marked_lattice(r)
    rng = random.Random(400 + r)
    roots = [x.vector for x in enumerate_roots(M)]
    for _ in range(300):
        a = rng.choice(roots)
        v = random_vector(rng, r)
        w = random_vector(rng, r)
        rv = reflect(a, v)
        assert reflect(a, rv) == v
        assert inner(rv, rv) == inner(v, v)
        assert inner(rv, reflect(a, w)) == inner(v, w)
        assert degree(rv, M) == degree(v, M)
        assert reflect(a, a) == -a
    assert reflect(roots[0], M.kappa) == M.kappa


def test_apply_word_order():
    # first listed index acts first
    M = make_marked_lattice(4)
    v = M.e(1)
    s1_first = apply_word((1, 2), v, M)
    assert s1_first == M.e(3)  # s1: e1->e2, then s2: e2->e3
    assert apply_word((2, 1), v, M) == M.e(2)
    assert apply_word((), v, M) == v
    with pytest.raises(DomainError):
        apply_word((5,), v, M)
    # the rank is checked whatever the word, the empty one too
    for word in ((), (1,), (9,)):
        with pytest.raises(DomainError) as exc:
            apply_word(word, make_marked_lattice(5).h, make_marked_lattice(6))
        assert str(exc.value) == "rank mismatch: 5 vs 6"


@pytest.mark.parametrize("r, sizes", [
    (3, {"lines": 6}),
    (4, {"lines": 10}),
    (5, {"lines": 16}),
    (6, {"lines": 27}),
    (7, {"lines": 56}),
    (8, {"lines": 240}),
])
def test_orbit_of_last_basis_vector(r, sizes):
    M = make_marked_lattice(r)
    got = orbit(M.e(r), M)
    assert len(got) == sizes["lines"] == LINE_COUNTS[r]
    assert list(got) == sorted(got)
    for v in got:
        assert inner(v, v) == -1
        assert degree(v, M) == 1


@pytest.mark.parametrize("r", range(3, 9))
def test_orbit_of_root_and_kappa(r):
    M = make_marked_lattice(r)
    assert orbit(M.kappa, M) == [M.kappa]
    if r == 3:
        # A1+A2 splits the 8 roots into orbits of size 2 and 6
        assert len(orbit(M.simple_coroots[0], M)) == 6
        assert len(orbit(M.h - M.e(1) - M.e(2) - M.e(3), M)) == 2
    else:
        assert len(orbit(M.simple_coroots[0], M)) == ROOT_COUNTS[r]


def test_orbit_cap():
    M = make_marked_lattice(6)
    with pytest.raises(OrbitCapError) as exc:
        orbit(M.e(6), M, cap=10)
    assert exc.value.cap == 10
    assert exc.value.partial_count >= 10
    # exactly at the orbit size is fine
    assert len(orbit(M.e(6), M, cap=27)) == 27


def _cap_outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except OrbitCapError as exc:
        return ("cap", exc.cap, exc.partial_count, str(exc))


@pytest.mark.parametrize("r", [3, 6])
def test_orbit_cap_boundary_matches_bfs_oracle(r):
    # raises iff the orbit is larger than max(cap, 1), always reporting
    # max(cap, 1) found; a one-element orbit passes even cap = 0
    M = make_marked_lattice(r)
    for v in (M.kappa, M.e(r), M.simple_coroots[0], dual_basis_lifts(M)[1]):
        for cap in (-3, 0, 1, 2, 5, 6, 26, 27, 28):
            assert _cap_outcome(orbit, v, M, cap=cap) == _cap_outcome(bfs_orbit, v, M, cap)


def test_orbit_cap_is_checked_before_any_search():
    # the regular E8 orbit has |W(E8)| = 696,729,600 elements
    M = make_marked_lattice(8)
    regular = dual_basis_lifts(M)[0]
    for w in dual_basis_lifts(M)[1:]:
        regular = regular + w
    start = time.perf_counter()
    with pytest.raises(OrbitCapError) as exc:
        orbit(regular, M, cap=10**6)
    assert time.perf_counter() - start < 1.0
    assert exc.value.cap == 10**6
    assert exc.value.partial_count == 10**6
    assert str(exc.value) == "orbit exceeded cap of 1000000 elements (1000000 found so far)"


@pytest.mark.parametrize(
    "r, nodes, order",
    [
        (3, {1, 2, 3}, 12),  # A2 + A1
        (4, {1, 2, 3, 4}, 120),  # A4
        (5, {1, 2, 3, 4, 5}, 1920),  # D5
        (6, {1, 2, 3, 4, 5, 6}, 51840),  # E6
        (7, {1, 2, 3, 4, 5, 6, 7}, 2903040),  # E7
        (8, set(range(1, 9)), 696729600),  # E8
        (8, set(range(1, 8)), 40320),  # A7
        (8, {2, 3, 4, 8}, 192),  # D4
        (8, {1, 2, 3, 4, 5, 6, 8}, 2903040),  # E7
        (8, {2, 3, 4, 5, 6, 7, 8}, 2**6 * 5040),  # D7
        (8, {1, 2, 4, 5, 7, 8}, 6 * 6 * 2 * 2),  # A2 + A2 + A1 + A1
        (6, {3, 6}, 6),  # A2 through the branch node
        (6, set(), 1),
    ],
)
def test_parabolic_orders_by_type(r, nodes, order):
    assert _parabolic_order(r, frozenset(nodes)) == order


def test_parabolic_orders_match_chain_oracle():
    cases = [
        (r, frozenset(nodes))
        for r in range(3, 9)
        for k in range(r + 1)
        for nodes in combinations(range(1, r + 1), k)
    ]
    assert len(cases) == 504
    for r, nodes in cases:
        assert _parabolic_order(r, nodes) == chain_parabolic_order(r, nodes)


@pytest.mark.parametrize(
    "r, i", [(r, i) for r in range(3, 8) for i in range(1, r + 1)] + [(8, 1), (8, 7), (8, 8)]
)
def test_orbit_matches_bfs_oracle_on_fundamental_weights(r, i):
    M = make_marked_lattice(r)
    w = dual_basis_lifts(M)[i - 1]
    assert orbit(w, M) == bfs_orbit(w, M)


@pytest.mark.parametrize(
    "r, i, j",
    [(6, i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    + [(7, 1, 2), (7, 1, 6), (7, 1, 7), (7, 2, 6), (7, 5, 6), (7, 6, 7)],
)
def test_orbit_matches_bfs_oracle_on_weight_sums(r, i, j):
    M = make_marked_lattice(r)
    lifts = dual_basis_lifts(M)
    v = apply_word(random_word(random.Random(100 * i + j), r, 12), lifts[i - 1] + lifts[j - 1], M)
    assert orbit(v, M) == bfs_orbit(v, M)


@pytest.mark.parametrize("r, count", [(4, 6), (5, 6), (6, 3), (7, 2)])
def test_orbit_matches_bfs_oracle_off_kappa_perp(r, count):
    M = make_marked_lattice(r)
    rng = random.Random(600 + r)
    done = 0
    while done < count:
        v = random_vector(rng, r)
        if degree(v, M) == 0:
            continue
        try:
            got = orbit(v, M, cap=50_000)
        except OrbitCapError:
            continue
        assert got == bfs_orbit(v, M)
        done += 1


@pytest.mark.parametrize(
    "r, weights, size", [(8, (2,), 69_120), (8, (4,), 241_920), (6, range(1, 7), 51_840)]
)
def test_orbit_matches_reverse_search_on_large_orbits(r, weights, size):
    # orbits too large for bfs_orbit: E8 w2, E8 w4 and the regular E6 orbit
    M = make_marked_lattice(r)
    lifts = dual_basis_lifts(M)
    dom = sum((lifts[i - 1] for i in weights), M.zero())
    v = apply_word(random_word(random.Random(802 + 10 * r + weights[0]), r, 30), dom, M)
    assert v != dom
    expected = list(map(_vector, sorted(reverse_search_orbit(dom.coeffs()))))
    assert len(expected) == size
    assert orbit(v, M) == expected


def test_arrangements_are_the_distinct_permutations():
    for n in range(1, 7):
        for c in combinations_with_replacement(range(-2, 3), n):
            _join_tails((), (c,), {}, out := [])
            assert out == sorted(set(permutations(c)))


def test_join_tails_lists_a_union_of_multisets_in_order():
    # lengths 1..8 cross the switch to memoized five-slot tails; distinct
    # sorted tuples share no permutation, so the union has no repeats
    rng = random.Random(3030)
    for _ in range(120):
        n = rng.randint(1, 8)
        rests = sorted({tuple(sorted(rng.choices(range(-2, 3), k=n))) for _ in range(rng.randint(1, 4))})
        prefix = tuple(rng.choices(range(-1, 2), k=rng.randint(0, 2)))
        memo, out = {}, []
        _join_tails(prefix, tuple(rests), memo, out)
        assert out == sorted(prefix + p for c in rests for p in set(permutations(c))), rests
        assert all(len(key[0]) <= 5 for key in memo)


@pytest.mark.parametrize("r", range(3, 9))
def test_sorted_images_close_over_the_sorted_orbit(r):
    M = make_marked_lattice(r)
    for w in dual_basis_lifts(M):
        dom, _ = _descend(w.coeffs())
        if _orbit_size(dom) > 250_000:
            continue
        expected = {(t[0], *sorted(t[1:])) for t in reverse_search_orbit(dom)}
        assert closure(dom, _sorted_images) == expected
        assert not any(q in _sorted_images(q) for q in expected)  # m = 0 is skipped
        for q in expected:  # distinct value triples give every image of all triples
            assert set(_sorted_images(q)) == set(position_triple_images(q)), q


def test_orbit_memory_peak_stays_at_the_listing():
    # the listing's one memo holds tails of at most five slots; a memo of
    # sub-multisets of every length, shared over the sorted representatives,
    # took this peak to 1.85x the listing's
    M = make_marked_lattice(8)
    w = dual_basis_lifts(M)[1]
    _orbit_size(w.coeffs())  # fill the caches of the orbit-size prediction first
    tracemalloc.start()
    try:
        list(map(_vector, sorted(reverse_search_orbit(w.coeffs()))))
        listing = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        orbit(w, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * listing


@pytest.mark.parametrize("r", range(3, 9))
def test_orbit_of_zero_and_kappa_multiples(r):
    M = make_marked_lattice(r)
    for v in (M.zero(), M.kappa, -2 * M.kappa, 5 * M.kappa):
        assert orbit(v, M) == bfs_orbit(v, M) == [v]


def _moved_lines(r, k):
    """The disjoint lines e_r, ..., e_{r-k+1}, moved by a fixed random word."""

    def members(M):
        word = random_word(random.Random(700 + 10 * r + k), r, 12)
        return [apply_word(word, M.e(r - j), M) for j in range(k)]

    return members


@pytest.mark.parametrize(
    "r, members, size",
    [
        pytest.param(6, _moved_lines(6, 2), 216, id="6-2-216"),
        pytest.param(6, _moved_lines(6, 3), 720, id="6-3-720"),
        pytest.param(7, _moved_lines(7, 2), 756, id="7-2-756"),
        pytest.param(7, _moved_lines(7, 3), 4032, id="7-3-4032"),
        # a multiset: the ordered pairs of disjoint lines, 27 * 16
        pytest.param(6, lambda M: [M.e(6), M.e(5), M.e(6)], 432, id="6-repeated-line"),
        # e1 > e3 > e6 in the lexicographic order
        pytest.param(6, lambda M: [M.e(1), M.e(3), M.e(6)], 720, id="6-unsorted"),
        # a root and a line orthogonal to it: 72 roots, 15 lines each
        pytest.param(6, lambda M: [M.simple_coroots[0], M.e(6)], 1080, id="6-root-and-line"),
        pytest.param(8, lambda M: [M.e(8), M.e(7)], 6720, id="8-2-6720"),
        # {alpha, -alpha}: 240 roots in the member orbit, two in each set
        pytest.param(
            8, lambda M: [M.simple_coroots[0], -M.simple_coroots[0]], 120, id="8-root-pair"
        ),
    ],
)
def test_orbit_of_set_matches_bfs_oracle(r, members, size):
    M = make_marked_lattice(r)
    vectors = members(M)
    got = orbit_of_set(vectors, M)
    assert len(got) == size
    assert got == bfs_orbit_of_set(vectors, M)


def test_orbit_of_set_cap_boundary():
    # raises iff the orbit is larger than max(cap, 1), reporting max(cap, 1) found
    M = make_marked_lattice(6)
    pair = [M.e(5), M.e(6)]
    for cap in (-3, 0, 1, 2, 215):
        limit = max(cap, 1)
        with pytest.raises(OrbitCapError) as exc:
            orbit_of_set(pair, M, cap=cap)
        assert (exc.value.cap, exc.value.partial_count) == (cap, limit)
        assert str(exc.value) == f"orbit exceeded cap of {cap} elements ({limit} found so far)"
    assert orbit_of_set(pair, M, cap=216) == bfs_orbit_of_set(pair, M)
    assert orbit_of_set([M.kappa], M, cap=0) == [(M.kappa,)]
    # 120 sets {beta, -beta} from 240 roots: the pre-check allows k = 2
    # member orbit elements per set, so only the closure meets cap 119
    M8 = make_marked_lattice(8)
    alpha = M8.simple_coroots[0]
    with pytest.raises(OrbitCapError) as exc:
        orbit_of_set([alpha, -alpha], M8, cap=119)
    assert (exc.value.cap, exc.value.partial_count) == (119, 119)
    assert str(exc.value) == "orbit exceeded cap of 119 elements (119 found so far)"
    assert len(orbit_of_set([alpha, -alpha], M8, cap=120)) == 120


def test_orbit_of_set_checks_the_member_orbit_before_any_search(monkeypatch):
    # the orbit of a regular vector is all of W(E8), over the default cap
    M = make_marked_lattice(8)

    def no_search(*args, **kwargs):
        raise AssertionError("orbit_of_set searched before checking its cap")

    monkeypatch.setattr(weyl, "closure", no_search)
    with pytest.raises(OrbitCapError) as exc:
        orbit_of_set([LatticeVector(10, (1, 2, 3, 4, 5, 6, 7, 8))], M)
    assert (exc.value.cap, exc.value.partial_count) == (10**7, 10**7)


@pytest.fixture
def collector_state():
    """Puts the cyclic collector back as it was, whatever the test leaves."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_orbit_leaves_the_collector_as_it_found_it(collector_state, enabled, monkeypatch):
    M6, M8 = make_marked_lattice(6), make_marked_lattice(8)
    (gc.enable if enabled else gc.disable)()
    states = []

    def images(q):
        states.append(gc.isenabled())
        return _sorted_images(q)

    monkeypatch.setattr(weyl, "_sorted_images", images)
    assert len(orbit(M6.e(6), M6)) == 27
    assert gc.isenabled() is enabled
    assert states and not any(states)  # the listing ran with the collector off
    with pytest.raises(OrbitCapError):
        orbit(dual_basis_lifts(M8)[1], M8, cap=1)
    assert gc.isenabled() is enabled
    with pytest.raises(DomainError):
        orbit(M6.e(6), M8)
    assert gc.isenabled() is enabled
    monkeypatch.setattr(weyl, "_orbit_size", lambda dom: 28)
    with pytest.raises(InternalError):
        orbit(M6.e(6), M6)
    assert gc.isenabled() is enabled


def test_orbit_vectors_match_constructed_ones():
    # orbit wraps in bulk through the slot setters, orbit_of_set one by one
    M6, M8 = make_marked_lattice(6), make_marked_lattice(8)
    listed = orbit(dual_basis_lifts(M6)[2], M6) + orbit(M8.e(8), M8)
    listed += [v for pair in orbit_of_set([M6.e(5), M6.e(6)], M6) for v in pair]
    assert len(listed) == 720 + 240 + 2 * 216
    assert wrap_mismatches(listed) == []


def test_orbit_invariant_under_conjugated_generators():
    # recomputing the orbit with w s_i w^-1 in place of s_i changes nothing
    M = make_marked_lattice(6)
    rng = random.Random(11)
    word = random_word(rng, 6, 8)
    rev = tuple(reversed(word))

    def conj_orbit(start):
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(1, 7):
                    w = apply_word(rev + (i,) + word, v, M)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return sorted(seen)

    assert conj_orbit(M.e(6)) == orbit(M.e(6), M)
    assert conj_orbit(M.simple_coroots[0]) == orbit(M.simple_coroots[0], M)


def test_orbit_of_set_lines():
    M = make_marked_lattice(6)
    pair = (M.e(5), M.e(6))
    fams = orbit_of_set(pair, M)
    assert len(fams) == 216
    assert all(len(s) == 2 for s in fams)


def test_is_dominant_and_representative():
    M = make_marked_lattice(6)
    for w in dual_basis_lifts(M):
        assert is_dominant(w, M)
    assert is_dominant(M.kappa, M)
    assert is_dominant(M.e(6), M)  # lift of the last chain node
    assert not is_dominant(M.e(1), M)

    rep, word = dominant_representative(M.e(1), M)
    assert is_dominant(rep, M)
    assert apply_word(word, M.e(1), M) == rep
    assert rep == M.e(6)  # the one dominant line class


@pytest.mark.parametrize("r", range(3, 9))
def test_dominant_representative_properties(r):
    M = make_marked_lattice(r)
    rng = random.Random(500 + r)
    for _ in range(150):
        v = random_vector(rng, r)
        rep, word = dominant_representative(v, M)
        assert is_dominant(rep, M)
        assert apply_word(word, v, M) == rep
        assert inner(rep, rep) == inner(v, v)
        assert degree(rep, M) == degree(v, M)
        # dominant inputs come back unchanged with the empty word
        rep2, word2 = dominant_representative(rep, M)
        assert rep2 == rep and word2 == ()


def test_dominant_root_is_minus_highest():
    # with pairings >= 0 as the convention, the dominant root
    # representative is the negative of the highest root
    from delpezzo import highest_root

    for r in range(4, 9):
        M = make_marked_lattice(r)
        rep, _ = dominant_representative(M.simple_coroots[0], M)
        assert rep == -highest_root(M).vector


def test_word_matrix_and_connect_markings():
    M = make_marked_lattice(6)
    ident = word_matrix((), M)
    assert connect_markings(ident, M) == ()
    assert connect_markings(word_matrix((1,), M), M) == (1,)

    rng = random.Random(12)
    for _ in range(60):
        word = random_word(rng, 6, 12)
        mat = word_matrix(word, M)
        back = connect_markings(mat, M)
        assert word_matrix(back, M) == mat


@pytest.mark.parametrize("r", range(3, 9))
def test_word_matrix_matches_column_reflections(r):
    """The row operations per letter give the matrix whose columns are the
    unit vectors reflected letter by letter, on seeded words."""
    M = make_marked_lattice(r)
    n = r + 1
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    rng = random.Random(700 + r)
    for word in [(), (r,), (r, r)] + [random_word(rng, r, 40) for _ in range(50)]:
        columns = [reduce(weyl._reflect, word, t) for t in units]
        assert word_matrix(word, M) == tuple(zip(*columns))


def test_connect_markings_rejects_bad_input():
    M = make_marked_lattice(6)
    ident = [list(row) for row in word_matrix((), M)]
    skew = [row[:] for row in ident]
    skew[0][0] = 2  # breaks the form
    with pytest.raises(DomainError):
        connect_markings(skew, M)
    flip = [[-x for x in row] for row in ident]  # isometry, moves kappa
    with pytest.raises(DomainError):
        connect_markings(flip, M)
    with pytest.raises(DomainError):
        connect_markings([[1]], M)


def test_connect_markings_error_texts_and_order():
    M = make_marked_lattice(6)
    ident = [list(row) for row in word_matrix((), M)]
    skew = [row[:] for row in ident]
    skew[0][0] = 2  # breaks the form and moves kappa: the form is checked first
    flip = [[-x for x in row] for row in ident]
    floats = [row[:] for row in skew]
    floats[1][5] = 2.5
    floats[3][3] = 1.0  # column 3 is read before column 5
    stretch = [row[:] for row in ident]
    stretch[6][6] = 2  # column r is 2e_r: only its own square breaks the form
    cases = [
        ([[1]], "matrix must be 7x7"),
        (skew, "matrix does not preserve the intersection form"),
        (stretch, "matrix does not preserve the intersection form"),
        (flip, "matrix does not fix kappa"),
        (floats, "vector coefficients must be integers, got 1.0"),
    ]
    for matrix, text in cases:
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            connect_markings(matrix, M)


def test_weyl_kernel_rejects_non_integer_coefficients():
    # The vectors are refused when built, before any Weyl call can see them.
    M = make_marked_lattice(6)
    with pytest.raises(DomainError, match="integers, got 1.5"):
        LatticeVector(1.5, (0,) * 6)
    with pytest.raises(DomainError, match=r"integers, got Fraction\(1, 1\)"):
        LatticeVector(1, (0,) * 5 + (Fraction(1),))
    ident = [list(row) for row in word_matrix((), M)]
    for bad in (1.0, Fraction(1)):
        entries = [row[:] for row in ident]
        entries[3][3] = bad
        with pytest.raises(DomainError):
            connect_markings(entries, M)


def test_format_word_round_trip_random():
    rng = random.Random(13)
    for _ in range(100):
        w = random_word(rng, 8, 15)
        assert parse_word(format_word(w)) == w
