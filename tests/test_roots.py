import random
from itertools import combinations

import pytest

from delpezzo import (
    ConfigurationError,
    DomainError,
    DynkinType,
    Root,
    cartan_matrix,
    double_sixes,
    dual_basis_lifts,
    dynkin_type,
    enumerate_roots,
    expand_in_simple,
    fundamental_weight_lift,
    highest_root,
    inner,
    is_minuscule,
    make_marked_lattice,
    parse_vector,
    positive_roots,
    root_height,
    root_system,
    vectors_of_type,
)
from delpezzo.roots import _determinant
from helpers import (
    DYNKIN_NAMES,
    ROOT_COUNTS,
    bfs_orbit,
    closed_form_highest_root,
    closed_form_positive_roots,
    descent_highest_root,
    exact_determinant,
    exact_rank,
    positive_roots_by_coordinates,
    shape_dynkin_type,
    simple_coroot_vectors,
)

RANKS = range(3, 9)


def test_root_validation():
    Root(parse_vector("e1-e2", 6))
    Root(parse_vector("2h-e1-e2-e3-e4-e5-e6", 6))
    with pytest.raises(DomainError):
        Root(parse_vector("e1", 6))  # square -1
    with pytest.raises(DomainError):
        Root(parse_vector("h-e1", 6))  # degree 2


@pytest.mark.parametrize("r", RANKS)
def test_root_counts(r):
    roots = enumerate_roots(make_marked_lattice(r))
    assert len(roots) == ROOT_COUNTS[r]
    assert len(set(roots)) == len(roots)
    vectors = [x.vector for x in roots]
    assert vectors == sorted(vectors)


@pytest.mark.parametrize("r", RANKS)
def test_positive_roots_match_the_coordinate_filter(r):
    M = make_marked_lattice(r)
    assert positive_roots(M) == positive_roots_by_coordinates(M)


@pytest.mark.parametrize("r", RANKS)
def test_positive_roots_match_closed_families(r):
    M = make_marked_lattice(r)
    pos = {x.vector for x in positive_roots(M)}
    assert pos == closed_form_positive_roots(r)
    assert len(pos) == ROOT_COUNTS[r] // 2
    # negatives fill out the rest
    assert pos | {-v for v in pos} == {x.vector for x in enumerate_roots(M)}


@pytest.mark.parametrize("r", range(4, 9))
def test_highest_root(r):
    M = make_marked_lattice(r)
    top = highest_root(M)
    assert top.vector == closed_form_highest_root(r)
    assert top == descent_highest_root(M)
    heights = {x: root_height(x, M) for x in positive_roots(M)}
    best = max(heights.values())
    assert heights[top] == best
    assert sum(1 for v in heights.values() if v == best) == 1
    # dominates every positive root coordinatewise
    top_coords = expand_in_simple(top, M)
    for x in positive_roots(M):
        assert all(a <= b for a, b in zip(expand_in_simple(x, M), top_coords))


def test_no_highest_root_in_rank_3():
    with pytest.raises(
        DomainError, match=r"^rank 3 gives the non-simple system A1\+A2; no highest root$"
    ):
        highest_root(make_marked_lattice(3))


@pytest.mark.parametrize("r", RANKS)
def test_root_lists_match_the_per_call_walk(r):
    M = make_marked_lattice(r)
    walked = [Root(v) for v in vectors_of_type(M, -2, 0)]
    assert enumerate_roots(M) == walked
    assert positive_roots(M) == walked[len(walked) // 2 :]


@pytest.mark.parametrize("r", RANKS)
def test_root_lists_are_fresh(r):
    M = make_marked_lattice(r)
    enumerate_roots(M).clear()
    positive_roots(M).clear()
    assert len(enumerate_roots(M)) == len(root_system(M).all_roots) == ROOT_COUNTS[r]
    assert len(positive_roots(M)) == ROOT_COUNTS[r] // 2


def test_roots_are_walked_once_per_lattice(monkeypatch):
    walks = []

    def counting(lattice, norm, deg):
        walks.append((lattice.r, norm, deg))
        return vectors_of_type(lattice, norm, deg)

    monkeypatch.setattr("delpezzo.roots.vectors_of_type", counting)
    root_system.cache_clear()
    M = make_marked_lattice(6)
    for _ in range(2):
        enumerate_roots(M)
        positive_roots(M)
        highest_root(M)
        cartan_matrix(M)
        is_minuscule(fundamental_weight_lift(M, 1), M)
        double_sixes(M)
    assert walks == [(6, -2, 0)]


def test_expand_examples():
    M = make_marked_lattice(6)
    assert expand_in_simple(M.simple_coroots[0], M) == (1, 0, 0, 0, 0, 0)
    # e1 - e3 = alpha_1 + alpha_2
    assert expand_in_simple(M.e(1) - M.e(3), M) == (1, 1, 0, 0, 0, 0)
    top = highest_root(M)
    assert expand_in_simple(top, M) == (1, 2, 3, 2, 1, 2)
    assert root_height(top, M) == 11


@pytest.mark.parametrize("r", RANKS)
def test_cartan_matrix(r):
    M = make_marked_lattice(r)
    C = cartan_matrix(M)
    for i in range(r):
        assert C[i][i] == 2
        for j in range(r):
            assert C[i][j] == C[j][i]
            if i != j:
                assert C[i][j] in (0, -1)
    assert exact_determinant([list(row) for row in C]) == 9 - r


def test_determinant_matches_cofactor_expansion():
    # Mostly-zero entries give zero leading minors, so Bareiss swaps rows and
    # meets columns with no pivot left (determinant 0).
    assert _determinant([[0, 1], [1, 0]]) == -1
    assert _determinant([[0, 1, 2], [0, 3, 4], [0, 6, 7]]) == 0
    rng = random.Random(179)
    for _ in range(400):
        size = rng.randint(1, 6)
        m = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(size)] for _ in range(size)]
        assert _determinant([row[:] for row in m]) == exact_determinant(m)


@pytest.mark.parametrize("r", RANKS)
def test_dynkin_of_simple_coroots(r):
    assert str(dynkin_type(make_marked_lattice(r).simple_coroots)) == DYNKIN_NAMES[r]


WEYL_ORDERS = {3: 12, 4: 120, 5: 1_920, 6: 51_840, 7: 2_903_040, 8: 696_729_600}


@pytest.mark.parametrize("r", RANKS)
def test_weyl_group_orders(r):
    assert root_system(make_marked_lattice(r)).dynkin.weyl_order == WEYL_ORDERS[r]


@pytest.mark.parametrize("r", [3, 4, 5])
def test_weyl_order_is_regular_orbit_size(r):
    # a strictly dominant weight has trivial stabilizer
    M = make_marked_lattice(r)
    regular = sum(dual_basis_lifts(M)[1:], dual_basis_lifts(M)[0])
    assert len(bfs_orbit(regular, M)) == dynkin_type(M.simple_coroots).weyl_order


def test_weyl_order_multiplies_over_components():
    assert DynkinType(()).weyl_order == 1
    assert DynkinType((("A", 1), ("A", 1), ("A", 2))).weyl_order == 2 * 2 * 6
    assert DynkinType((("D", 4),)).weyl_order == 192
    assert DynkinType((("A", 2), ("E", 6))).weyl_order == 6 * 51_840


def test_dynkin_values():
    assert dynkin_type([]) == DynkinType(())
    assert str(dynkin_type([])) == "trivial"
    M = make_marked_lattice(6)
    a = M.e(1) - M.e(2)
    b = M.e(3) - M.e(4)
    c = M.e(4) - M.e(5)
    assert str(dynkin_type([a])) == "A1"
    assert str(dynkin_type([a, b])) == "A1+A1"
    assert str(dynkin_type([a, b, c])) == "A1+A2"
    d4 = [M.e(2) - M.e(3), M.e(3) - M.e(4), M.e(4) - M.e(5),
          M.h - M.e(1) - M.e(2) - M.e(3)]
    assert str(dynkin_type(d4)) == "D4"
    assert dynkin_type(d4).rank == 4
    assert dynkin_type(map(Root, d4)) == dynkin_type(d4)
    assert dynkin_type([Root(a), b, Root(c)]) == dynkin_type([a, b, c])


def test_dynkin_rejects_negative_pairing():
    M = make_marked_lattice(6)
    pair = [M.e(1) - M.e(2), M.e(3) - M.e(2)]
    assert inner(pair[0], pair[1]) == -1
    with pytest.raises(ConfigurationError) as exc:
        dynkin_type(pair)
    msg = str(exc.value)
    assert "e1-e2" in msg and "-e2+e3" in msg and "-1" in msg


def test_dynkin_rejects_dependence_and_nonroots():
    M = make_marked_lattice(6)
    a = M.e(1) - M.e(2)
    with pytest.raises(ConfigurationError):
        dynkin_type([a, a])
    with pytest.raises(ConfigurationError):
        dynkin_type([M.e(1)])


def test_dynkin_rejects_pairing_triangle():
    # any +1 triangle sums to zero, so it trips the dependence check
    M = make_marked_lattice(6)
    a = M.e(1) - M.e(2)
    b = M.e(2) - M.e(3)
    c = M.e(3) - M.e(1)
    assert inner(a, b) == inner(b, c) == inner(a, c) == 1
    assert (a + b + c).is_zero()
    with pytest.raises(ConfigurationError):
        dynkin_type([a, b, c])


def _greedy_root_sets(r):
    """400 greedy random root sets with pairings in {0, 1}, up to r + 1 roots."""
    rng = random.Random(600 + r)
    roots = [root.vector for root in enumerate_roots(make_marked_lattice(r))]
    for _ in range(400):
        size = rng.randint(1, r + 1)
        vecs = []
        for v in rng.sample(roots, len(roots)):
            if all(inner(v, u) in (0, 1) for u in vecs):
                vecs.append(v)
                if len(vecs) == size:
                    break
        yield vecs


@pytest.mark.parametrize("r", range(6, 9))
def test_dynkin_dependence_matches_exact_rank(r):
    outcomes = {True: 0, False: 0}
    for vecs in _greedy_root_sets(r):
        dependent = exact_rank(vecs) < len(vecs)
        outcomes[dependent] += 1
        if dependent:
            with pytest.raises(ConfigurationError, match=r"^roots are linearly dependent$"):
                dynkin_type(vecs)
        else:
            assert dynkin_type(vecs).rank == len(vecs)
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("r", range(4, 9))
def test_dynkin_rejects_affine_diagrams(r):
    # The simple coroots with the lowest root: affine A4, D5, E6, E7, E8.
    M = make_marked_lattice(r)
    extended = [*M.simple_coroots, -highest_root(M).vector]
    assert all(inner(extended[-1], a) in (0, 1) for a in M.simple_coroots)
    with pytest.raises(ConfigurationError, match=r"^roots are linearly dependent$"):
        dynkin_type(extended)


def _type_or_error(classify, vecs):
    try:
        return classify(vecs)
    except (ConfigurationError, DomainError) as exc:
        return type(exc), str(exc)


def _subsets(vecs):
    return (list(s) for n in range(len(vecs) + 1) for s in combinations(vecs, n))


@pytest.mark.parametrize("r", range(3, 12))
def test_dynkin_type_matches_the_shape_oracle(r):
    # Every subset of the simple coroots (r >= 9 too, where kappa-perp is not
    # negative definite); with the lowest root for r = 4..8, which holds
    # every affine diagram; and the greedy sets of the exact-rank test.
    coroots = simple_coroot_vectors(r)
    sets = list(_subsets(coroots))
    if r <= 8:
        M = make_marked_lattice(r)
        assert coroots == list(M.simple_coroots)
        if r >= 4:
            sets += [s + [-highest_root(M).vector] for s in _subsets(coroots)]
        if r >= 6:
            sets += _greedy_root_sets(r)
    dependent = (ConfigurationError, "roots are linearly dependent")
    outcomes = []
    for vecs in sets:
        outcomes.append(_type_or_error(dynkin_type, vecs))
        assert outcomes[-1] == _type_or_error(shape_dynkin_type, vecs), vecs
    assert (dependent in outcomes) == (r > 3)
    if r >= 9:  # T_{2,3,r-3}: affine E8 (det 0), then det 9 - r < 0
        assert _type_or_error(dynkin_type, coroots) == dependent


def test_dynkin_pairing_error_comes_before_a_rank_mismatch():
    # The pairs are checked in order, so (0, 1) is reported before the
    # rank-7 root reaches a pairing.
    M = make_marked_lattice(6)
    vecs = [M.e(1) - M.e(2), M.e(3) - M.e(2), make_marked_lattice(7).simple_coroots[0]]
    message = r"^pairing <e1-e2, -e2\+e3> = -1 is outside \{0, 1\}$"
    with pytest.raises(ConfigurationError, match=message):
        dynkin_type(vecs)
    with pytest.raises(DomainError, match="rank mismatch"):
        dynkin_type(vecs[::2])


@pytest.mark.parametrize("r", RANKS)
def test_root_system_aggregate(r):
    M = make_marked_lattice(r)
    data = root_system(M)
    assert len(data.all_roots) == ROOT_COUNTS[r]
    assert len(data.positive) == ROOT_COUNTS[r] // 2
    assert str(data.dynkin) == DYNKIN_NAMES[r]
    assert data.cartan == cartan_matrix(M)
    if r == 3:
        assert data.highest is None
    else:
        assert data.highest == highest_root(M)
