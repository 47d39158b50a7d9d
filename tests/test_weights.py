import pytest

from delpezzo import (
    DomainError,
    adjoint_weight_system,
    apply_word,
    central_character,
    coplanar_triples,
    cubic_form_support,
    degree,
    dual_basis_lifts,
    dual_partner,
    fundamental_weight_lift,
    highest_root,
    is_minuscule,
    make_marked_lattice,
    orbit,
    weight_evaluations,
)
from helpers import ROOT_COUNTS, set_and_sort_triples

RANKS = range(3, 9)

MINUSCULE = {3: {1, 2, 3}, 4: {1, 2, 3, 4}, 5: {1, 4, 5}, 6: {1, 5}, 7: {6}, 8: set()}
ORBIT_DIMS = {
    (4, 1): 5, (4, 2): 10, (4, 3): 10, (4, 4): 5,
    (5, 1): 10, (5, 4): 16, (5, 5): 16,
    (6, 1): 27, (6, 5): 27,
    (7, 6): 56,
}
DUALS = {
    4: {1: (4, 1), 2: (3, 1), 3: (2, 1), 4: (1, 1)},
    5: {1: (1, 1), 2: (2, 2), 3: (3, 1), 4: (5, 1), 5: (4, 1)},
    6: {1: (5, 1), 2: (4, 2), 3: (3, 2), 4: (2, 2), 5: (1, 1), 6: (6, 2)},
}


@pytest.mark.parametrize("r", RANKS)
def test_fundamental_lifts_are_dual_basis(r):
    M = make_marked_lattice(r)
    for i in range(1, r + 1):
        lift = fundamental_weight_lift(M, i)
        assert lift.index == i
        evals = weight_evaluations(lift, M)
        assert evals == tuple(1 if j == i - 1 else 0 for j in range(r))
    with pytest.raises(DomainError):
        fundamental_weight_lift(M, 0)
    with pytest.raises(DomainError):
        fundamental_weight_lift(M, r + 1)


def test_lift_shapes_r6():
    M = make_marked_lattice(6)
    assert fundamental_weight_lift(M, 1).vector == M.h - M.e(1)
    assert fundamental_weight_lift(M, 2).vector == 2 * M.h - M.e(1) - M.e(2)
    assert fundamental_weight_lift(M, 3).vector == M.e(4) + M.e(5) + M.e(6)
    assert fundamental_weight_lift(M, 5).vector == M.e(6)
    assert fundamental_weight_lift(M, 6).vector == M.h


def test_evaluations_ignore_kappa_shift():
    M = make_marked_lattice(6)
    v = M.h - M.e(1)
    assert weight_evaluations(v, M) == weight_evaluations(v + 2 * M.kappa, M)


@pytest.mark.parametrize("r", RANKS)
def test_minuscule_classification(r):
    M = make_marked_lattice(r)
    got = {
        i
        for i in range(1, r + 1)
        if is_minuscule(fundamental_weight_lift(M, i), M)
    }
    assert got == MINUSCULE[r]


def test_minuscule_requires_dominant():
    M = make_marked_lattice(6)
    with pytest.raises(DomainError):
        is_minuscule(-fundamental_weight_lift(M, 1).vector, M)


def test_minuscule_orbit_dimensions():
    for (r, i), dim in ORBIT_DIMS.items():
        M = make_marked_lattice(r)
        assert len(orbit(fundamental_weight_lift(M, i).vector, M)) == dim


@pytest.mark.parametrize("r", range(4, 9))
def test_adjoint_weight_system(r):
    M = make_marked_lattice(r)
    system = adjoint_weight_system(M)
    assert system.dimension == ROOT_COUNTS[r] + r
    assert sum(m for _, m in system.entries) == system.dimension
    mults = {m for _, m in system.entries}
    assert mults == {1, r}
    # highest weight is kappa - (highest root), normalized to degree 0
    top = system.highest
    assert top == -highest_root(M).vector
    assert degree(top, M) == 0
    evals = weight_evaluations(top, M)
    if r == 4:
        assert evals == (1, 0, 0, 1)  # the one non-fundamental case
    else:
        assert sorted(evals) == [0] * (r - 1) + [1]


def test_adjoint_requires_irreducible():
    with pytest.raises(DomainError):
        adjoint_weight_system(make_marked_lattice(3))


def test_adjoint_node_per_rank():
    # which fundamental weight carries the adjoint representation
    expected = {5: 2, 6: 6, 7: 1, 8: 7}
    for r, node in expected.items():
        M = make_marked_lattice(r)
        evals = weight_evaluations(adjoint_weight_system(M).highest, M)
        assert evals == tuple(1 if j == node - 1 else 0 for j in range(r))


def test_kappa_minus_highest_root_r4():
    # rank 4 is the outlier: kappa - (highest root) = 2h - e1, which
    # evaluates as the sum of the first and last fundamental weights
    M = make_marked_lattice(4)
    v = M.kappa - highest_root(M).vector
    assert v == 2 * M.h - M.e(1)
    assert weight_evaluations(v, M) == (1, 0, 0, 1)


@pytest.mark.parametrize("r", range(5, 9))
def test_kappa_minus_highest_root_is_fundamental(r):
    M = make_marked_lattice(r)
    node = {5: 2, 6: 6, 7: 1, 8: 7}[r]
    v = M.kappa - highest_root(M).vector
    assert v == fundamental_weight_lift(M, node).vector


@pytest.mark.parametrize("r", [4, 5, 6])
def test_dual_partners_table(r):
    M = make_marked_lattice(r)
    for i, (j, n) in DUALS[r].items():
        got = dual_partner(i, M)
        assert got.index == i
        assert got.partner == j
        assert got.multiple == n
        wi = fundamental_weight_lift(M, i).vector
        wj = fundamental_weight_lift(M, j).vector
        assert wi + apply_word(got.word, wj, M) == n * M.kappa


@pytest.mark.parametrize("r", [7, 8])
def test_dual_partners_self_dual(r):
    M = make_marked_lattice(r)
    for i in range(1, r + 1):
        got = dual_partner(i, M)
        assert got.partner == i
        assert got.multiple > 0
        wi = fundamental_weight_lift(M, i).vector
        assert wi + apply_word(got.word, wi, M) == got.multiple * M.kappa


@pytest.mark.parametrize("r", RANKS)
def test_duality_is_an_involution(r):
    M = make_marked_lattice(r)
    for i in range(1, r + 1):
        j = dual_partner(i, M).partner
        assert dual_partner(j, M).partner == i


@pytest.mark.parametrize("i", [0, 7])
def test_dual_partner_index_outside_range(i):
    with pytest.raises(DomainError) as exc:
        dual_partner(i, make_marked_lattice(6))
    assert str(exc.value) == f"fundamental index {i} outside 1..6"


def test_cubic_form_support_matches_triples():
    M = make_marked_lattice(6)
    support = cubic_form_support(M)
    assert len(support) == 45
    assert set(support) == set(coplanar_triples(M))
    with pytest.raises(DomainError):
        cubic_form_support(make_marked_lattice(5))


def test_cubic_form_support_matches_set_oracle():
    M = make_marked_lattice(6)
    weights = orbit(dual_basis_lifts(M)[4], M)
    assert cubic_form_support(M) == set_and_sort_triples(weights, M.kappa)


def test_central_characters():
    M = make_marked_lattice(6)
    assert central_character(M.e(6), M) == 1
    assert central_character(M.kappa, M) == 0
    assert central_character(M.h, M) == 0
    assert central_character(M.h - M.e(1), M) == 2
    assert central_character(fundamental_weight_lift(M, 2), M) == 1
    for i in range(1, 7):
        lift = fundamental_weight_lift(M, i)
        assert central_character(lift, M) == degree(lift.vector, M) % 3
