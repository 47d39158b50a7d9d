import copy
import pickle
import random
import sys
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product

import pytest

from delpezzo import (
    DomainError,
    LatticeVector,
    MarkedLattice,
    TorsionPoint,
    anticanonical,
    apply_word,
    basis_e,
    basis_h,
    degree,
    discriminant_data,
    disjoint_line_sets,
    dual_basis_lifts,
    dual_partner,
    euler_char,
    expand_in_simple,
    fundamental_weight_lift,
    inner,
    lift_character,
    lift_weight,
    make_marked_lattice,
    make_period,
    orbit,
    orbit_of_set,
    parse_vector,
    vectors_of_type,
    weyl_canonicalize,
    word_matrix,
    zero_vector,
)
from delpezzo.lattice import (
    _form,
    _pairing_masks,
    _symbols,
    _term,
    _texts_of_type,
    _tuples_of_type,
    _values,
    _vector,
    _walk,
)
from helpers import LINE_COUNTS, brute_force_classes, format_tuples, recursive_tuples_of_type

RANKS = range(3, 9)
M6 = make_marked_lattice(6)
MARKING_MESSAGE = "kappa and simple coroots must be make_marked_lattice({})'s"


@pytest.mark.parametrize("r", RANKS)
def test_marked_lattice_basics(r):
    M = make_marked_lattice(r)
    assert M.r == r
    assert M.d == 9 - r
    assert inner(M.h, M.h) == 1
    for i in range(1, r + 1):
        assert inner(M.e(i), M.e(i)) == -1
        assert inner(M.h, M.e(i)) == 0
    assert M.kappa == anticanonical(r)
    assert inner(M.kappa, M.kappa) == 9 - r
    assert degree(M.kappa, M) == 9 - r


def test_rank_bounds():
    with pytest.raises(DomainError):
        make_marked_lattice(2)
    with pytest.raises(DomainError):
        make_marked_lattice(9)


@pytest.mark.parametrize(
    "args,message",
    [
        # reversed coroots broke cartan_matrix with an AssertionError, and
        # weight_evaluations read them while orbit used the standard ones
        ((6, M6.kappa, M6.simple_coroots[::-1]), MARKING_MESSAGE.format(6)),
        ((6, 2 * M6.kappa, M6.simple_coroots), MARKING_MESSAGE.format(6)),
        ((5, M6.kappa, M6.simple_coroots), MARKING_MESSAGE.format(5)),
        ((6, M6.kappa, list(M6.simple_coroots)), MARKING_MESSAGE.format(6)),
        ((9, anticanonical(9), ()), "rank r must be an integer in 3..8, got 9"),
        ((6.0, M6.kappa, M6.simple_coroots), "rank r must be an integer in 3..8, got 6.0"),
    ],
)
def test_marked_lattice_rejects_any_other_marking(args, message):
    with pytest.raises(DomainError) as info:
        MarkedLattice(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("r", RANKS)
def test_marked_lattice_built_by_hand_equals_the_standard_one(r):
    M = make_marked_lattice(r)
    B = MarkedLattice(r, M.kappa, M.simple_coroots)
    assert B == M and hash(B) == hash(M) and repr(B) == repr(M)


@pytest.mark.parametrize("bad", [-1, 2.0, "6", None])
def test_vector_builders_reject_a_bad_rank(bad):
    message = f"rank r must be a non-negative integer, got {bad!r}"
    builders = [zero_vector, basis_h, anticanonical, lambda r: basis_e(r, 1)]
    builders += [lambda r: parse_vector("h", r), lambda r: parse_vector("0", r)]
    for build in builders:
        with pytest.raises(DomainError) as info:
            build(bad)
        assert str(info.value) == message
    # ranks outside 3..8 stay allowed for vectors; only lattices need 3..8
    assert zero_vector(0) == LatticeVector(0, ())
    assert parse_vector("h-e12", 12) == basis_h(12) - basis_e(12, 12)


@pytest.mark.parametrize("r", RANKS)
def test_simple_coroots(r):
    M = make_marked_lattice(r)
    assert len(M.simple_coroots) == r
    for a in M.simple_coroots:
        assert inner(a, a) == -2
        assert degree(a, M) == 0
    # last coroot is the non-chain node
    assert M.simple_coroots[-1] == M.h - M.e(1) - M.e(2) - M.e(3)
    for i in range(r - 1):
        assert M.simple_coroots[i] == M.e(i + 1) - M.e(i + 2)


def test_inner_is_signature_1_r():
    M = make_marked_lattice(6)
    v = LatticeVector(2, (1, 0, -1, 3, 0, 1))
    w = LatticeVector(1, (1, 1, 1, 0, 0, 0))
    assert inner(v, w) == 2 * 1 - (1 + 0 - 1 + 0 + 0 + 0)
    with pytest.raises(DomainError):
        inner(v, basis_h(5))


def test_vector_arithmetic():
    v = LatticeVector(1, (2, -1, 0))
    w = LatticeVector(0, (1, 1, 1))
    assert v + w == LatticeVector(1, (3, 0, 1))
    assert v - w == LatticeVector(1, (1, -2, -1))
    assert -v == LatticeVector(-1, (-2, 1, 0))
    assert 3 * v == LatticeVector(3, (6, -3, 0))
    assert v * 3 == 3 * v
    assert zero_vector(3).is_zero()
    with pytest.raises(DomainError):
        v + LatticeVector(1, (0, 0, 0, 0))


@pytest.mark.parametrize("bad", [1.5, 1.0, Fraction(1)])
def test_vector_constructor_rejects_inexact_coefficients(bad):
    message = f"vector coefficients must be integers, got {bad!r}"
    for h, e in ((bad, (0,) * 6), (0, (0, 0, bad, 0, 0, 0))):
        with pytest.raises(DomainError) as exc:
            LatticeVector(h, e)
        assert str(exc.value) == message


def test_vector_constructor_accepts_bools():
    v = LatticeVector(True, (False, 2))
    assert v == LatticeVector(1, (0, 2))
    # stored as plain ints, so coeffs() and repr show 1 and 0, not True and False
    assert all(type(c) is int for c in v.coeffs())
    assert repr(v) == "LatticeVector(coeff_h=1, coeff_e=(0, 2))"


@pytest.mark.parametrize(
    "coeff_e, kind", [([0] * 6, "list"), ((0 for _ in range(6)), "generator")]
)
def test_vector_constructor_rejects_non_tuple_container(coeff_e, kind):
    with pytest.raises(DomainError) as exc:
        LatticeVector(1, coeff_e)
    assert str(exc.value) == f"coeff_e must be a tuple, got {kind}"


def test_vectors_are_slotted_and_copy_and_pickle_whole():
    # frozen slotted dataclasses had copy and pickle bugs on some 3.10 releases
    vectors = [anticanonical(8), LatticeVector(-2, (5, 0, -1)), _vector((1, 2, -3)), zero_vector(0)]
    for v in vectors:
        copies = [copy.copy(v), copy.deepcopy(v)]
        copies += [pickle.loads(pickle.dumps(v, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for w in copies:
            assert type(w) is LatticeVector
            assert w == v and hash(w) == hash(v)
            assert w.coeffs() == v.coeffs()
        assert not hasattr(v, "__dict__")
        with pytest.raises(FrozenInstanceError):
            v.coeff_h = 7
        with pytest.raises(FrozenInstanceError):
            v.coeff_e = ()
        with pytest.raises(FrozenInstanceError, match=r"^cannot assign to field 'label'$"):
            v.label = "x"
        assert not hasattr(v, "label")
        with pytest.raises(FrozenInstanceError, match=r"^cannot delete field 'label'$"):
            del v.label
        with pytest.raises(FrozenInstanceError, match=r"^cannot delete field 'coeff_h'$"):
            del v.coeff_h
        assert v.coeffs() == copies[0].coeffs()


# LatticeVector(-2, (5, 0, -1)) pickled at protocols 0-5 by commit 1b2e984,
# when LatticeVector was a slots=True dataclass whose state was the list
# [coeff_h, coeff_e]; the class now keeps the pair as a tuple.
OLD_PICKLES = [
    b"ccopy_reg\n_reconstructor\np0\n(cdelpezzo.lattice\nLatticeVector\np1\nc__builtin__\n"
    b"object\np2\nNtp3\nRp4\n(lp5\nI-2\na(I5\nI0\nI-1\ntp6\nab.",
    b"ccopy_reg\n_reconstructor\nq\x00(cdelpezzo.lattice\nLatticeVector\nq\x01c__builtin__\n"
    b"object\nq\x02Ntq\x03Rq\x04]q\x05(J\xfe\xff\xff\xff(K\x05K\x00J\xff\xff\xff\xfftq\x06eb.",
    b"\x80\x02cdelpezzo.lattice\nLatticeVector\nq\x00)\x81q\x01]q\x02(J\xfe\xff\xff\xff"
    b"K\x05K\x00J\xff\xff\xff\xff\x87q\x03eb.",
    b"\x80\x03cdelpezzo.lattice\nLatticeVector\nq\x00)\x81q\x01]q\x02(J\xfe\xff\xff\xff"
    b"K\x05K\x00J\xff\xff\xff\xff\x87q\x03eb.",
    b"\x80\x04\x95>\x00\x00\x00\x00\x00\x00\x00\x8c\x10delpezzo.lattice\x94\x8c\rLatticeVector"
    b"\x94\x93\x94)\x81\x94]\x94(J\xfe\xff\xff\xffK\x05K\x00J\xff\xff\xff\xff\x87\x94eb.",
    b"\x80\x05\x95>\x00\x00\x00\x00\x00\x00\x00\x8c\x10delpezzo.lattice\x94\x8c\rLatticeVector"
    b"\x94\x93\x94)\x81\x94]\x94(J\xfe\xff\xff\xffK\x05K\x00J\xff\xff\xff\xff\x87\x94eb.",
]


def test_pickles_of_the_slots_true_class_still_load():
    v = LatticeVector(-2, (5, 0, -1))
    for protocol, data in enumerate(OLD_PICKLES):
        assert protocol < 2 or data[:2] == bytes((0x80, protocol))
        w = pickle.loads(data)
        assert type(w) is LatticeVector
        assert w == v and hash(w) == hash(v) and w.coeffs() == (-2, 5, 0, -1)
        assert type(w.coeff_e) is tuple and not hasattr(w, "__dict__")


def test_scalar_product_needs_an_int():
    M = make_marked_lattice(6)
    with pytest.raises(TypeError):
        M.h * 1.5
    with pytest.raises(TypeError):
        1.5 * M.h


def test_basis_index_outside_range():
    with pytest.raises(DomainError, match=r"basis index e7 outside 1\.\.6"):
        basis_e(6, 7)
    with pytest.raises(DomainError):
        basis_e(6, 0)
    with pytest.raises(DomainError, match=r"basis index e1\.5 outside 1\.\.6"):
        basis_e(6, 1.5)


def test_tuple_form_matches_plain_loop():
    rng = random.Random(21)
    for _ in range(500):
        r = rng.randint(3, 9)
        t, u = ([rng.randint(-9, 9) for _ in range(r + 1)] for _ in range(2))
        plain = t[0] * u[0]
        for i in range(1, r + 1):
            plain -= t[i] * u[i]
        assert _form(tuple(t), tuple(u)) == plain


@pytest.mark.parametrize("r", RANKS)
def test_dual_basis_lifts_pair_to_identity(r):
    M = make_marked_lattice(r)
    lifts = dual_basis_lifts(M)
    assert len(lifts) == r
    for i, w in enumerate(lifts):
        for j, a in enumerate(M.simple_coroots):
            assert inner(w, a) == (1 if i == j else 0)


def test_dual_basis_lift_shapes():
    M = make_marked_lattice(7)
    lifts = dual_basis_lifts(M)
    assert lifts[0] == M.h - M.e(1)
    assert lifts[1] == 2 * M.h - M.e(1) - M.e(2)
    assert lifts[2] == M.e(4) + M.e(5) + M.e(6) + M.e(7)
    assert lifts[5] == M.e(7)
    assert lifts[6] == M.h


@pytest.mark.parametrize("r", RANKS)
def test_discriminant_data(r):
    M = make_marked_lattice(r)
    data = discriminant_data(M)
    d = 9 - r
    assert data.d == d
    assert data.mu == M.e(r)
    # mu2 = e_r - kappa/d, exact
    expected = [Fraction(-3, d)] + [Fraction(1, d)] * r
    expected[r] += 1
    assert list(data.mu2) == expected
    assert data.order() == (1 if r == 8 else d)


def _solve_for_lift(a, psi, M):
    """Independent oracle: solve <x,kappa>=a, <x,alpha_i>=psi_i exactly.

    The r+1 constraints pin x uniquely over Q; an integral lift exists
    iff that unique rational solution is integral.
    """
    r = M.r
    rows = []
    rhs = []
    for target, value in [(M.kappa, a)] + list(zip(M.simple_coroots, psi)):
        c = target.coeffs()
        rows.append([Fraction(c[0])] + [Fraction(-x) for x in c[1:]])
        rhs.append(Fraction(value))
    n = r + 1
    for col in range(n):
        piv = next(k for k in range(col, n) if rows[k][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        rhs[col] *= inv
        for k in range(n):
            if k != col and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[col])]
                rhs[k] -= f * rhs[col]
    sol = rhs
    if all(x.denominator == 1 for x in sol):
        return LatticeVector(int(sol[0]), tuple(int(x) for x in sol[1:]))
    return None


@pytest.mark.parametrize("r", [3, 4, 5])
def test_lift_character_matches_linear_algebra(r):
    M = make_marked_lattice(r)
    rng = random.Random(100 + r)
    hits = 0
    for _ in range(200):
        a = rng.randint(-6, 6)
        psi = tuple(rng.randint(-3, 3) for _ in range(r))
        got = lift_character(a, psi, M)
        want = _solve_for_lift(a, psi, M)
        assert got == want
        if got is not None:
            hits += 1
            assert degree(got, M) == a
            assert [inner(got, al) for al in M.simple_coroots] == list(psi)
    assert hits > 0


@pytest.mark.parametrize("r", RANKS)
def test_lift_character_congruence(r):
    M = make_marked_lattice(r)
    d = 9 - r
    rng = random.Random(200 + r)
    for _ in range(100):
        a = rng.randint(-8, 8)
        psi = tuple(rng.randint(-3, 3) for _ in range(r))
        base = zero_vector(r)
        for c, w in zip(psi, dual_basis_lifts(M)):
            base = base + c * w
        exists = (a - degree(base, M)) % d == 0
        assert (lift_character(a, psi, M) is not None) == exists


def test_lift_character_examples():
    M = make_marked_lattice(6)
    psi = (0, 0, 0, 0, 1, 0)
    assert lift_character(1, psi, M) == M.e(6)
    assert lift_character(0, psi, M) is None
    assert lift_character(0, (0,) * 6, M) == zero_vector(6)
    assert lift_character(1, (0,) * 6, M) is None
    assert lift_character(3, (0,) * 6, M) == M.kappa


@pytest.mark.parametrize("r", RANKS)
def test_lift_weight_normalization(r):
    M = make_marked_lattice(r)
    d = 9 - r
    rng = random.Random(300 + r)
    for _ in range(60):
        psi = tuple(rng.randint(-3, 3) for _ in range(r))
        v = lift_weight(psi, M)
        assert 0 <= degree(v, M) < d
        assert [inner(v, al) for al in M.simple_coroots] == list(psi)


def test_lift_weight_last_node():
    # the degree-3 lift h gets shifted down by kappa
    M = make_marked_lattice(6)
    psi = (0, 0, 0, 0, 0, 1)
    assert lift_weight(psi, M) == M.h - M.kappa


@pytest.mark.parametrize("psi", [(0,) * 5, (0,) * 7])
def test_lifts_reject_wrong_length_psi(psi):
    M = make_marked_lattice(6)
    message = f"psi must have 6 entries, got {len(psi)}"
    with pytest.raises(DomainError) as exc:
        lift_character(0, psi, M)
    assert str(exc.value) == message
    with pytest.raises(DomainError) as exc:
        lift_weight(psi, M)
    assert str(exc.value) == message


NON_INT_ENTRY_POINTS = {
    "basis_e": lambda x: basis_e(6, x),
    "MarkedLattice.e": lambda x: M6.e(x),
    "disjoint_line_sets": lambda x: disjoint_line_sets(M6, x),
    "fundamental_weight_lift": lambda x: fundamental_weight_lift(M6, x),
    "dual_partner": lambda x: dual_partner(x, M6),
    "apply_word": lambda x: apply_word([x], M6.h, M6),
    "word_matrix": lambda x: word_matrix([x], M6),
    "vectors_of_type norm": lambda x: vectors_of_type(M6, -x, 1),
    "vectors_of_type degree": lambda x: vectors_of_type(M6, -1, x),
    "lift_weight": lambda x: lift_weight((x, 0, 0, 0, 0, 0), M6),
    "lift_character": lambda x: lift_character(1, (0, 0, 0, 0, 0, x), M6),
    "lift_character degree": lambda x: lift_character(x, (0,) * 6, M6),
    "orbit cap": lambda x: orbit(M6.h, M6, cap=x),
    "orbit_of_set cap": lambda x: orbit_of_set([M6.h], M6, cap=x),
    "weyl_canonicalize cap": lambda x: weyl_canonicalize(
        make_period([TorsionPoint.zero()] * 7), M6, cap=x
    ),
}


@pytest.mark.parametrize("value", [1.5, 2.0])
@pytest.mark.parametrize("entry", sorted(NON_INT_ENTRY_POINTS))
def test_float_arguments_raise_domain_error(entry, value):
    with pytest.raises(DomainError):
        NON_INT_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", sorted(e for e in NON_INT_ENTRY_POINTS if e.endswith(" cap")))
def test_none_cap_raises_domain_error(entry):
    # None is no cap; no search runs unbounded for it
    with pytest.raises(DomainError, match="cap must be an integer"):
        NON_INT_ENTRY_POINTS[entry](None)


def test_bool_arguments_count_as_ints():
    # bool is an int subclass, and LatticeVector accepts it as one too
    assert basis_e(6, True) == basis_e(6, 1)
    assert lift_weight((True, 0, 0, 0, 0, 0), M6) == lift_weight((1, 0, 0, 0, 0, 0), M6)
    assert vectors_of_type(M6, -True, True) == vectors_of_type(M6, -1, 1)
    assert apply_word([True], M6.e(1), M6) == M6.e(2)


def test_euler_char():
    M = make_marked_lattice(6)
    assert euler_char(zero_vector(6), M) == 1
    assert euler_char(M.e(6), M) == 1
    assert euler_char(M.e(1) - M.e(2), M) == 0
    assert euler_char(M.kappa, M) == 1 + (9 - 6)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_vectors_of_type_against_box_scan(r):
    for norm, deg in [(-1, 1), (-2, 0), (0, 2)]:
        got = vectors_of_type(make_marked_lattice(r), norm, deg)
        assert list(got) == sorted(got)
        assert set(got) == brute_force_classes(r, norm, deg, 4)


def assert_walks_match_the_oracle(r, norm, deg):
    want = recursive_tuples_of_type(r, norm, deg)
    assert list(_tuples_of_type(r, norm, deg)) == want, (r, norm, deg)
    texts = format_tuples(r, {c for t in want for c in t}, want)
    assert _texts_of_type(r, norm, deg) == texts, (r, norm, deg)


@pytest.mark.parametrize("r", RANKS)
def test_coeff_solutions_match_the_recursive_oracle(r):
    # the adjunction types deg = norm + 2, two types off them, and (5, 0),
    # whose discriminant r (deg^2 - (9 - r) norm) is negative; at r = 8
    # norms 4..6 hold 1.1 M to 5.9 M tuples, too many for the oracle here
    norms = range(-3, 7 if r < 8 else 4)
    types = [(norm, norm + 2) for norm in norms] + [(0, 0), (5, 0), (1, 1)]
    for norm, deg in types:
        assert_walks_match_the_oracle(r, norm, deg)


def test_coeff_solutions_match_the_recursive_oracle_on_a_grid():
    for r, norm, deg in product(range(3, 6), range(-6, 9), range(-6, 9)):
        assert_walks_match_the_oracle(r, norm, deg)
    # the closed-form pair's cases: t = |d - c| = 0 gives one pair, t = 1 two
    assert list(_tuples_of_type(3, -3, 3)) == [(0, 1, 1, 1), (3, -2, -2, -2)]
    assert list(_tuples_of_type(3, -1, 1)) == [
        (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, -1, -1, 0), (1, -1, 0, -1), (1, 0, -1, -1)
    ]
    assert _texts_of_type(3, -1, 1) == ["e3", "e2", "e1", "h-e1-e2", "h-e1-e3", "h-e2-e3"]


@pytest.mark.parametrize("r", RANKS)
@pytest.mark.parametrize("norm, deg", [(-2, 0), (-1, 1)])  # roots, lines
def test_pairing_masks_match_inner(r, norm, deg):
    vecs = vectors_of_type(make_marked_lattice(r), norm, deg)
    values = (0,), (1,), (1, 2)
    masks = _pairing_masks(tuple(v.coeffs() for v in vecs), *values)
    assert len(masks) == len(values)
    for i, a in enumerate(vecs):
        pairs = [inner(a, b) for b in vecs]
        for v, m in zip(values, masks):
            assert m[i] == sum(1 << j for j, x in enumerate(pairs) if x in v), (r, a, v)


def test_tuples_of_type_holds_no_list_of_tuples():
    # (8, 2, 4) has 82,560 tuples, a megabyte or more if they are held;
    # the walk holds its stack of prefixes, the memo of tails of the last
    # three coordinates and the 166 groups of the last four, which hold
    # references to pieces and tails, no joined tuple
    tracemalloc.start()
    try:
        for _ in _tuples_of_type(8, 2, 4):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def _held_bytes(obj) -> int:
    """sys.getsizeof summed over the objects reachable through containers."""
    seen, todo, total = set(), [obj], 0
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        total += sys.getsizeof(x)
        if isinstance(x, dict):
            todo += [*x.keys(), *x.values()]
        elif isinstance(x, (list, tuple, set, frozenset)):
            todo += x
    return total


def test_text_walk_holds_tails_not_the_output():
    # (8, 5, 7) has 2,877,120 classes, over 200 MB as a list of strings;
    # consumed lazily, the walk over term pieces holds the pieces, its
    # stack, the memo of three-coordinate tails and the four-coordinate
    # groups that reference them, under 1 MB.  Measured without
    # tracemalloc, which slows the walk 15-20x: the live blocks the walk
    # adds, sampled every 4,096 classes, would grow by one a class if it
    # kept them (a class text is a str of 56 bytes or more, so 1 MB of
    # them is 17,857 blocks), and a few times the bytes its frame reaches
    # are summed, which a single string grown in place would also show
    pieces = [{c: _term(c, sym) for c in _values(8, 5, 7)} for sym in _symbols(8)]
    base = sys.getallocatedblocks()
    walk = _walk(8, 5, 7, pieces)
    blocks = held = n = 0
    for n, _ in enumerate(walk, 1):
        if n % 4096 == 0:
            blocks = max(blocks, sys.getallocatedblocks() - base)
            if n % (4096 * 128) == 0:
                held = max(held, _held_bytes(walk.gi_frame.f_locals))
    assert n == 2_877_120
    assert blocks < 1_000_000 // 56
    assert 0 < held < 1_000_000


def test_vectors_of_type_negative_discriminant_is_empty():
    # r (deg^2 - (9 - r) norm) < 0: Cauchy-Schwarz leaves no a at all
    assert vectors_of_type(make_marked_lattice(6), 5, 0) == []


@pytest.mark.parametrize("r", RANKS)
def test_line_counts(r):
    got = vectors_of_type(make_marked_lattice(r), -1, 1)
    assert len(got) == LINE_COUNTS[r]
    assert len(set(got)) == len(got)


def test_expand_in_simple():
    M = make_marked_lattice(6)
    for al in M.simple_coroots:
        coords = expand_in_simple(al, M)
        rebuilt = zero_vector(6)
        for c, b in zip(coords, M.simple_coroots):
            rebuilt = rebuilt + c * b
        assert rebuilt == al
    with pytest.raises(DomainError):
        expand_in_simple(M.h, M)  # degree 3, not in the root span


def test_random_degree_zero_expands():
    M = make_marked_lattice(6)
    rng = random.Random(7)
    for _ in range(50):
        coords = [rng.randint(-3, 3) for _ in range(6)]
        v = zero_vector(6)
        for c, b in zip(coords, M.simple_coroots):
            v = v + c * b
        assert expand_in_simple(v, M) == tuple(coords)
