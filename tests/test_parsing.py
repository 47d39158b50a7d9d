import random

import pytest

from delpezzo import (
    DomainError,
    LatticeVector,
    VectorParseError,
    basis_e,
    basis_h,
    enumerate_classes,
    format_vector,
    make_marked_lattice,
    parse_vector,
    zero_vector,
)
from helpers import (
    INT_DIGIT_LIMIT,
    OVERLONG,
    format_tuples,
    needs_int_digit_limit,
    two_pass_format_vector,
)


def test_round_trip_basis():
    for r in range(3, 9):
        for v in [basis_h(r), zero_vector(r)] + [basis_e(r, i) for i in range(1, r + 1)]:
            assert parse_vector(format_vector(v), r) == v


def test_specific_strings():
    assert parse_vector("3h-e1-2e8", 8) == LatticeVector(3, (-1, 0, 0, 0, 0, 0, 0, -2))
    assert parse_vector("h", 4) == basis_h(4)
    assert parse_vector("-h", 4) == -basis_h(4)
    assert parse_vector("e2-e3", 5) == basis_e(5, 2) - basis_e(5, 3)
    assert parse_vector("0", 6) == zero_vector(6)
    assert parse_vector("2h-e1-e2-e3-e4-e5-e6", 6) == LatticeVector(2, (-1,) * 6)


def test_format_examples():
    assert format_vector(LatticeVector(3, (-1, 0, 0, 0, 0, 0, 0, -2))) == "3h-e1-2e8"
    assert format_vector(zero_vector(5)) == "0"
    assert format_vector(-basis_h(3)) == "-h"
    assert format_vector(LatticeVector(0, (0, 1, 0))) == "e2"
    assert format_vector(LatticeVector(-2, (1, 1, 0))) == "-2h+e1+e2"


def test_format_beyond_rank_8():
    # the constructor allows any rank, so the symbol table is built per rank
    v = LatticeVector(1, (0,) * 8 + (1, -2))
    assert format_vector(v) == "h+e9-2e10" == two_pass_format_vector(v)


def test_round_trip_random():
    rng = random.Random(42)
    for _ in range(300):
        r = rng.randint(3, 8)
        v = LatticeVector(
            rng.randint(-9, 9), tuple(rng.randint(-9, 9) for _ in range(r))
        )
        assert parse_vector(format_vector(v), r) == v


def test_format_matches_two_pass_formatter():
    rng = random.Random(142)
    vecs = [c.vector for c in enumerate_classes(make_marked_lattice(8), 1, 3)]
    for r in (3, 5, 8):
        vecs.append(zero_vector(r))
        for _ in range(1000):
            vecs.append(LatticeVector(
                rng.randint(-30, 30), tuple(rng.randint(-30, 30) for _ in range(r))
            ))
    for v in vecs:
        assert format_vector(v) == two_pass_format_vector(v)


@pytest.mark.parametrize("r", range(1, 13))
def test_term_table_matches_two_pass_formatter(r):
    rng = random.Random(1000 + r)

    def coeff():
        return rng.choice((0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-10**6, 10**6)))

    vecs = [zero_vector(r)] + [
        LatticeVector(coeff(), tuple(coeff() for _ in range(r))) for _ in range(500)
    ]
    tuples = [v.coeffs() for v in vecs]
    want = [two_pass_format_vector(v) for v in vecs]
    assert [format_vector(v) for v in vecs] == want
    assert format_tuples(r, {c for t in tuples for c in t}, tuples) == want


def test_parse_repeated_terms_accumulate():
    assert parse_vector("h+h-e1+e1-e1", 3) == LatticeVector(2, (-1, 0, 0))


@pytest.mark.parametrize(
    "text, position",
    [
        ("e1-e", 4),
        ("", 0),
        ("h+", 2),
        ("3x", 1),
        ("e0", 1),
        ("e9", 1),
        ("h e1", 1),
        ("+-h", 1),
        # a digit run longer than int() reads fails at its start
        *(
            pytest.param(text, position, id=name, marks=needs_int_digit_limit)
            for text, position, name in [
                (OVERLONG + "h", 0, "overlong coefficient"),
                (f"h-{OVERLONG}e1", 2, "overlong signed coefficient"),
                ("e" + OVERLONG, 1, "overlong index"),
                (f"h+e1-2e{OVERLONG}", 7, "overlong last index"),
            ]
        ),
    ],
)
def test_parse_errors_carry_position(text, position):
    with pytest.raises(VectorParseError) as exc:
        parse_vector(text, 8)
    assert exc.value.position == position
    assert exc.value.text == text
    assert f"position {position}" in str(exc.value)


@needs_int_digit_limit
def test_a_coefficient_longer_than_str_prints_is_a_domain_error():
    at_limit = LatticeVector(10 ** (INT_DIGIT_LIMIT - 1), (-1, 0, 0))
    assert format_vector(at_limit) == "1" + "0" * (INT_DIGIT_LIMIT - 1) + "h-e1"
    v = LatticeVector(1, (0, -(10**INT_DIGIT_LIMIT), 0))
    with pytest.raises(DomainError, match="cannot print vector"):
        str(v)
    with pytest.raises(ValueError):  # DomainError is a ValueError
        format_vector(v)


def test_index_beyond_rank():
    with pytest.raises(VectorParseError):
        parse_vector("e7", 6)
    assert parse_vector("e7", 7) == basis_e(7, 7)
