"""parse_vector against the character scanner it replaced.

The scanner (`helpers.scan_parse_vector`) is the oracle on random text:
where it returns a vector or raises VectorParseError, parse_vector must
give the same vector, or fail at the same position for the same reason.
The scanner also crashes with ValueError on digits that str.isdigit
accepts and int() does not ('²'); there parse_vector must raise
VectorParseError.
"""

import random
from collections import Counter

import pytest

from delpezzo import LatticeVector, VectorParseError, parse_vector
from helpers import scan_parse_vector

ALPHABET = ["h", "e", *"0123456789", "+", "-", " ", "x", "²", "٣"]


def _outcome(parse, text: str, r: int):
    """The parsed vector, or (position, reason) of the VectorParseError."""
    try:
        return parse(text, r)
    except VectorParseError as exc:
        return exc.position, exc.reason


def test_parse_vector_matches_scanner_oracle():
    rng = random.Random(2024)
    tally = Counter()
    for _ in range(100_000):
        r = rng.randint(3, 8)
        text = "".join(rng.choices(ALPHABET, k=rng.randint(0, 8)))
        try:
            expected = _outcome(scan_parse_vector, text, r)
        except Exception:
            with pytest.raises(VectorParseError):
                parse_vector(text, r)
            tally["oracle crashed"] += 1
            continue
        assert _outcome(parse_vector, text, r) == expected, (text, r)
        tally["vector" if isinstance(expected, LatticeVector) else "error"] += 1
    # every branch is exercised, so agreement on each means something
    assert min(tally["vector"], tally["error"], tally["oracle crashed"]) >= 1000, tally


def test_decimal_digits_of_any_script_are_read():
    assert parse_vector("٣h-e١", 6) == LatticeVector(3, (-1, 0, 0, 0, 0, 0))


@pytest.mark.parametrize(
    "text, position, reason",
    [
        ("²h", 0, "expected basis symbol 'h' or 'e<i>'"),
        ("h-2²e1", 3, "expected basis symbol 'h' or 'e<i>'"),
        ("e1-e²", 4, "expected index digits after 'e'"),
    ],
)
def test_digits_int_cannot_read_are_parse_errors(text, position, reason):
    with pytest.raises(VectorParseError) as exc:
        parse_vector(text, 6)
    assert (exc.value.position, exc.value.reason) == (position, reason)
