"""Byte-exact CLI reports, recorded before the closures behind them were merged.

Each case runs `cli.run` in process and compares its stdout byte for byte
with tests/golden/<name>.out and its exit code with
tests/golden/exit_codes.json.  The goldens pin report text, ordering,
labels and exit codes while the code behind them is rewritten; they are
data, not regenerated by the test.
"""

import hashlib
import json
from pathlib import Path

import pytest

from delpezzo.cli import ORBIT_CAP_ENV, run
from helpers import GENERIC_ASSIGNS

GOLDEN = Path(__file__).parent / "golden"

_CURVES = {
    5: ["e1-e2,e2-e3,e4-e5"],
    6: [
        "e1-e2",
        "e1-e2,e2-e3",
        "e1-e2,h-e1-e2-e3",
        "e1-e2,e3-e4,e5-e6",
        "e1-e2,e2-e3,e3-e4,h-e1-e2-e3",
        "e1-e2,e2-e3,e3-e4,e4-e5,e5-e6,h-e1-e2-e3",
        "e1-e2,e1-e2",
    ],
    7: ["e1-e2", "e2-e3,e4-e5", "e1-e2,e2-e3,e3-e4,e4-e5,e5-e6,e6-e7,h-e1-e2-e3"],
    8: [
        "e1-e2",
        "e1-e2,e2-e3,h-e4-e5-e6",
        "e1-e2,e2-e3,e3-e4,e4-e5,e5-e6,e6-e7,e7-e8,h-e1-e2-e3",
    ],
}

_TIED_PERIODS = [
    ("6", "e1=1/2,0", "e6=1/2,0"),
    ("6", "e1=1/5,2/5", "e2=4/5,3/5"),
    ("7", "e2=1/2,1/2", "e5=1/2,1/2"),
]

# The r = 7 JSON report hashed to 171f389c...084a while the orbit was still
# closed breadth-first; at r = 8 it ran into the cap then.
_GENERIC_PERIODS = [(str(r), *assigns) for r, assigns in GENERIC_ASSIGNS.items()]

_THIRDS_ON_H_E1_E2_E3 = (
    "period",
    "--r",
    "6",
    *(x for sym in ("h", "e1", "e2", "e3") for x in ("--assign", f"{sym}=1/3,0")),
)

CASES = (
    [("degenerate", "--r", str(r), "--curves", c) for r, cs in _CURVES.items() for c in cs]
    + [("triples", "--r", "6")]
    + [
        ("sixes", "--r", "6"),
        ("sixes", "--r", "6", "--double"),
        ("sixes", "--r", "5"),
        ("sixes", "--r", "7", "--double"),
    ]
    + [("weights", "--r", str(r), "--adjoint") for r in range(4, 9)]
    + [
        ("weights", "--r", r, "--fundamental", i, "--dual")
        for r, i in (("3", "1"), ("6", "1"), ("6", "6"), ("7", "7"), ("8", "4"))
    ]
    + [
        ("period", "--r", r, *(x for a in assigns for x in ("--assign", a)), "--canonical")
        for r, *assigns in _TIED_PERIODS + _GENERIC_PERIODS
    ]
    + [
        ("roots", "--r", "3"),
        ("roots", "--r", "8", "--positive"),
        *(("lines", "--r", str(r)) for r in range(3, 9)),
        ("classes", "--r", "7", "--self-int", "0", "--degree", "2"),
        ("classes", "--r", "8", "--self-int", "1", "--degree", "3"),
        ("orbit", "--r", "7", "--weight", "e7"),
        ("weights", "--r", "6", "--fundamental", "2"),
        ("weights", "--r", "7", "--fundamental", "7", "--minuscule"),
        ("period", "--r", "6", "--assign", "e1=1/3,0", "--assign", "e2=2/3,0"),
        *((*_THIRDS_ON_H_E1_E2_E3, *flag) for flag in ((), ("--canonical",))),
        ("classes", "--r", "6", "--self-int", "0", "--degree", "0"),  # exit 2
        ("degenerate", "--r", "6", "--curves", "e1-e2,e2-e3,e3-e1"),  # exit 2: dependent
        ("orbit", "--r", "8", "--weight", "4h-2e1-e2+e4+2e5+3e6+4e7+5e8"),  # exit 3
    ]
)

FORMATS = ("table", "json")


def golden_name(argv, fmt: str) -> str:
    """File stem for one case: the argv words without leading dashes, joined
    by '_', with '/' spelled 'o' and ',' spelled '+'."""
    words = [w.lstrip("-") for w in (*argv, fmt)]
    return "_".join(words).replace("/", "o").replace(",", "+")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_matches_golden(argv, fmt, capsys, monkeypatch):
    monkeypatch.delenv(ORBIT_CAP_ENV, raising=False)
    name = golden_name(argv, fmt)
    code = run([*argv, "--format", fmt])
    out = capsys.readouterr().out
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_every_golden_is_a_case_and_every_case_is_recorded():
    stems = {p.stem for p in GOLDEN.glob("*.out")}
    codes = set(json.loads((GOLDEN / "exit_codes.json").read_text()))
    names = {golden_name(argv, fmt) for argv in CASES for fmt in FORMATS}
    assert len(names) == len(CASES) * len(FORMATS)
    assert stems == codes == names


# sha256 of the stdout of the largest reports, too large to keep as .out
# files; recorded before the listings moved from vectors onto int tuples.
LARGE_REPORT_SHA256 = {
    ("classes", "--r", "8", "--self-int", "2", "--degree", "4", "table"):
        "b09f4f8fbe754c236663d1e3942e6a3fbd587c860f37bf5b8a7aaed0ce593ef9",
    ("classes", "--r", "8", "--self-int", "2", "--degree", "4", "json"):
        "9dd2b96f7abbdee063372db7a2e711f2e8e012677539faee00ed38249931315d",
    # 319,680 classes, the type whose four-slot states repeat most; recorded
    # while the type walk still joined each prefix to three-slot tails
    ("classes", "--r", "8", "--self-int", "3", "--degree", "5", "table"):
        "71863accb33d36a238f2862d12d9f9a0ca250471aa92e3b144e82bf4ab84ae52",
    ("classes", "--r", "8", "--self-int", "3", "--degree", "5", "json"):
        "90ea6fcf0d51106c6b18acfc654581257fdb3e6ea1860ff010e001b3d43d3e36",
    ("lines", "--r", "8", "table"):
        "f56d36d9dde151c563cf0e55c33d5b0d28a65fb7d5067646cbee765a1b121dd4",
    ("lines", "--r", "8", "json"):
        "461595f73dd6d8837f21d1d6c5712c5c219f0ccd522cfd8e5c2dcec3638bc1b0",
    # recorded while the sixes report still formatted each set's vectors
    ("sixes", "--r", "7", "table"):
        "5f7c7b3f486d7d5387cb70c01d0261263a3f409a6b51b750766ea71273137b6d",
    ("sixes", "--r", "7", "json"):
        "bb9d040dd4fce4196247efa79e34d95ddd88aab8f995faeb59a899b1966002b2",
    # E8 w2, 69,120 elements; recorded while each height's orbit tuples
    # were still listed per representative and sorted
    ("orbit", "--r", "8", "--weight", "2h-e1-e2", "table"):
        "4cd0914eba2d63bf013405e4c3bd728482ece969c05f071f05285a9e932a93ac",
    ("orbit", "--r", "8", "--weight", "2h-e1-e2", "json"):
        "f9f75670518384a727e679fd2e03c1389d5caf807b261248e9bb4befc55c5423",
}


@pytest.mark.parametrize("case", LARGE_REPORT_SHA256, ids=" ".join)
def test_large_report_matches_its_sha256(case, capsys):
    *argv, fmt = case
    assert run([*argv, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_REPORT_SHA256[case]
