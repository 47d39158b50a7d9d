"""Seeded argv fuzz over all nine subcommands of `delpezzo`.

Each argv field is drawn from valid values, and now and then from malformed
ones: ranks, formats, class types, vectors, curve lists, torsion points,
weight modes (the conflicting pairs too) and DELPEZZO_ORBIT_CAP values.
Whatever the argv, `run` returns 0, 2 or 3 and raises nothing, prints to
stdout only on success, and prints the same bytes when run again.  A JSON
report is also the stdlib's own text of what it parses to, so `json` checks
the writer on every such argv.
`--timing` is left out, as its value changes between runs, and reports are
kept small: no r = 8 sixes and only class types of a few thousand classes.
"""

import json
import random
from fractions import Fraction

from delpezzo.cli import ORBIT_CAP_ENV, run

COMMANDS = (
    "roots", "lines", "classes", "triples", "sixes", "orbit", "weights", "degenerate", "period"
)
RANKS = ("3", "4", "5", "6", "7", "8")
BAD_RANKS = ("2", "9", "-1", "x", "6.0", "")
CAPS = (" 7", "7", "40", "500")
BAD_CAPS = ("0", "-3", "many", "1e3", "")
TYPES = (("-2", "0"), ("-1", "1"), ("0", "2"), ("1", "3"))
BAD_TYPES = (("0", "0"), ("0", "1"), ("-1", "3"), ("x", "1"), ("-1", "1.5"))
VECTORS = ("e1", "e3", "h", "h-e1", "h-e1-e2", "2h-e1-e2-e3", "0", "3h-e1-e2-e3-e4-e5-e6")
BAD_VECTORS = ("3h-", "e0", "e9", "hh", "1.5h", "h+", "²h", "", "e1e2", "h - e1", "-e1")
ROOTS = ("e1-e2", "e2-e3", "e3-e4", "e5-e6", "e7-e8", "h-e1-e2-e3", "h-e4-e5-e6")
BAD_ROOTS = ("e1+e2", "e1", "h", "e1-e2-", "", "2h-e1", "e1-e9")
POINT_DENOMINATORS = (1, 2, 3, 5, 101)
BAD_POINTS = ("1/0,0", "1/2", "a,b", "1/2,1/2,1/2", ",", "1/2;0")
SYMBOLS = ("h", "e1", "e2", "e3", "e5", "e8")
BAD_SYMBOLS = ("e9", "e0", "x", "", "e1=")
MODES = ((), ("--minuscule",), ("--dual",), ("--adjoint",))
BAD_MODES = (("--dual", "--adjoint"), ("--minuscule", "--dual"), ("--minuscule", "--adjoint"))
STRAY = ("--bogus", "--timing=1", "-r", "--positive")


def _pick(rng: random.Random, good, bad, p_bad: float = 0.1):
    return rng.choice(bad if rng.random() < p_bad else good)


def _assignments(rng: random.Random) -> list[str]:
    """h, e1 and e2 at random and e3 = 3h - e1 - e2, so kappa dies at any r;
    in three argv of ten one symbol or image may go wrong."""
    d = rng.choice(POINT_DENOMINATORS)
    h, e1, e2 = ([Fraction(rng.randrange(d), d) for _ in "xy"] for _ in range(3))
    e3 = [(3 * a - b - c) % 1 for a, b, c in zip(h, e1, e2)]
    symbols = ["h", "e1", "e2", "e3"]
    values = [f"{x},{y}" for x, y in (h, e1, e2, e3)]
    if rng.random() < 0.3:
        i = rng.randrange(4)
        symbols[i] = _pick(rng, SYMBOLS, BAD_SYMBOLS, 0.5)
        values[i] = _pick(rng, values, BAD_POINTS, 0.5)
    return [f"{s}={v}" for s, v in zip(symbols, values)]


def _argv(rng: random.Random) -> list[str]:
    command = rng.choice(COMMANDS)
    r = _pick(rng, RANKS, BAD_RANKS)
    if command == "triples" and rng.random() < 0.7:
        r = "6"
    elif command == "sixes" and r == "8":  # 483,840 sixes, ~7 s: too long for a fuzz case
        r = "7"
    argv = [command, "--r", r] if rng.random() < 0.97 else [command]
    if rng.random() < 0.7:
        argv += ["--format", _pick(rng, ("json", "table"), ("xml",))]
    if command == "roots" and rng.random() < 0.5:
        argv.append("--positive")
    elif command == "classes":
        self_int, deg = _pick(rng, TYPES, BAD_TYPES)
        argv += ["--self-int", self_int, "--degree", deg]
    elif command == "sixes" and rng.random() < 0.5:
        argv.append("--double")
    elif command == "orbit":
        argv += ["--weight", _pick(rng, VECTORS, BAD_VECTORS, 0.2)]
    elif command == "weights":
        if rng.random() < 0.9:
            argv += ["--fundamental", _pick(rng, RANKS[: rng.randint(3, 6)], ("0", "9", "x"))]
        argv += _pick(rng, MODES, BAD_MODES)
    elif command == "degenerate":
        curves = rng.sample(ROOTS, rng.randint(1, 3))
        if rng.random() < 0.2:
            curves.append(rng.choice(BAD_ROOTS))
        argv += ["--curves", ",".join(curves)]
    elif command == "period":
        for a in _assignments(rng):
            argv += ["--assign", a]
        if rng.random() < 0.5:
            argv.append("--canonical")
    if rng.random() < 0.04:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(STRAY))
    return argv


_rng = random.Random(4099)
CASES = [(_argv(_rng), _pick(_rng, CAPS, BAD_CAPS)) for _ in range(300)]


def test_fuzzed_argv_exit_cleanly_and_repeat(capsys, monkeypatch):
    codes = {0: 0, 2: 0, 3: 0}
    json_reports = 0
    for argv, cap in CASES:
        monkeypatch.setenv(ORBIT_CAP_ENV, cap)
        runs = []
        for _ in range(2):
            code = run(argv)
            runs.append((code, *capsys.readouterr()))
        code, out, err = runs[0]
        assert code in codes, (argv, cap, code)
        assert (out != "") == (code == 0), (argv, cap, err)
        assert runs[1] == runs[0], (argv, cap)
        if code == 0 and "json" in argv:
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
            json_reports += 1
        codes[code] += 1
    assert codes[0] >= 120 and codes[2] >= 60 and codes[3] >= 10, codes
    assert json_reports >= 45, json_reports

