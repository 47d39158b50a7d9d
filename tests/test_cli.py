import importlib.resources
import json

import jsonschema
import pytest

from delpezzo import (
    DomainError,
    __version__,
    enumerate_classes,
    enumerate_roots,
    format_vector,
    make_marked_lattice,
    positive_roots,
    vectors_of_type,
)
from delpezzo.cli import _fixed_texts, _plain, _write, build_parser, run
from delpezzo.lattice import _texts_of_type

from helpers import (
    INT_DIGIT_LIMIT,
    LINE_COUNTS,
    OVERLONG,
    ROOT_COUNTS,
    needs_int_digit_limit,
    render_table,
)


@pytest.fixture(scope="module")
def schema():
    text = (
        importlib.resources.files("delpezzo")
        .joinpath("report_schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def run_json(capsys, *argv):
    code = run([*argv, "--format", "json"])
    out = capsys.readouterr()
    assert code == 0, out.err
    return json.loads(out.out)


def test_roots_report(capsys, schema):
    report = run_json(capsys, "roots", "--r", "6")
    jsonschema.validate(report, schema)
    assert report["tool"] == {"name": "delpezzo", "version": __version__}
    assert report["query"] == {"command": "roots", "r": 6, "positive": False}
    assert report["counts"]["items"] == 72
    assert len(report["items"]) == 72
    assert "timing_ms" not in report


def test_positive_roots_report(capsys, schema):
    report = run_json(capsys, "roots", "--r", "6", "--positive")
    jsonschema.validate(report, schema)
    assert report["counts"]["items"] == 36
    assert "2h-e1-e2-e3-e4-e5-e6" in report["items"]


@pytest.mark.parametrize("r", range(3, 9))
def test_lines_counts(capsys, schema, r):
    report = run_json(capsys, "lines", "--r", str(r))
    jsonschema.validate(report, schema)
    assert report["counts"]["items"] == LINE_COUNTS[r]


def test_classes_matches_lines(capsys):
    a = run_json(capsys, "classes", "--r", "6", "--self-int", "-1", "--degree", "1")
    b = run_json(capsys, "lines", "--r", "6")
    assert a["items"] == b["items"]


def test_classes_adjunction_violation_exits_2(capsys):
    assert run(["classes", "--r", "6", "--self-int", "0", "--degree", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize("r", range(3, 9))
def test_classes_match_the_library_path(capsys, r):
    # the report formats int tuples; the library wraps them as CurveClasses
    M = make_marked_lattice(r)
    for norm in range(-2, 4):
        report = run_json(
            capsys, "classes", "--r", str(r), "--self-int", str(norm), "--degree", str(norm + 2)
        )
        assert report["items"] == [
            format_vector(c.vector) for c in enumerate_classes(M, norm, norm + 2)
        ]


@pytest.mark.parametrize("norm, deg", [(0, 1), (2, 3), (-1, -3)])
def test_classes_off_adjunction_reports_the_library_error(capsys, norm, deg):
    with pytest.raises(DomainError) as exc:
        enumerate_classes(make_marked_lattice(7), norm, deg)
    code = run(["classes", "--r", "7", "--self-int", str(norm), "--degree", str(deg)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: {exc.value}\n")


@pytest.mark.parametrize("r", range(3, 9))
def test_fixed_texts_match_a_fresh_walk_and_the_library(r):
    M = make_marked_lattice(r)
    for norm, deg in ((-2, 0), (-1, 1), (0, 2)):
        texts = _fixed_texts(r, norm, deg)
        assert isinstance(texts, tuple)
        assert list(texts) == _texts_of_type(r, norm, deg)
        assert list(texts) == [str(v) for v in vectors_of_type(M, norm, deg)]


@pytest.mark.parametrize("r", range(3, 9))
def test_roots_report_matches_the_library_roots(capsys, r):
    M = make_marked_lattice(r)
    report = run_json(capsys, "roots", "--r", str(r))
    assert report["items"] == [str(root.vector) for root in enumerate_roots(M)]
    report = run_json(capsys, "roots", "--r", str(r), "--positive")
    assert report["items"] == [str(root.vector) for root in positive_roots(M)]


@pytest.mark.parametrize(
    "argv",
    [
        ("roots", "--r", "7"),
        ("roots", "--r", "7", "--positive"),
        ("lines", "--r", "7"),
        ("classes", "--r", "7", "--self-int", "-2", "--degree", "0"),
        ("classes", "--r", "7", "--self-int", "-1", "--degree", "1"),
        ("classes", "--r", "7", "--self-int", "0", "--degree", "2"),
    ],
)
def test_a_reports_items_are_its_own(argv):
    # a handler hands out a fresh list of the kept texts; changing it
    # changes neither the table nor the next report
    args = build_parser().parse_args(argv)
    M = make_marked_lattice(7)
    items = args.handler(args, M)[2]
    expected = list(items)
    items.append("x")
    items[0] = "y"
    items.sort()
    assert args.handler(args, M)[2] == expected


def test_triples(capsys, schema):
    report = run_json(capsys, "triples", "--r", "6")
    jsonschema.validate(report, schema)
    assert report["counts"]["items"] == 45
    assert all(len(t) == 3 for t in report["items"])
    assert run(["triples", "--r", "5"]) == 2


def test_sixes_and_double_sixes(capsys, schema):
    report = run_json(capsys, "sixes", "--r", "6")
    jsonschema.validate(report, schema)
    assert report["counts"]["items"] == 72
    double = run_json(capsys, "sixes", "--r", "6", "--double")
    assert double["counts"] == {"items": 36, "sixes": 72}
    first = double["items"][0]
    assert set(first) == {"six", "partner"}


def test_orbit(capsys, schema):
    report = run_json(capsys, "orbit", "--r", "6", "--weight", "e6")
    jsonschema.validate(report, schema)
    assert report["counts"]["items"] == 27
    assert report["query"]["weight"] == "e6"
    assert "e6" in report["items"]


def test_orbit_parse_error_exits_2(capsys):
    assert run(["orbit", "--r", "6", "--weight", "e1-e"]) == 2
    err = capsys.readouterr().err
    assert "position 4" in err


def test_orbit_cap_env_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("DELPEZZO_ORBIT_CAP", "5")
    assert run(["orbit", "--r", "6", "--weight", "e6"]) == 3
    assert "error:" in capsys.readouterr().err


def test_orbit_cap_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("DELPEZZO_ORBIT_CAP", "zero")
    assert run(["orbit", "--r", "6", "--weight", "e6"]) == 2
    monkeypatch.setenv("DELPEZZO_ORBIT_CAP", "-3")
    assert run(["orbit", "--r", "6", "--weight", "e6"]) == 2
    capsys.readouterr()


def test_weights_lift(capsys, schema):
    report = run_json(capsys, "weights", "--r", "6", "--fundamental", "1")
    jsonschema.validate(report, schema)
    item = report["items"][0]
    assert item["lift"] == "h-e1"
    assert item["evaluations"] == [1, 0, 0, 0, 0, 0]
    assert item["degree"] == 2
    assert item["central_character"] == 2


def test_weights_minuscule(capsys, schema):
    report = run_json(
        capsys, "weights", "--r", "6", "--fundamental", "1", "--minuscule"
    )
    jsonschema.validate(report, schema)
    item = report["items"][0]
    assert item["minuscule"] is True
    assert item["orbit_size"] == 27
    six = run_json(capsys, "weights", "--r", "6", "--fundamental", "6", "--minuscule")
    assert six["items"][0]["minuscule"] is False
    assert "orbit_size" not in six["items"][0]


def test_weights_minuscule_lists_no_orbit(capsys, monkeypatch):
    # the orbit size comes from the cap check alone, under the same cap rule
    def no_listing(*args, **kwargs):
        raise AssertionError("orbit listed")

    monkeypatch.setattr("delpezzo.cli.orbit", no_listing)
    for r, i, size in ((6, 1, 27), (7, 6, 56)):
        report = run_json(capsys, "weights", "--r", str(r), "--fundamental", str(i), "--minuscule")
        assert report["items"][0]["orbit_size"] == size
    monkeypatch.setenv("DELPEZZO_ORBIT_CAP", "10")
    assert run(["weights", "--r", "6", "--fundamental", "1", "--minuscule"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: orbit exceeded cap of 10 elements (10 found so far)\n"


def test_weights_dual(capsys, schema):
    report = run_json(capsys, "weights", "--r", "6", "--fundamental", "1", "--dual")
    jsonschema.validate(report, schema)
    item = report["items"][0]
    assert item["index"] == 1
    assert item["partner"] == 5
    assert item["kappa_multiple"] == 1


def test_weights_adjoint(capsys, schema):
    report = run_json(capsys, "weights", "--r", "6", "--adjoint")
    jsonschema.validate(report, schema)
    assert report["dimension"] == 78
    assert report["counts"]["total_multiplicity"] == 78
    assert report["counts"]["items"] == ROOT_COUNTS[6] + 1
    assert {"weight": "0", "multiplicity": 6} in report["items"]


def test_weights_argument_errors(capsys):
    assert run(["weights", "--r", "6"]) == 2
    assert run(["weights", "--r", "6", "--fundamental", "9"]) == 2
    assert run(["weights", "--r", "6", "--fundamental", "1", "--dual", "--adjoint"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("mode", ["minuscule", "dual", "adjoint", "lift"])
def test_weights_flags_store_one_mode(mode):
    argv = ["weights", "--r", "6", "--fundamental", "1"]
    args = build_parser().parse_args(argv + ([] if mode == "lift" else [f"--{mode}"]))
    assert args.mode == mode
    assert not {"minuscule", "dual", "adjoint"} & set(vars(args))


def test_degenerate(capsys, schema):
    report = run_json(capsys, "degenerate", "--r", "6", "--curves", "e1-e2")
    jsonschema.validate(report, schema)
    assert report["gauge_type"] == "A1"
    assert report["counts"]["classes"] == 27
    assert report["counts"]["size_1"] == 15
    assert report["counts"]["size_2"] == 6
    assert report["counts"]["incident_lines"] == 12
    labels = {item["label"] for item in report["items"]}
    assert labels == {"singleton", "extension pair"}


def test_degenerate_a2(capsys):
    report = run_json(capsys, "degenerate", "--r", "6", "--curves", "e1-e2,e2-e3")
    assert report["gauge_type"] == "A2"
    assert report["counts"]["size_3"] == 6
    assert report["counts"]["size_1"] == 9
    assert report["counts"]["incident_lines"] == 18


def test_degenerate_rejects_bad_curves(capsys):
    assert run(["degenerate", "--r", "6", "--curves", "e1"]) == 2
    assert run(["degenerate", "--r", "6", "--curves", "e1-e2,e3-e2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--r", "6", "--weight", "-e1"],
        ["degenerate", "--r", "6", "--curves", "-e1+e2"],
    ],
    ids=" ".join,
)
def test_vectors_starting_with_minus_need_the_equals_form(capsys, argv):
    # argparse reads a separate "-e1" as an option, so only "--weight=-e1" works
    flag, value = argv[-2:]
    assert run([*argv[:-2], f"{flag}={value}"]) == 0
    assert capsys.readouterr().out
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {flag}: expected one argument" in out.err


def test_period(capsys, schema):
    report = run_json(
        capsys,
        "period",
        "--r",
        "6",
        "--assign",
        "e1=1/2,0",
        "--assign",
        "e6=1/2,0",
    )
    jsonschema.validate(report, schema)
    assert report["coroot_values"] == ["1/2,0", "0,0", "0,0", "0,0", "1/2,0", "1/2,0"]
    assert {"basis": "e1", "value": "1/2,0"} in report["items"]
    assert "canonical" not in report


def test_period_canonical(capsys, schema):
    report = run_json(
        capsys,
        "period",
        "--r",
        "6",
        "--assign",
        "e1=1/2,0",
        "--assign",
        "e6=1/2,0",
        "--canonical",
    )
    jsonschema.validate(report, schema)
    assert "canonical" in report
    assert len(report["canonical"]) == 6
    assert report["canonical"] <= report["coroot_values"]


def test_period_constraint_violation_exits_2(capsys):
    assert run(["period", "--r", "6", "--assign", "e1=1/2,0"]) == 2
    err = capsys.readouterr().err
    assert "kappa image must vanish" in err


def test_period_bad_assignment_exits_2(capsys):
    assert run(["period", "--r", "6", "--assign", "x1=1/2,0"]) == 2
    assert run(["period", "--r", "6", "--assign", "e1"]) == 2
    assert run(["period", "--r", "6", "--assign", "e1=1/0,0"]) == 2
    capsys.readouterr()


def test_rank_out_of_range_exits_2(capsys):
    assert run(["lines", "--r", "9"]) == 2
    assert run(["lines", "--r", "2"]) == 2
    capsys.readouterr()


def test_version(capsys):
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == f"delpezzo {__version__}"


def _unprintable_coroot_period() -> list[str]:
    """period argv with images +-1/a, +-1/b, +-1/c on e1..e6, a, b, c pairwise
    coprime with k + 1 digits each: every input is under the digit limit,
    but the value on h - e1 - e2 - e3 has the 3k + 1 digit denominator abc."""
    k = INT_DIGIT_LIMIT // 3 + 1
    dens = [10**k + 1, 10**k + 3, 10**k + 7]
    argv = ["period", "--r", "6"]
    for i, (sign, den) in enumerate([(s, d) for s in ("", "-") for d in dens], 1):
        argv += ["--assign", f"e{i}={sign}1/{den},0"]
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["roots"],
        ["bogus", "--r", "6"],
        ["roots", "--r", "6", "--format", "xml"],
        # '²' passes str.isdigit but not int()
        ["orbit", "--r", "6", "--weight", "²h"],
        ["degenerate", "--r", "6", "--curves", "e1-e²"],
        ["period", "--r", "6", "--assign", "e²=1/2,0"],
        # a digit run longer than int() reads
        *(
            pytest.param(
                argv, id=" ".join(argv).replace(OVERLONG, "<overlong>"), marks=needs_int_digit_limit
            )
            for argv in (
                ["orbit", "--r", "6", "--weight", OVERLONG + "h"],
                ["orbit", "--r", "6", "--weight", "e" + OVERLONG],
                ["degenerate", "--r", "6", "--curves", f"e1-{OVERLONG}e2"],
                ["period", "--r", "6", "--assign", f"e{OVERLONG}=1/2,0"],
            )
        ),
        # inputs int() reads, but a number in the report longer than str() prints
        pytest.param(
            ["orbit", "--r", "4", "--weight", "9" * INT_DIGIT_LIMIT + "h"],
            id="orbit whose reflection doubles a coefficient past the digit limit",
            marks=needs_int_digit_limit,
        ),
        pytest.param(
            _unprintable_coroot_period(),
            id="period whose coroot value has a denominator past the digit limit",
            marks=needs_int_digit_limit,
        ),
    ],
    ids=" ".join,
)
def test_usage_errors_exit_2_with_empty_stdout(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


def test_period_reads_any_decimal_index(capsys):
    assign = ("--assign", "e6=1/2,0")
    plain = run_json(capsys, "period", "--r", "6", "--assign", "e1=1/2,0", *assign)
    for sym in ("e01", "e١"):
        report = run_json(capsys, "period", "--r", "6", "--assign", f"{sym}=1/2,0", *assign)
        assert report == plain


def test_timing_is_the_last_key_and_one_table_line(capsys):
    argv = ["degenerate", "--r", "6", "--curves", "e1-e2"]
    timed = run_json(capsys, *argv, "--timing")
    assert list(timed)[-1] == "timing_ms"
    assert {k: v for k, v in timed.items() if k != "timing_ms"} == run_json(capsys, *argv)
    assert run(argv) == 0
    plain = capsys.readouterr().out.splitlines()
    assert run([*argv, "--timing"]) == 0
    lines_out = capsys.readouterr().out.splitlines()
    timing = [line for line in lines_out if line.startswith("timing_ms: ")]
    assert len(timing) == 1
    assert [line for line in lines_out if line not in timing] == plain


def test_byte_identical_reruns(capsys):
    run(["lines", "--r", "6", "--format", "json"])
    first = capsys.readouterr().out
    run(["lines", "--r", "6", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second
    run(["degenerate", "--r", "6", "--curves", "e1-e2"])
    third = capsys.readouterr().out
    run(["degenerate", "--r", "6", "--curves", "e1-e2"])
    assert capsys.readouterr().out == third


def test_timing_is_opt_in(capsys):
    report = run_json(capsys, "lines", "--r", "3")
    assert "timing_ms" not in report
    timed = run_json(capsys, "lines", "--r", "3", "--timing")
    assert isinstance(timed["timing_ms"], (int, float))


def test_table_format(capsys):
    assert run(["lines", "--r", "3"]) == 0
    out = capsys.readouterr().out
    lines_out = out.splitlines()
    assert lines_out[0] == "lines r=3"
    assert "counts: items=6" in out
    assert "e3" in out


def test_table_format_degenerate(capsys):
    assert run(["degenerate", "--r", "6", "--curves", "e1-e2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "degenerate r=6 curves=e1-e2"
    assert "gauge_type: A1" in out
    assert "label=extension pair" in out


def _report(items, **extra):
    return {
        "tool": {"name": "delpezzo", "version": __version__},
        "query": {"command": "classes", "r": 6, "self_int": -1, "degree": 1},
        "counts": {"items": len(items), "size_2": 1},
        "items": items,
        **extra,
    }


WRITER_REPORTS = {
    "plain": _report(["e1", "h-e1-e2", "2h-e1-e2-e3-e4-e5", ""]),
    "one item": _report(["-e1+e2"]),
    "quote": _report(["e1", 'say "e1"']),
    "backslash": _report(["e1\\e2", "e3"]),
    "tab": _report(["e1", "e2\te3"]),
    "newline": _report(["e1\ne2"]),
    "delete": _report(["e1", "e2\x7f"]),
    "non-ascii": _report(["e1", "é"]),
    "empty": _report([]),
    "empty with keys after": _report([], gauge_type="A1", timing_ms=0.25),
    "dicts": _report(
        [{"weight": "e1", "multiplicity": 2}, {"weight": "é", "members": ["a", "b"]}]
    ),
    "nested lists": _report([["e1", "e2"], [], ["h-e1-e2"]]),
    "str then dict": _report(["e1", {"index": 1, "word": "s1 s2"}]),
    "dicts then keys": _report(
        [{"representative": "e1-e2", "size": 2, "members": ["e1", "e2"]}, {"label": "é"}],
        gauge_type="A1",
        timing_ms=0.5,
    ),
    "keys after": _report(
        ["e1", "e2"],
        dimension=78,
        highest="h",
        coroot_values=["0", "1/2,0"],
        canonical=[],
        timing_ms=12.5,
    ),
}


@pytest.mark.parametrize("name", WRITER_REPORTS)
def test_writer_matches_json_dumps_and_the_per_item_table(name, capsys):
    report = WRITER_REPORTS[name]
    keys = list(report)
    assert keys[:4] == ["tool", "query", "counts", "items"]
    head = {k: report[k] for k in keys[:3]}
    rest = {k: report[k] for k in keys[4:]}
    _write(head, report["items"], rest, "json")
    assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"
    _write(head, report["items"], rest, "table")
    assert capsys.readouterr().out == render_table(report)


def _printable_scan(items) -> bool:
    """cli._plain's predicate by isprintable() and two scans for '"' and '\\'."""
    try:
        text = "".join(items)
    except TypeError:
        return False
    return bool(items) and text.isascii() and text.isprintable() and not (
        '"' in text or "\\" in text
    )


PLAIN_CASES = {
    "quote": (['h-e1', 'e"2'], False),
    "backslash": (["e1", "\\"], False),
    "delete": (["e1\x7f"], False),
    "nul": (["\x00"], False),
    "newline": (["e1\ne2"], False),
    "tab": (["\t"], False),
    "space": (["h e1"], True),
    "tilde": (["~"], True),
    "e-acute": (["é"], False),
    "no items": ([], False),
    "one empty item": ([""], True),
    "a dict item": (["e1", {"index": 1}], False),
    "line texts": (["h-e1-e2", "2h-e1-e2-e3-e4-e5", "e8"], True),
}


@pytest.mark.parametrize("name", PLAIN_CASES)
def test_plain_matches_the_printable_scan(name):
    items, want = PLAIN_CASES[name]
    assert _plain(items) == _printable_scan(items) == want


def test_plain_matches_the_printable_scan_on_every_latin1_char():
    for c in map(chr, range(256)):
        for items in ([c], ["h-e1", "e2" + c]):
            assert _plain(items) == _printable_scan(items), repr(c)
