"""Tests of the benchmark itself: generators, checks and the result contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FPS = json.loads((HERE / "fingerprints.json").read_text())
NAMES = ("orbits", "incidence", "reports")


def _rounds(name: str, seed: int, n: int = 2):
    wl = workloads.Workload(name, seed, FPS)
    return [wl.round() for _ in range(n)]


STRATA = workloads.report_strata()
STRATUM_OF = {rep.key: name for name, reps in STRATA.items() for rep in reps}


def _mix(ops) -> Counter:
    """Operation kinds with their random part (rank, size) removed; a
    report counts under the stratum it was drawn from."""
    return Counter(STRATUM_OF.get(op.key) or op.kind.split(" r=")[0] for op in ops)


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_deterministic_for_a_seed(name):
    a, b = _rounds(name, 7), _rounds(name, 7)
    assert [[op.key for op in r] for r in a] == [[op.key for op in r] for r in b]


@pytest.mark.parametrize("name", NAMES)
def test_held_out_seed_gives_other_inputs_with_the_same_mix(name):
    a, b = _rounds(name, 7), _rounds(name, 1234567)
    assert [op.key for op in a[0]] != [op.key for op in b[0]]
    assert {op.key for r in b for op in r} - {op.key for r in a for op in r}
    for ra, rb in zip(a, b):
        assert _mix(ra) == _mix(rb)


def test_corrupted_output_is_counted_as_failed():
    rep = workloads.Report(("lines", "--r", "6"))
    good = workloads.report_op(rep, FPS)
    code, text = good.call()
    bad = workloads.Op(good.kind, good.key, lambda: (code, text.replace("e1", "e2", 1)), good.check)
    record = run.Run()
    run.run_op(good, record)
    assert record.failed == []
    run.run_op(bad, record)
    assert len(record.failed) == 1 and "differs" in record.failed[0][1]


def test_corrupted_orbit_is_counted_as_failed():
    wl = workloads.Workload("orbits", 3, FPS)
    op = next(op for op in wl.round() if op.kind == "orbit r=6 size=27")
    out = op.call()
    record = run.Run()
    run.run_op(workloads.Op(op.kind, op.key, lambda: out[:-1], op.check), record)
    run.run_op(workloads.Op(op.kind, op.key, lambda: out[1:] + out[:1], op.check), record)
    assert len(record.failed) == 2


def test_raising_operation_is_counted_as_failed():
    def boom():
        raise RuntimeError("boom")

    record = run.Run()
    run.run_op(workloads.Op("k", "k", boom, lambda out: None), record)
    assert record.failed and "RuntimeError" in record.failed[0][1]


@pytest.mark.parametrize("rep", STRATA["parse_errors"] + STRATA["cap_hits"], ids=lambda r: r.key)
def test_expected_error_exit_codes_are_not_failures(rep):
    code, text = workloads.run_report(rep)
    assert code == rep.exit_code and text == ""
    record = run.Run()
    run.run_op(workloads.report_op(rep, FPS), record)
    assert record.failed == []


def test_cap_hit_exits_3_and_a_missed_cap_fails():
    rep = STRATA["cap_hits"][0]
    assert workloads.run_report(rep)[0] == 3
    uncapped = workloads.Report(rep.argv, cap=None, exit_code=3)
    record = run.Run()
    run.run_op(workloads.report_op(uncapped, FPS), record)
    assert len(record.failed) == 1


def test_period_bases_are_tied_or_generic_as_labelled():
    for key, r, base in workloads.all_period_bases():
        assert oracle.kills_root(base) == ("/generic/" not in key), key


def test_orbit_sizes_match_the_closed_form():
    # |W|/|W_J| for fundamental weights quoted in the literature.
    assert oracle.orbit_size(oracle.fundamental(6, 1)) == 27
    assert oracle.orbit_size(oracle.fundamental(7, 3)) == 10080
    assert oracle.orbit_size(oracle.fundamental(8, 2)) == 69120
    assert oracle.orbit_size(oracle.fundamental(8, 8)) == 17280
    assert len(oracle.roots(8)) == 240
    assert len(oracle.disjoint_sets(6, 6)) == 72


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.MIXES)


def test_seed_copy_times_the_same_operations_and_exits():
    ops = workloads.Workload("reports", 5, FPS).round()
    seed = run.SeedCopy("reports", 5)
    try:
        seed.round(ops)
        seed.time(0)
        assert seed.busy > 0
        with pytest.raises(RuntimeError):
            seed.round(ops[1:])
    finally:
        seed.close()
    assert seed.proc.returncode == 0
