"""Run every workload untraced and traced, then print all metrics by name.

    python3 perfbench/summary.py [--seed 1] [--seconds 20]

Each run is a fresh `run.py` process (so `peak_rss_mb` is per workload).
Prints each run's own report, then one table of the end-to-end metrics
with `failed_frac`, and the per-kind medians of the ROADMAP baseline rows.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("orbits", "incidence", "reports")
BASELINE_KINDS = {
    "orbit r=7 size=10080": "orbit of E7 w3 (10,080)",
    "orbit r=8 size=69120": "orbit of E8 w2 (69,120)",
    "disjoint_line_sets r=7 k=7": "disjoint_line_sets(r=7, k=7)",
    "double_sixes r=6": "double_sixes(r=6)",
    "weyl_canonicalize tied r=6 half2": "weyl_canonicalize, r=6 half-period on two e_i",
    "cli lines r=6": "cli.run lines --r 6 (in process)",
}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args()
    results, baseline, printed = {}, [], {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run(workload, args.seed, args.seconds, trace)
            print(f"== {workload} trace={trace}")
            print("\n".join(lines))
            results[workload, trace] = result
            if not trace:
                baseline += [(BASELINE_KINDS[k], line.split()[-3:-1]) for line in lines
                             for k in BASELINE_KINDS if line.startswith(k + " ")]
                printed[workload] = {line.split()[0]: (float(line.split()[1]), line.split()[2])
                                     for line in lines if line.startswith(("op_p", "ops_per_s "))}
    print("== end to end (untraced)")
    for workload in WORKLOADS:
        res = results[workload, 0]
        metrics = {name: (m["value"], m["unit"]) for name, m in res["metrics"].items()}
        metrics.update(printed[workload])
        metrics["failed_frac"] = (res["failed"] / res["attempted"], "ratio")
        print(workload)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<16} {value:>14.6f} {unit}")
    print("== baseline rows (n, median ms)")
    for label, (n, p50) in baseline:
        print(f"  {label:<48} n={n:<4} {p50} ms")


if __name__ == "__main__":
    main()
