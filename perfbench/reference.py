"""Time the workload's operations on the seed copy of delpezzo, for run.py.

    python3 perfbench/reference.py --workload orbits --seed 1

`seed_lib/delpezzo` is the package as it stood when the benchmark was
defined.  `run.py` starts this server next to its own process and, for
every untraced operation, asks it to time the same operation on that
copy, alternating which of the two runs first.  Both sides feel the same
host speed at the same moment, so the ratio of their busy times follows
the code and not the shared host, whose speed drifts by a quarter or
more over minutes.  Running the copy in its own process keeps its memory
and caches out of the measured process.

Protocol, one line each way: after "ready", `round` draws the next round
and answers with a digest of its operation keys; an integer i runs
operation i of that round and answers with its seconds.  Outputs are
not checked here: this is the code the fingerprints were recorded from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED_LIB = HERE / "seed_lib"


def keys_digest(ops) -> str:
    return hashlib.sha256("\n".join(op.key for op in ops).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, str(SEED_LIB))
    import delpezzo

    if Path(delpezzo.__file__).resolve().parent != (SEED_LIB / "delpezzo").resolve():
        print(f"error: imported delpezzo from {delpezzo.__file__}, not {SEED_LIB}", file=sys.stderr)
        return 2
    import workloads

    fps = json.loads((HERE / "fingerprints.json").read_text())
    workload = workloads.Workload(args.workload, args.seed, fps)
    print("ready", flush=True)
    ops = []
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "round":
            ops = workload.round()
            print(keys_digest(ops), flush=True)
            continue
        op = ops[int(cmd)]
        t0 = time.perf_counter()
        try:
            op.call()
        except Exception:  # the seed copy is the reference; run.py checks its own side
            pass
        print(repr(time.perf_counter() - t0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
