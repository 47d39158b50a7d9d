"""Run one workload of the delpezzo benchmark and print its metrics.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
One client in this single-threaded process runs a closed loop: each
operation starts when the previous one (and its output check) is done.
Operations come in rounds, each one copy of the workload's mix with fresh
seeded inputs; rounds repeat until the timed calls add up to `--seconds`
and at least MIN_OPS operations have run.

`--trace 0` reports the end-to-end metrics.  Each of its operations is
also timed on the seed copy of the package (`reference.py`, in a second
process), alternating which side runs first, and the timed calls of both
sides count towards `--seconds`.  `--trace 1` runs every round
twice, untraced and traced in alternating order, and reports the per-layer
metrics from the traced pass plus the tracing overhead.  Human-readable
lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FINGERPRINTS = HERE / "fingerprints.json"
SPANS_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 11
SETUP_CODE = "import delpezzo, delpezzo.cli\nfor r in range(3, 9): delpezzo.make_marked_lattice(r)"
# At least this many operations per run, so that ten or more lie beyond p90.
MIN_OPS = 100
# Start no new round after this much wall time, so a run ends well inside
# three minutes even on a slow host.
WALL_LIMIT_S = 110.0

END_TO_END = {
    "speed_vs_seed": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics of the traced run: (name, unit).  Counts and times are
# per round of the workload's mix.
PER_LAYER = [
    *[(f"weyl.orbit.{m}", u) for m, u in (("calls", "count"), ("self_ms", "ms"), ("items", "count"),
                                           ("predicted_items", "count"), ("us_per_item", "us"))],
    ("weyl.orbit_of_set.calls", "count"), ("weyl.orbit_of_set.self_ms", "ms"),
    ("weyl.orbit_of_set.items", "count"),
    ("weyl.dominant_representative.calls", "count"), ("weyl.dominant_representative.self_ms", "ms"),
    ("weyl.connect_markings.calls", "count"), ("weyl.connect_markings.self_ms", "ms"),
    ("period.weyl_canonicalize.calls", "count"),
    ("period.weyl_canonicalize.tied.self_ms", "ms"), ("period.weyl_canonicalize.generic.self_ms", "ms"),
    ("geometry.disjoint_line_sets.calls", "count"), ("geometry.disjoint_line_sets.self_ms", "ms"),
    ("geometry.disjoint_line_sets.items", "count"),
    ("geometry.coplanar_triples.self_ms", "ms"), ("geometry.double_sixes.self_ms", "ms"),
    ("geometry.blowdown_basis.calls", "count"), ("geometry.blowdown_basis.self_ms", "ms"),
    ("geometry.lines.calls", "count"), ("geometry.lines.self_ms", "ms"),
    *[(f"degeneration.{f}.{m}", u) for f in ("make_configuration", "orbit_decomposition", "incident_lines")
      for m, u in (("calls", "count"), ("self_ms", "ms"))],
    ("degeneration.orbit_decomposition.items", "count"),
    *[(f"weights.{f}.self_ms", "ms") for f in ("cubic_form_support", "dual_partner",
                                               "adjoint_weight_system", "is_minuscule")],
    *[(f"roots.{f}.{m}", u) for f in ("enumerate_roots", "positive_roots", "dynkin_type")
      for m, u in (("calls", "count"), ("self_ms", "ms"))],
    ("lattice.vectors_of_type.calls", "count"), ("lattice.vectors_of_type.self_ms", "ms"),
    ("lattice.vectors_of_type.items", "count"),
    ("geometry.enumerate_classes.self_ms", "ms"),
    ("lattice.format_vector.calls", "count"), ("lattice.format_vector.self_ms", "ms"),
    ("lattice.parse_vector.calls", "count"), ("lattice.parse_vector.self_ms", "ms"),
    ("cli.run.calls", "count"), ("cli.run.self_ms", "ms"), ("cli.bytes_out", "bytes"),
    ("cli.self_share", "ratio"),
    ("lattice.make_marked_lattice.self_ms", "ms"),
    *[(f"classes_split.{m}", "ms") for m in ("vectors_of_type_ms", "enumerate_classes_self_ms",
                                             "format_vector_ms", "cli_run_self_ms")],
    ("workload.repeat_share", "ratio"),
    ("trace.overhead", "ratio"),
]
# Spans whose self time splits the largest `classes` report, and that report.
SPLIT = {"vectors_of_type_ms": "lattice.vectors_of_type",
         "enumerate_classes_self_ms": "geometry.enumerate_classes",
         "format_vector_ms": "lattice.format_vector", "cli_run_self_ms": "cli.run"}
SPLIT_KIND = "cli classes r=8 self-int=2"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Setup:
    """Wall times of fresh interpreters importing the package and building
    every marked lattice, taken one at a time between operations so that
    their median spans the whole run."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self.sample()  # warm-up: fills the file cache; not kept
        self.times.clear()

    def sample(self) -> None:
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=self.env, cwd=ROOT, check=True)
        self.times.append(time.perf_counter() - t)


def quantiles_ms(latencies: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(latencies, n=10, method="inclusive")
    return q[4] * 1000.0, q[8] * 1000.0


class SeedCopy:
    """The seed copy of the package, served by reference.py in a process
    of its own; it times the same operations as this process."""

    def __init__(self, workload: str, seed: int):
        self.busy = 0.0
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py"), "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            ready = self._read()
        except RuntimeError:
            self.close()
            raise
        if ready != "ready":
            self.close()
            raise RuntimeError("the seed copy's server did not start")

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the seed copy's server exited")
        return line.strip()

    def _ask(self, line: str) -> str:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._read()

    def round(self, ops) -> None:
        if self._ask("round") != reference.keys_digest(ops):
            raise RuntimeError("the seed copy drew other operations")

    def time(self, i: int) -> None:
        self.busy += float(self._ask(str(i)))

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


class NoSeedCopy:
    """Stands in for SeedCopy in a traced run, which reports no ratio."""

    busy = 0.0

    def round(self, ops) -> None:
        pass

    def time(self, i: int) -> None:
        pass

    def close(self) -> None:
        pass


class Run:
    """Latencies, failures and per-kind samples of one pass kind."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.failed: list[tuple[str, str]] = []
        self.busy = 0.0

    def add(self, kind: str, seconds: float, error: str | None) -> None:
        self.latencies.append(seconds)
        self.by_kind.setdefault(kind, []).append(seconds)
        self.busy += seconds
        if error is not None:
            self.failed.append((kind, error))


def run_op(op, record: Run) -> object:
    """Time one call, then check its output; a raise in either is a failure."""
    t0 = time.perf_counter()
    try:
        out = op.call()
        error = None
    except Exception as exc:  # counted and reported, never fatal to the run
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if error is None:
        try:
            op.check(out)
        except Exception as exc:  # a wrong or malformed output
            error = f"{type(exc).__name__}: {exc}"
    record.add(op.kind, elapsed, error)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delpezzo" / "__init__.py").is_file():
        print(f"error: no delpezzo package under {SRC}", file=sys.stderr)
        return 2
    if not FINGERPRINTS.is_file():
        print(f"error: missing {FINGERPRINTS}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import delpezzo

    if Path(delpezzo.__file__).resolve().parent != (SRC / "delpezzo").resolve():
        print(f"error: imported delpezzo from {delpezzo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    fps = json.loads(FINGERPRINTS.read_text())
    try:
        workload = workloads.Workload(args.workload, args.seed, fps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    setup = Setup() if not args.trace else None
    tracer = tracing.Tracer() if args.trace else None
    setup_ms = probe_setup(tracer, delpezzo) if tracer is not None else None

    seed = SeedCopy(args.workload, args.seed) if not args.trace else NoSeedCopy()
    try:
        plain, traced = Run(), Run()
        seen: set[str] = set()
        repeats = rounds = 0
        bytes_out = 0
        split_ns = dict.fromkeys(SPLIT, 0)
        split_ops = 0
        # No warm-up: the first round runs no slower than later ones, and a
        # warm-up cut off by time made the heap, and so peak_rss_mb, depend
        # on the host's speed.
        round_busy = []
        wall0 = time.perf_counter()
        while ((plain.busy + traced.busy + seed.busy < args.seconds or len(plain.latencies) < MIN_OPS)
               and time.perf_counter() - wall0 < WALL_LIMIT_S):
            ops = workload.round()
            for op in ops:
                repeats += op.key in seen
                seen.add(op.key)
            seed.round(ops)
            order = [False] if tracer is None else [False, True] if rounds % 2 == 0 else [True, False]
            for with_trace in order:
                if not with_trace:
                    for i, op in enumerate(ops):
                        seed_first = (rounds + i) % 2 == 1
                        if seed_first:
                            seed.time(i)
                        run_op(op, plain)
                        if not seed_first:
                            seed.time(i)
                        if setup is not None and len(setup.times) < SETUP_REPEATS \
                                and plain.busy + seed.busy >= len(setup.times) * args.seconds / SETUP_REPEATS:
                            setup.sample()
                    continue
                tracer.install()
                try:
                    for i, op in enumerate(ops):
                        tracer.op = rounds * len(ops) + i
                        before = {m: tracer.stat(n).self_ns for m, n in SPLIT.items()}
                        out = run_op(op, traced)
                        if op.key.startswith("cli/") and out is not None:
                            bytes_out += len(out[1].encode())
                        if op.kind == SPLIT_KIND:
                            split_ops += 1
                            for m, n in SPLIT.items():
                                split_ns[m] += tracer.stat(n).self_ns - before[m]
                finally:
                    tracer.uninstall()
            rounds += 1
            round_busy.append(plain.busy - sum(round_busy))
        while setup is not None and len(setup.times) < SETUP_REPEATS:
            setup.sample()

        attempted = len(plain.latencies) + len(traced.latencies)
        failed = len(plain.failed) + len(traced.failed)
        for kind, why in (plain.failed + traced.failed)[:20]:
            print(f"FAILED {kind}: {why}", file=sys.stderr)
        print(f"workload={args.workload} seed={args.seed} rounds={rounds} ops={attempted} "
              f"failed={failed} failed_frac={failed / attempted:.4f} ratio "
              f"repeat_share={repeats / len(plain.latencies):.4f} ratio "
              f"round_s={','.join(f'{t:.2f}' for t in round_busy)}")
        print(f"{'kind':<44} {'n':>4} {'p50_ms':>10} {'max_ms':>10}")
        for kind, xs in sorted(plain.by_kind.items(), key=lambda kv: statistics.median(kv[1])):
            print(f"{kind:<44} {len(xs):>4} {statistics.median(xs) * 1000:>10.3f} {max(xs) * 1000:>10.3f}")

        # The latency quantiles are printed but not in the result: on a shared
        # host, short CPU-bound calls follow the CPU's speed (up to 1.9x apart
        # from one minute to the next), which spreads the quantiles of ten
        # runs past any bound a regression gate could use.
        p50, p90 = quantiles_ms(plain.latencies)
        print(f"{'op_p50_ms':<44} {p50:>14.6f} ms  (n={len(plain.latencies)})")
        print(f"{'op_p90_ms':<44} {p90:>14.6f} ms  (n={len(plain.latencies)})")
        if tracer is None:
            print(f"{'ops_per_s':<44} {len(plain.latencies) / plain.busy:>14.6f} op/s")
            print(f"{'seed_copy_ops_per_s':<44} {len(plain.latencies) / seed.busy:>14.6f} op/s")
            values = {
                "speed_vs_seed": seed.busy / plain.busy,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": statistics.median(setup.times),
            }
            units = END_TO_END
        else:
            tracer.write_spans(SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
            values = layer_metrics(tracer, rounds, plain, traced, bytes_out, split_ns, split_ops,
                                   repeats / len(plain.latencies), setup_ms)
            units = dict(PER_LAYER)
        for name, value in values.items():
            print(f"{name:<44} {value:>14.6f} {units[name]}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        }))
        return 0
    finally:
        seed.close()


def probe_setup(tracer, delpezzo) -> float:
    """Self ms of `make_marked_lattice` for r = 3..8 from an empty cache, as
    in the set-up of a fresh interpreter; mean of SETUP_REPEATS."""
    clear_cache = getattr(delpezzo.lattice.make_marked_lattice, "cache_clear", lambda: None)
    tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            clear_cache()
            for r in range(3, 9):
                delpezzo.lattice.make_marked_lattice(r)
    finally:
        tracer.uninstall()
    return tracer.stat("lattice.make_marked_lattice").self_ns / 1e6 / SETUP_REPEATS


def layer_metrics(tracer, rounds, plain, traced, bytes_out, split_ns, split_ops, repeat_share,
                  setup_ms):
    stats = tracer.stats
    out = {}
    for name, unit in PER_LAYER:
        base, _, metric = name.rpartition(".")
        st = stats.get(base)
        if metric == "calls":
            out[name] = st.calls / rounds if st else 0.0
        elif metric == "self_ms":
            out[name] = st.self_ns / 1e6 / rounds if st else 0.0
        elif metric == "items":
            out[name] = st.items / rounds if st else 0.0
        elif metric == "predicted_items":
            out[name] = st.predicted / rounds if st else 0.0
        elif metric == "us_per_item":
            out[name] = st.self_ns / 1e3 / st.items if st and st.items else 0.0
    out["lattice.make_marked_lattice.self_ms"] = setup_ms
    cli_run = stats.get("cli.run")
    out["cli.bytes_out"] = bytes_out / rounds
    out["cli.self_share"] = cli_run.self_ns / cli_run.total_ns if cli_run and cli_run.total_ns else 0.0
    for m in SPLIT:
        out[f"classes_split.{m}"] = split_ns[m] / 1e6 / split_ops if split_ops else 0.0
    out["workload.repeat_share"] = repeat_share
    out["trace.overhead"] = plain.busy / traced.busy
    return out


if __name__ == "__main__":
    sys.exit(main())
