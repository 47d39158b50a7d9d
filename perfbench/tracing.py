"""Spans around the public functions of every `delpezzo` layer, from outside.

`Tracer.install` rebinds each traced function's name in every loaded
`delpezzo` module namespace (so call-time global lookups such as
`geometry._line_vectors -> lines` and `LatticeVector.__str__ ->
format_vector` reach the wrapper), and `uninstall` puts the originals
back.  Per-vector kernels (`inner`, `reflect`, `LatticeVector` arithmetic)
are deliberately not wrapped: they run millions of times and wrapping
them would mostly time the wrapper.

Each span adds its duration to its parent's child time, so self time is
duration minus children.  Spans are kept in memory (per-name totals, plus
one record per span except for the per-vector formatting calls) and
written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import sys
from time import perf_counter_ns

import oracle

TRACED = {
    "lattice": ("make_marked_lattice", "vectors_of_type", "format_vector", "parse_vector"),
    "roots": ("enumerate_roots", "positive_roots", "dynkin_type", "highest_root"),
    "weyl": ("orbit", "orbit_of_set", "dominant_representative", "connect_markings", "word_matrix"),
    "geometry": ("enumerate_classes", "lines", "conics", "coplanar_triples", "disjoint_line_sets",
                 "blowdown_basis", "root_from_six", "double_sixes"),
    "degeneration": ("make_configuration", "orbit_decomposition", "incident_lines"),
    "weights": ("cubic_form_support", "dual_partner", "adjoint_weight_system", "is_minuscule"),
    "period": ("make_period", "restrict_to_coroots", "weyl_canonicalize"),
    "cli": ("run",),
}
# Called once per vector; totals only, no span record each.
UNRECORDED = {"lattice.format_vector", "lattice.parse_vector"}
# Functions whose result length is reported as `<name>.items`.
COUNTED = {"weyl.orbit", "weyl.orbit_of_set", "geometry.disjoint_line_sets",
           "lattice.vectors_of_type", "degeneration.orbit_decomposition"}


def _predicted_orbit(args):
    v = args[0]
    return "weyl.orbit", oracle.orbit_size((v.coeff_h, *v.coeff_e))


def _period_variant(args):
    images = [(p.x, p.y) for p in args[0].images]
    tied = oracle.kills_root(images)
    return f"period.weyl_canonicalize.{'tied' if tied else 'generic'}", 0


# Benchmark-side work done before the span opens; its time is charged to
# no span.  Returns the stats name to use and a predicted item count.
CLASSIFY = {"weyl.orbit": _predicted_orbit, "period.weyl_canonicalize": _period_variant}


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "items", "predicted")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.items = self.predicted = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start ns, duration ns)
        self.op = 0  # index of the operation being run; shared by its spans
        self._stack: list[list] = []  # [span id, child ns] per open span
        self._ids = itertools.count()
        self._wrappers = {}
        self._saved: list[tuple] = []
        for layer, names in TRACED.items():
            module = sys.modules[f"delpezzo.{layer}"]
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is not None:  # a layer that drops a function reports it as 0
                    self._wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _wrap(self, name, fn):
        stack, spans, ids = self._stack, self.spans, self._ids
        record = name not in UNRECORDED
        counted = name in COUNTED
        classify = CLASSIFY.get(name)
        base = self.stat(name)

        def traced(*args, **kwargs):
            stat, predicted = base, 0
            if classify is not None:
                t = perf_counter_ns()
                stat_name, predicted = classify(args)
                stat = self.stat(stat_name)
                if stack:
                    stack[-1][1] += perf_counter_ns() - t
            parent = stack[-1][0] if stack else None
            span_id = next(ids) if record else None
            frame = [span_id if record else parent, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stat.calls += 1
                stat.total_ns += dur
                stat.self_ns += dur - frame[1]
                stat.predicted += predicted
                if record:
                    spans.append((self.op, span_id, parent, name, start, dur))
            if counted:
                stat.items += len(result)
            if stat is not base:
                base.calls += 1
                base.total_ns += dur
                base.self_ns += dur - frame[1]
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "delpezzo" and not mod_name.startswith("delpezzo."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def write_spans(self, path) -> None:
        """One JSON line per recorded span: op, id, parent, name, start_ns, dur_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for op, span_id, parent, name, start, dur in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "dur_ns": dur}) + "\n")
