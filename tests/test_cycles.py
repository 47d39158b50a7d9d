"""The bulk builders leave no cyclic garbage: what they build is freed by
reference counting alone.

`weyl.orbit` pauses the cyclic collector on the promise that its listing
makes no reference cycles, and a list of sets or tuples held in a cycle
(say, by a recursive closure whose cell also holds the output) lives until
the next full collection.  Each builder runs once to fill the per-process
caches (the CLI parser, the line and class tables), then again with the
collector off; after its result is dropped, a collection must find nothing.
"""

import gc
import io
from contextlib import redirect_stdout

import pytest

from delpezzo import (
    conics,
    disjoint_line_sets,
    dual_basis_lifts,
    lines,
    make_configuration,
    make_marked_lattice,
    orbit,
    orbit_decomposition,
    orbit_of_set,
    vectors_of_type,
    weyl_canonicalize,
)
from delpezzo.cli import run
from delpezzo.lattice import _symbols, _term, _texts_of_type, _values, _walk
from helpers import GENERIC_ASSIGNS, period_of_assigns


def _sixes_report():
    with redirect_stdout(io.StringIO()):
        return run(["sixes", "--r", "7"])


def _canonical_form():
    return weyl_canonicalize(period_of_assigns(GENERIC_ASSIGNS[7]), make_marked_lattice(7))


def _period_report():
    argv = ["period", "--r", "7", *(x for a in GENERIC_ASSIGNS[7] for x in ("--assign", a))]
    with redirect_stdout(io.StringIO()):
        return run([*argv, "--canonical"])


def _decomposition():
    M = make_marked_lattice(6)
    vecs = [c.vector for c in lines(M)]
    return orbit_decomposition(make_configuration([M.e(1) - M.e(2)], M), vecs, M)


def _partial_conic_decomposition():
    # every other r = 8 conic: the closure wraps the orbit members not passed
    M = make_marked_lattice(8)
    vecs = [c.vector for c in conics(M)][::2]
    cfg = make_configuration([M.e(1) - M.e(2), M.e(2) - M.e(3), M.h - M.e(4) - M.e(5) - M.e(6)], M)
    parts = orbit_decomposition(cfg, vecs, M)
    assert sum(p.size for p in parts) > len(vecs)
    return parts


def _half_consumed_walk():
    # a text walk dropped after a few classes, with its memo of tails, its
    # groups, the tails closure and the stack still live in its frame
    pieces = [{c: _term(c, sym) for c in _values(8, 2, 4)} for sym in _symbols(8)]
    walk = _walk(8, 2, 4, pieces)
    for _ in range(1000):
        next(walk)
    return walk


BUILDERS = {
    "orbit-E8-w2": lambda: orbit(dual_basis_lifts(make_marked_lattice(8))[1], make_marked_lattice(8)),
    "orbit_of_set": lambda: orbit_of_set(
        [make_marked_lattice(7).e(7), make_marked_lattice(7).e(6)], make_marked_lattice(7)
    ),
    "disjoint_line_sets-7-3": lambda: disjoint_line_sets(make_marked_lattice(7), 3),
    "disjoint_line_sets-8-2": lambda: disjoint_line_sets(make_marked_lattice(8), 2),
    "orbit_decomposition": _decomposition,
    "orbit_decomposition-conics-8-partial": _partial_conic_decomposition,
    "conics-8": lambda: conics(make_marked_lattice(8)),
    "vectors_of_type": lambda: vectors_of_type(make_marked_lattice(8), 1, 3),
    "_texts_of_type": lambda: _texts_of_type(8, 1, 3),
    "_walk-half-consumed": _half_consumed_walk,
    "cli-sixes-r7": _sixes_report,
    "weyl_canonicalize-generic-r7": _canonical_form,
    "cli-period-canonical-r7": _period_report,
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_builder_leaves_no_cyclic_garbage(build):
    build()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = build()
        del result
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
