"""Seeded input generators for the three workloads, with output checks.

A workload is a fixed mix of operation kinds.  Each call to `Workload.round`
draws fresh inputs for one copy of that mix, so every round costs about the
same and a run of whole rounds keeps the mix exact.  An operation times
one call into a public `delpezzo` function (or `delpezzo.cli.run`); its
check compares the output with closed forms from `oracle` and with the
fingerprint the seed commit produced for the same canonical input.

Library functions are looked up on their modules at call time, so the
traced run's rebinding of module names is seen by every operation.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

import delpezzo.cli as cli
from delpezzo import degeneration, geometry, lattice, period, weights, weyl

ORBIT_CAP_ENV = "DELPEZZO_ORBIT_CAP"


class CheckFailed(Exception):
    """An operation's output differs from the oracle or the fingerprint."""


@dataclass
class Op:
    kind: str  # operation kind; per-kind medians are reported under it
    key: str  # exact input identity, used for repeat_share
    call: Callable[[], object]
    check: Callable[[object], None]  # raises CheckFailed on a wrong output


def ensure(cond: bool, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


def _vec(t: tuple[int, ...]) -> lattice.LatticeVector:
    return lattice.LatticeVector(t[0], tuple(t[1:]))


def _tup(v) -> tuple[int, ...]:
    return (v.coeff_h, *v.coeff_e)


def _word(rng: random.Random, r: int, lo: int = 20, hi: int = 40) -> tuple[int, ...]:
    return tuple(rng.randint(1, r) for _ in range(rng.randint(lo, hi)))


def _matches(fingerprints: dict[str, str], fkey: str, value) -> None:
    want = fingerprints.get(fkey)
    ensure(want is not None, f"no recorded fingerprint for {fkey}")
    ensure(oracle.digest(value) == want, f"output differs from the recorded {fkey}")


# --- canonical outputs, shared with record_fingerprints.py -------------------


def canon_vectors(vectors) -> tuple:
    return tuple(_tup(v) for v in vectors)


def canon_sets(sets, back=()) -> tuple:
    return tuple(sorted(tuple(sorted(oracle.apply_word(back, _tup(v)) for v in s)) for s in sets))


def canon_decomposition(parts, back=()) -> tuple:
    return tuple(
        sorted(
            (p.label, tuple(sorted(oracle.apply_word(back, _tup(m)) for m in p.members)))
            for p in parts
        )
    )


def canon_points(points) -> tuple:
    return tuple((p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator) for p in points)


# --- orbits -------------------------------------------------------------------

# (r, support) pairs; with labels >= 1 on the support the orbit size is
# |W|/|W_J|, J the complement, which runs from 27 to 69,120 here.
ORBIT_SUPPORTS = [
    (6, (1,)), (6, (6,)), (6, (2,)), (6, (3,)), (6, (2, 3)),
    (7, (6,)), (7, (7,)), (7, (3,)),
    (7, (4,)), (7, (1, 2)), (7, (1, 7)), (7, (6, 7)), (7, (4,)), (7, (1, 2)),  # size 4032 each
    (8, (7,)), (8, (1,)), (8, (8,)), (8, (2,)),
]
LABEL_VALUES = (1, 2)
# The largest orbit sets the run's peak memory; labels of 2 make its
# coefficients larger ints and its footprint about 20% bigger, so its
# labels are fixed and the peak does not depend on the draw.
FIXED_LABELS = {(8, (2,)): (1,)}


def label_values(r: int, support) -> tuple[int, ...]:
    return FIXED_LABELS.get((r, support), LABEL_VALUES)


def orbit_labels(r: int, support, rng: random.Random) -> tuple[int, ...]:
    values = label_values(r, support)
    return tuple(rng.choice(values) if i in support else 0 for i in range(1, r + 1))


def orbit_key(r: int, lab: tuple[int, ...]) -> str:
    return f"orbit/{r}/{','.join(map(str, lab))}"


def all_orbit_labels():
    """Every (r, labels) the orbit generator can draw."""
    out = []
    for r, support in sorted(set(ORBIT_SUPPORTS)):
        for values in _products(label_values(r, support), len(support)):
            lab = dict(zip(support, values))
            out.append((r, tuple(lab.get(i, 0) for i in range(1, r + 1))))
    return out


def _products(values, n):
    if n == 0:
        return [()]
    return [(v, *rest) for v in values for rest in _products(values, n - 1)]


def orbit_op(r: int, support, rng, fps) -> Op:
    lab = orbit_labels(r, support, rng)
    lam = oracle.weight(r, {i: a for i, a in enumerate(lab, 1) if a})
    v = oracle.apply_word(_word(rng, r), lam)
    size = oracle.orbit_size(v)
    lat = lattice.make_marked_lattice(r)
    vec = _vec(v)
    kind = f"orbit r={r} size={size}"

    def check(out):
        ensure(len(out) == size, f"orbit has {len(out)} elements, |W|/|W_J| = {size}")
        tuples = canon_vectors(out)
        ensure(v in set(tuples), "orbit does not contain its input")
        _matches(fps, orbit_key(r, lab), tuples)

    return Op(kind, f"orbit/{v}", lambda: weyl.orbit(vec, lat), check)


def dominant_op(r: int, rng) -> Op:
    lam = oracle.weight(r, {i: rng.randint(0, 3) for i in range(1, r + 1)})
    v = oracle.apply_word(_word(rng, r), lam)
    lat = lattice.make_marked_lattice(r)
    vec = _vec(v)

    def check(out):
        dom, word = out
        ensure(_tup(dom) == lam, "dominant representative differs from the generating weight")
        ensure(oracle.apply_word(word, v) == lam, "descent word does not reach the representative")

    return Op(f"dominant_representative r={r}", f"dominant/{v}",
              lambda: weyl.dominant_representative(vec, lat), check)


def connect_op(r: int, rng) -> Op:
    word = _word(rng, r, 30, 30)  # its cost follows the word length
    lat = lattice.make_marked_lattice(r)
    want = oracle.word_matrix(word, r)

    def call():
        return weyl.connect_markings(weyl.word_matrix(word, lat), lat)

    def check(out):
        ensure(oracle.word_matrix(out, r) == want, "factored word gives another isometry")

    return Op(f"connect_markings r={r}", f"connect/{r}/{want}", call, check)


def orbit_of_set_op(r: int, k: int, rng, fps) -> Op:
    start = oracle.basis(r)[r - k + 1 :]
    word = _word(rng, r)
    moved = [oracle.apply_word(word, b) for b in start]
    lat = lattice.make_marked_lattice(r)
    vecs = [_vec(t) for t in moved]
    size = oracle.DISJOINT_SET_ORBIT[(r, k)]

    def check(out):
        ensure(len(out) == size, f"orbit_of_set has {len(out)} sets, expected {size}")
        ensure(tuple(sorted(moved)) in {tuple(_tup(v) for v in s) for s in out},
               "orbit_of_set does not contain its input")
        _matches(fps, f"oos/{r}/{k}", canon_sets(out))

    return Op(f"orbit_of_set r={r} k={k}", f"oos/{sorted(moved)}",
              lambda: weyl.orbit_of_set(vecs, lat), check)


# Periods.  "Tied" bases kill a root subsystem (orbit small, many equal
# values); "generic" bases kill no root, so their orbit is all of W and the
# BFS is only affordable for r <= 5.  A base is moved by a random Weyl word
# before the call; the canonical form must not change.


def _points(n: int) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(i, n), Fraction(j, n)) for i in range(n) for j in range(n) if i or j]


TORSION_POINTS = sorted({p for n in range(2, 7) for p in _points(n)})
HALF_POINTS = _points(2)
TIED_FAMILIES = ("zero", "pair", "half2", "half4")
GENERIC_POOL = 4  # generic bases per (r, order)
GENERIC_RANKS = (4, 5)
GENERIC_ORDERS = (3, 4, 5, 6)


def _fmt_point(p) -> str:
    return f"{p[0]},{p[1]}"


def tied_base(r: int, family: str, t) -> list[tuple[Fraction, Fraction]]:
    zero = (Fraction(0), Fraction(0))
    images = [zero] * (r + 1)
    if family == "pair":
        images[1], images[2] = t, (-t[0] % 1, -t[1] % 1)
    elif family in ("half2", "half4"):
        for i in range(1, 3 if family == "half2" else 5):
            images[i] = t
    return images


def generic_base(r: int, n: int, idx: int) -> list[tuple[Fraction, Fraction]]:
    """The idx-th n-torsion base killing no root, from a fixed pool."""
    rng = random.Random(f"generic/{r}/{n}")
    found = []
    while len(found) <= idx:
        pts = [(Fraction(rng.randrange(n), n), Fraction(rng.randrange(n), n)) for _ in range(r)]
        h = pts[0]
        es = pts[1:]
        last = ((3 * h[0] - sum(e[0] for e in es)) % 1, (3 * h[1] - sum(e[1] for e in es)) % 1)
        images = [h, *es, last]
        if not oracle.kills_root(images):
            found.append(images)
    return found[idx]


def all_period_bases():
    """Every (fingerprint key, r, base images) the period generator can draw."""
    out = []
    for r in (5, 6, 7):
        out.append((f"period/{r}/zero", r, tied_base(r, "zero", None)))
        for t in TORSION_POINTS:
            out.append((f"period/{r}/pair/{_fmt_point(t)}", r, tied_base(r, "pair", t)))
        for fam in ("half2", "half4"):
            for t in HALF_POINTS:
                out.append((f"period/{r}/{fam}/{_fmt_point(t)}", r, tied_base(r, fam, t)))
    for r in GENERIC_RANKS:
        for n in GENERIC_ORDERS:
            for idx in range(GENERIC_POOL):
                out.append((f"period/{r}/generic/{n}/{idx}", r, generic_base(r, n, idx)))
    return out


def moved_period(images, word):
    """Basis images of p o w: the value of p on w(b) for each basis vector b."""
    r = len(images) - 1
    out = []
    for b in oracle.basis(r):
        wb = oracle.apply_word(word, b)
        x = sum(c * p[0] for c, p in zip(wb, images)) % 1
        y = sum(c * p[1] for c, p in zip(wb, images)) % 1
        out.append((x, y))
    return out


def make_period(images):
    return period.make_period([period.TorsionPoint(x, y) for x, y in images])


def period_op(r: int, fkey: str, base, rng, fps, kind: str) -> Op:
    moved = moved_period(base, _word(rng, r))
    per = make_period(moved)
    lat = lattice.make_marked_lattice(r)

    def check(out):
        ensure(len(out) == r, "canonical form has the wrong length")
        _matches(fps, fkey, canon_points(out))

    return Op(kind, f"period/{moved}", lambda: period.weyl_canonicalize(per, lat), check)


def tied_period_op(family: str, rng, fps) -> Op:
    r = rng.choice((5, 6, 7))
    if family == "zero":
        t, fkey = None, f"period/{r}/zero"
    else:
        t = rng.choice(TORSION_POINTS if family == "pair" else HALF_POINTS)
        fkey = f"period/{r}/{family}/{_fmt_point(t)}"
    return period_op(r, fkey, tied_base(r, family, t), rng, fps, f"weyl_canonicalize tied r={r} {family}")


def generic_period_op(r: int, rng, fps) -> Op:
    n = rng.choice(GENERIC_ORDERS)
    idx = rng.randrange(GENERIC_POOL)
    return period_op(r, f"period/{r}/generic/{n}/{idx}", generic_base(r, n, idx), rng, fps,
                     f"weyl_canonicalize generic r={r}")


# --- incidence ------------------------------------------------------------------

DISJOINT_CASES = [(6, k) for k in range(2, 7)] + [(7, k) for k in range(2, 8)] + [(8, 2), (8, 3)]
BLOWDOWN_COUNT = {6: 72, 7: 576}  # |W(E_r)| / r!
DEGENERATE_RANKS = (6, 7, 8)


def disjoint_op(r: int, k: int, fps) -> Op:
    lat = lattice.make_marked_lattice(r)

    def check(out):
        if k == r:
            ensure(len(out) == BLOWDOWN_COUNT[r], f"{len(out)} blowdown sets, expected |W|/r!")
        _matches(fps, f"dls/{r}/{k}", canon_sets(out))

    return Op(f"disjoint_line_sets r={r} k={k}", f"dls/{r}/{k}",
              lambda: geometry.disjoint_line_sets(lat, k), check)


def blowdown_op(r: int, rng) -> Op:
    sets = [sorted(s) for s in oracle.disjoint_sets(r, r)]
    rng.shuffle(sets)
    lat = lattice.make_marked_lattice(r)
    vec_sets = [[_vec(t) for t in s] for s in sets]
    kappa = (3,) + (-1,) * r

    def call():
        return [geometry.blowdown_basis(s, lat) for s in vec_sets]

    def check(out):
        ensure(len(out) == BLOWDOWN_COUNT[r], "wrong number of blowdown bases")
        for s, b in zip(sets, out):
            g = _tup(b.gamma)
            eps = [_tup(e) for e in b.epsilons]
            ensure(sorted(eps) == s, "blowdown basis does not keep its lines")
            ensure(oracle.ip(g, g) == 1 and all(oracle.ip(g, e) == 0 for e in eps),
                   "gamma is not orthogonal of square 1")
            ensure(tuple(3 * x - sum(col) for x, *col in zip(g, *eps)) == kappa,
                   "kappa != 3 gamma - sum eps")

    return Op(f"blowdown_basis r={r} x{len(sets)}", f"blowdown/{r}", call, check)


def triples_op(fps) -> Op:
    lat = lattice.make_marked_lattice(6)

    def check(out):
        ensure(len(out) == 45, f"{len(out)} coplanar triples, expected 45")
        _matches(fps, "triples", canon_sets(out))

    return Op("coplanar_triples r=6", "triples", lambda: geometry.coplanar_triples(lat), check)


def double_sixes_op(fps) -> Op:
    lat = lattice.make_marked_lattice(6)

    def check(out):
        ensure(len(out) == 36, f"{len(out)} double sixes, expected 36")
        roots = set(oracle.roots(6))
        for a, b in out:
            rho = oracle.root_of_six([_tup(v) for v in a])
            ensure(rho in roots, "a six does not carry a root")
            ensure(oracle.root_of_six([_tup(v) for v in b]) == tuple(-x for x in rho),
                   "partner six does not carry the opposite root")
        _matches(fps, "double_sixes", tuple((canon_sets([a]), canon_sets([b])) for a, b in out))

    return Op("double_sixes r=6", "double_sixes", lambda: geometry.double_sixes(lat), check)


def cubic_op(fps) -> Op:
    lat = lattice.make_marked_lattice(6)

    def check(out):
        ensure(len(out) == 45, f"{len(out)} cubic-form triples, expected 45")
        _matches(fps, "cubic_form_support", canon_sets(out))

    return Op("cubic_form_support r=6", "cubic_form_support",
              lambda: weights.cubic_form_support(lat), check)


def degenerate_op(r: int, on: str, size: int | None, rng, fps) -> Op:
    """A random configuration: `size` (or any number of) simple coroots,
    moved by a random Weyl word."""
    nodes = rng.choice([s for s in oracle.subsets(r) if size is None or len(s) == size])
    word = _word(rng, r)
    back = tuple(reversed(word))
    curves = [_vec(oracle.apply_word(word, oracle.simple_coroot(r, i))) for i in nodes]
    lat = lattice.make_marked_lattice(r)
    mask = sum(1 << (i - 1) for i in nodes)

    def call():
        config = degeneration.make_configuration(curves, lat)
        found = [c.vector for c in getattr(geometry, on)(lat)]
        parts = degeneration.orbit_decomposition(config, found, lat)
        return parts, degeneration.incident_lines(config, lat)

    def check(out):
        parts, incident = out
        reps = [_tup(p.representative) for p in parts]
        ensure(reps == sorted(reps), "sub-orbits are not ordered by representative")
        for p in parts:
            ensure(p.members[0] == p.representative and list(p.members) == sorted(p.members),
                   "sub-orbit members are not sorted from the representative")
        _matches(fps, f"degen/{r}/{mask}/{on}", canon_decomposition(parts, back))
        _matches(fps, f"incident/{r}/{mask}", canon_sets([[c.vector for c in incident]], back))

    return Op(f"degenerate r={r} {on}", f"degen/{[_tup(c) for c in curves]}/{on}", call, check)


# --- reports --------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    argv: tuple[str, ...]
    cap: int | None = None  # DELPEZZO_ORBIT_CAP for this call
    exit_code: int = 0

    @property
    def kind(self) -> str:
        words = [f"cli {self.argv[0]}", f"r={self.argv[self.argv.index('--r') + 1]}"]
        if "--self-int" in self.argv:
            words.append(f"self-int={self.argv[self.argv.index('--self-int') + 1]}")
        if self.exit_code:
            words.append(f"exit={self.exit_code}")
        return " ".join(words)

    @property
    def key(self) -> str:
        env = f"{ORBIT_CAP_ENV}={self.cap} " if self.cap is not None else ""
        return "cli/" + env + " ".join(self.argv)


def run_report(rep: Report) -> tuple[int, str]:
    """One in-process `delpezzo.cli.run`, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    old = os.environ.get(ORBIT_CAP_ENV)
    if rep.cap is not None:
        os.environ[ORBIT_CAP_ENV] = str(rep.cap)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(rep.argv))
    finally:
        if rep.cap is not None:
            if old is None:
                del os.environ[ORBIT_CAP_ENV]
            else:
                os.environ[ORBIT_CAP_ENV] = old
    return code, out.getvalue()


def _both(*argv: str) -> list[Report]:
    return [Report((*argv, "--format", f)) for f in ("table", "json")]


def _ranks(lo: int, hi: int):
    return range(lo, hi + 1)


def report_strata() -> dict[str, list[Report]]:
    """Report argv grouped into strata of one subcommand and similar cost;
    a round draws a fixed number from each stratum."""
    s: dict[str, list[Report]] = {}
    s["lines_r6"] = [Report(("lines", "--r", "6"))]
    s["roots"] = [x for r in _ranks(3, 6) for p in ((), ("--positive",))
                  for x in _both("roots", "--r", str(r), *p)]
    s["roots_r78"] = [x for r in (7, 8) for p in ((), ("--positive",))
                      for x in _both("roots", "--r", str(r), *p)]
    s["lines"] = [x for r in _ranks(3, 7) for x in _both("lines", "--r", str(r))]
    # The 240 lines at r = 8, listed directly or as (-1, 1) classes.
    s["lines_r8"] = (_both("lines", "--r", "8")
                     + _both("classes", "--r", "8", "--self-int", "-1", "--degree", "1"))
    s["classes_small"] = [x for r in _ranks(3, 7) for si, d in ((0, 2), (-1, 1))
                          for x in _both("classes", "--r", str(r), "--self-int", str(si), "--degree", str(d))]
    s["classes_small"] += [x for r in _ranks(3, 6)
                           for x in _both("classes", "--r", str(r), "--self-int", "1", "--degree", "3")]
    s["classes_r8_conics"] = _both("classes", "--r", "8", "--self-int", "0", "--degree", "2")
    s["classes_r8_cubics"] = _both("classes", "--r", "8", "--self-int", "1", "--degree", "3")
    s["classes_r8_quartics"] = _both("classes", "--r", "8", "--self-int", "2", "--degree", "4")
    s["triples"] = _both("triples", "--r", "6")
    s["sixes"] = _both("sixes", "--r", "6") + _both("sixes", "--r", "6", "--double")
    s["orbit"] = [x for r in _ranks(3, 6) for x in _both("orbit", "--r", str(r), "--weight", f"e{r}")]
    s["orbit"] += [x for r in _ranks(4, 6) for x in _both("orbit", "--r", str(r), "--weight", "h-e1")]
    s["orbit_r78"] = (_both("orbit", "--r", "7", "--weight", "e7")
                      + _both("orbit", "--r", "7", "--weight", "h-e1")
                      + _both("orbit", "--r", "8", "--weight", "e8"))
    s["weights"] = [x for r in _ranks(4, 8) for x in _both("weights", "--r", str(r), "--adjoint")]
    s["weights"] += [x for r in _ranks(3, 8) for i in _ranks(1, r) for m in ((), ("--dual",))
                     for x in _both("weights", "--r", str(r), "--fundamental", str(i), *m)]
    s["weights_minuscule"] = [x for r in _ranks(3, 7) for i in _ranks(1, r)
                              for x in _both("weights", "--r", str(r), "--fundamental", str(i),
                                             "--minuscule")]
    s["degenerate"] = [x for c in ("e1-e2", "e1-e2,e2-e3", "e1-e2,h-e1-e2-e3", "e1-e2,e3-e4,e5-e6",
                                   "e1-e2,e2-e3,e3-e4,h-e1-e2-e3",
                                   "e1-e2,e2-e3,e3-e4,e4-e5,e5-e6,h-e1-e2-e3")
                       for x in _both("degenerate", "--r", "6", "--curves", c)]
    s["degenerate_r78"] = [x for c in ("e1-e2", "e2-e3,e4-e5",
                                       "e1-e2,e2-e3,e3-e4,e4-e5,e5-e6,e6-e7,h-e1-e2-e3")
                           for x in _both("degenerate", "--r", "7", "--curves", c)]
    s["degenerate_r78"] += [x for c in ("e1-e2", "e1-e2,e2-e3,h-e4-e5-e6",
                                        "e1-e2,e2-e3,e3-e4,e4-e5,e5-e6,e6-e7,e7-e8,h-e1-e2-e3")
                            for x in _both("degenerate", "--r", "8", "--curves", c)]
    assigns = {
        5: [(), ("--assign", "e1=1/2,0", "--assign", "e2=1/2,0"),
            ("--assign", "e1=1/3,2/3", "--assign", "e2=2/3,1/3")],
        6: [(), ("--assign", "e1=1/2,0", "--assign", "e6=1/2,0"),
            ("--assign", "e1=1/5,2/5", "--assign", "e2=4/5,3/5")],
        7: [("--assign", "e2=1/2,1/2", "--assign", "e5=1/2,1/2")],
    }
    s["period"] = [x for r, al in assigns.items() for a in al
                   for x in _both("period", "--r", str(r), *a)]
    # Canonical forms of tied periods at r = 6, 7: about 0.1 s each.
    s["period_canonical"] = [x for r, al in assigns.items() if r > 5 for a in al if a
                             for x in _both("period", "--r", str(r), *a, "--canonical")]
    s["parse_errors"] = [
        Report(("orbit", "--r", "6", "--weight", "3h-e1-x2"), exit_code=2),
        Report(("orbit", "--r", "7", "--weight", "e9"), exit_code=2),
    ]
    s["cap_hits"] = [
        Report(("orbit", "--r", "7", "--weight", "h", "--format", "json"), cap=100, exit_code=3),
        Report(("orbit", "--r", "8", "--weight", "e8"), cap=50, exit_code=3),
    ]
    return s


def report_op(rep: Report, fps) -> Op:
    def check(out):
        code, text = out
        ensure(code == rep.exit_code, f"exit code {code}, expected {rep.exit_code}")
        if rep.exit_code:
            ensure(text == "", "a failing report wrote to stdout")
        _matches(fps, rep.key, (code, text))

    return Op(rep.kind, rep.key, lambda: run_report(rep), check)


# --- the workloads ----------------------------------------------------------------


class Workload:
    """A named, seeded source of rounds; each round is one copy of the mix."""

    def __init__(self, name: str, seed: int, fingerprints: dict[str, str]):
        if name not in MIXES:
            raise ValueError(f"unknown workload {name!r}; choose from {sorted(MIXES)}")
        self.name = name
        self.rng = random.Random(f"{name}/{seed}")
        self.fps = fingerprints
        self._mix = MIXES[name]

    def round(self) -> list[Op]:
        """One copy of the mix with fresh inputs, in the mix's fixed order
        (a shuffled order moved peak memory by several percent, through
        heap fragmentation, from one seed to the next)."""
        return self._mix(self.rng, self.fps)


# Each mix puts the median and the 90th percentile inside a block of
# operations of similar cost (r = 8 connect_markings and the 4032-element
# orbits in `orbits`, r = 7 line decompositions and r = 8 conic decompositions in
# `incidence`, r = 8 line listings and tied canonical forms in `reports`),
# so that neither percentile sits on the edge between two op sizes.


def orbits_mix(rng, fps) -> list[Op]:
    ops = [orbit_op(r, s, rng, fps) for r, s in ORBIT_SUPPORTS]
    ops += [dominant_op(r, rng) for r in (7, 8) for _ in range(10)]
    # connect_markings costs about 40% more at r = 8 than at r = 7; the
    # median falls inside the r = 8 block.
    ops += [connect_op(7, rng) for _ in range(4)]
    ops += [connect_op(8, rng) for _ in range(16)]
    ops += [orbit_of_set_op(r, k, rng, fps) for r, k in oracle.DISJOINT_SET_ORBIT]
    ops += [tied_period_op(family, rng, fps) for family in TIED_FAMILIES for _ in range(2)]
    ops += [generic_period_op(4, rng, fps) for _ in range(4)]
    ops += [generic_period_op(5, rng, fps)]
    return ops


# (r, weights, number of curves or None for any): count.  The cost of a
# decomposition grows with the number of curves; the blocks that hold the
# percentiles, and the block below the median, fix it.
DEGENERATE_COUNTS = {(6, "lines", 2): 16, (6, "conics", 2): 16, (7, "lines", 3): 12,
                     (7, "conics", None): 6, (8, "lines", None): 6, (8, "conics", 4): 6}


def incidence_mix(rng, fps) -> list[Op]:
    ops = [disjoint_op(r, k, fps) for r, k in DISJOINT_CASES]
    ops += [blowdown_op(r, rng) for r in (6, 7)]
    ops += [triples_op(fps), double_sixes_op(fps), cubic_op(fps)]
    ops += [degenerate_op(r, on, size, rng, fps) for (r, on, size), n in DEGENERATE_COUNTS.items()
            for _ in range(n)]
    return ops


# Below the median: 25 reports of a few ms.  The median falls in the
# block of 14 r = 8 line listings; above it, 26 larger reports, with the
# 90th percentile in the block of 6 tied canonical forms.
REPORT_COUNTS = {
    "lines_r6": 1, "roots": 4, "lines": 3, "classes_small": 4, "triples": 1, "orbit": 3,
    "weights": 4, "degenerate": 1, "period": 2, "parse_errors": 1, "cap_hits": 1,
    "lines_r8": 14,
    "roots_r78": 4, "weights_minuscule": 3, "degenerate_r78": 4, "orbit_r78": 2,
    "classes_r8_conics": 2, "sixes": 2, "period_canonical": 6, "classes_r8_cubics": 2,
    "classes_r8_quartics": 1,
}


def reports_mix(rng, fps) -> list[Op]:
    strata = report_strata()
    return [report_op(rng.choice(strata[name]), fps)
            for name, count in REPORT_COUNTS.items() for _ in range(count)]


MIXES = {"orbits": orbits_mix, "incidence": incidence_mix, "reports": reports_mix}
