"""Deterministic command-line reports over the lattice toolkit.

Every subcommand prints one report (JSON or a plain table) on stdout.
Identical invocations produce byte-identical output: items are sorted,
and wall-clock timing only appears when --timing is passed.  A JSON
report is byte for byte json.dumps(report, indent=2) and a newline.  One
writer prints both formats as a head, the items, then a tail, and joins
items that are all str in one call.

The texts of the roots, lines and conics of a rank are walked once per
process (_fixed_texts), which pays only for repeated calls of run; a
classes report of any other type walks it on each call.

Exit codes: 0 success, 2 domain/configuration errors (including vector
parse errors and numbers longer than str() prints), 3 resource caps.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from collections import Counter
from functools import lru_cache
from typing import Sequence

from . import __version__
from .degeneration import make_configuration, orbit_decomposition
from .errors import DomainError, OrbitCapError
from .geometry import (
    _check_adjunction,
    _disjoint_sets,
    _line_table,
    coplanar_triples,
    double_sixes,
)
from .lattice import (
    _symbols,
    _texts_of_type,
    degree,
    make_marked_lattice,
    parse_vector,
)
from .period import TorsionPoint, make_period, restrict_to_coroots, weyl_canonicalize
from .weights import (
    adjoint_weight_system,
    central_character,
    dual_partner,
    fundamental_weight_lift,
    is_minuscule,
    weight_evaluations,
)
from .weyl import DEFAULT_ORBIT_CAP, _capped_orbit_size, format_word, orbit

ORBIT_CAP_ENV = "DELPEZZO_ORBIT_CAP"


def _orbit_cap() -> int:
    raw = os.environ.get(ORBIT_CAP_ENV)
    if raw is None:
        return DEFAULT_ORBIT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"{ORBIT_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise DomainError(f"{ORBIT_CAP_ENV} must be positive, got {cap}")
    return cap


# --- handlers ----------------------------------------------------------------


@lru_cache(maxsize=None)  # built on first use; only for the types below
def _fixed_texts(r: int, norm: int, deg: int) -> tuple[str, ...]:
    return tuple(_texts_of_type(r, norm, deg))


_TABLED = {(-2, 0), (-1, 1), (0, 2)}  # roots, lines, conics: at most 2,160 a rank


def _handle_roots(args, lattice):
    texts = _fixed_texts(lattice.r, -2, 0)  # sorted: the positive roots are its upper half
    found = texts[len(texts) // 2 :] if args.positive else texts
    return {"positive": bool(args.positive)}, {}, list(found), {}


def _handle_lines(args, lattice):
    return {}, {}, list(_fixed_texts(lattice.r, -1, 1)), {}


def _handle_classes(args, lattice):
    norm, deg = args.self_int, args.degree
    _check_adjunction(norm, deg)
    if (norm, deg) in _TABLED:
        items = list(_fixed_texts(lattice.r, norm, deg))
    else:
        items = _texts_of_type(lattice.r, norm, deg)
    return {"self_int": norm, "degree": deg}, {}, items, {}


def _handle_triples(args, lattice):
    items = [sorted(str(v) for v in t) for t in coplanar_triples(lattice)]
    return {}, {}, items, {}


def _handle_sixes(args, lattice):
    if args.double:
        items = [
            {"six": sorted(map(str, a)), "partner": sorted(map(str, b))}
            for a, b in double_sixes(lattice)
        ]
        return {"double": True}, {"sixes": 2 * len(items)}, items, {}
    items = list(map(sorted, _disjoint_sets(lattice.r, 6, _fixed_texts(lattice.r, -1, 1))))
    return {"double": False}, {}, items, {}


def _handle_orbit(args, lattice):
    v = parse_vector(args.weight, lattice.r)
    members = orbit(v, lattice, cap=_orbit_cap())
    return {"weight": args.weight}, {}, [str(u) for u in members], {}


def _handle_weights(args, lattice):
    if args.mode == "adjoint":
        system = adjoint_weight_system(lattice)
        items = [{"weight": str(v), "multiplicity": m} for v, m in system.entries]
        counts = {"total_multiplicity": system.dimension}
        rest = {"dimension": system.dimension, "highest": str(system.highest)}
        return {"mode": "adjoint"}, counts, items, rest
    if args.fundamental is None:
        raise DomainError("--fundamental is required unless --adjoint is given")
    i = args.fundamental
    if args.mode == "dual":
        witness = dual_partner(i, lattice)
        item = {
            "index": witness.index,
            "partner": witness.partner,
            "word": format_word(witness.word),
            "kappa_multiple": witness.multiple,
        }
        return {"fundamental": i, "mode": "dual"}, {}, [item], {}
    lift = fundamental_weight_lift(lattice, i)
    item = {
        "index": i,
        "lift": str(lift.vector),
        "evaluations": list(weight_evaluations(lift, lattice)),
        "degree": degree(lift.vector, lattice),
        "central_character": central_character(lift, lattice),
    }
    if args.mode == "minuscule":
        item["minuscule"] = is_minuscule(lift, lattice)
        if item["minuscule"]:
            item["orbit_size"] = _capped_orbit_size(lift.vector, lattice, _orbit_cap())[1]
    return {"fundamental": i, "mode": args.mode}, {}, [item], {}


def _handle_degenerate(args, lattice):
    curves = [parse_vector(t, lattice.r) for t in args.curves.split(",")]
    config = make_configuration(curves, lattice)
    parts = orbit_decomposition(config, _line_table(lattice.r)[0], lattice)
    items = [
        {
            "representative": str(p.representative),
            "size": p.size,
            "label": p.label,
            "members": [str(m) for m in p.members],
        }
        for p in parts
    ]
    counts = {"classes": sum(p.size for p in parts), **Counter(f"size_{p.size}" for p in parts)}
    # a line is a singleton exactly when it is orthogonal to every curve
    counts["incident_lines"] = counts["classes"] - counts.get("size_1", 0)
    rest = {"gauge_type": str(config.dynkin)}
    return {"curves": args.curves}, counts, items, rest


def _parse_assignments(args, r) -> list[TorsionPoint]:
    points = [TorsionPoint.zero() for _ in range(r + 1)]
    for raw in args.assign:
        sym, eq, value = raw.partition("=")
        if not eq:
            raise DomainError(f"assignment {raw!r} must look like h=1/3,0")
        try:  # TypeError: not e<digits>; ValueError: more digits than int() reads
            slot = int(re.fullmatch(r"e(\d+)", sym)[1])
        except (TypeError, ValueError):
            slot = 0
        if not (sym == "h" or 1 <= slot <= r):
            raise DomainError(f"unknown basis symbol {sym!r} for r = {r}")
        points[slot] = TorsionPoint.parse(value)
    return points


def _handle_period(args, lattice):
    points = _parse_assignments(args, lattice.r)
    period = make_period(points)
    items = [{"basis": s, "value": str(p)} for s, p in zip(_symbols(lattice.r), period.images)]
    rest = {"coroot_values": [str(p) for p in restrict_to_coroots(period, lattice)]}
    if args.canonical:
        canonical = weyl_canonicalize(period, lattice, cap=_orbit_cap())
        rest["canonical"] = [str(p) for p in canonical]
    return {"canonical": bool(args.canonical)}, {}, items, rest


@lru_cache(maxsize=None)  # built on the first run, then shared by every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delpezzo", description="exact del Pezzo lattice reports"
    )
    parser.add_argument(
        "--version", action="version", version=f"delpezzo {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, handler, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--r", type=int, required=True, help="rank of the marking, 3..8")
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument("--timing", action="store_true", help="include timing_ms")
        return p

    p = cmd("roots", _handle_roots, help="list roots")
    p.add_argument("--positive", action="store_true")

    cmd("lines", _handle_lines, help="list line classes")

    p = cmd("classes", _handle_classes, help="list curve classes of given type")
    p.add_argument("--self-int", type=int, required=True, dest="self_int")
    p.add_argument("--degree", type=int, required=True)

    cmd("triples", _handle_triples, help="coplanar line triples (r=6)")

    p = cmd("sixes", _handle_sixes, help="sets of six disjoint lines (r >= 6)")
    p.add_argument("--double", action="store_true", help="pair them into double sixes (r=6)")

    p = cmd("orbit", _handle_orbit, help="Weyl orbit of a vector")
    p.add_argument("--weight", required=True, help="vector like 3h-e1-2e8")

    p = cmd("weights", _handle_weights, help="fundamental weight reports")
    p.add_argument("--fundamental", type=int, help="fundamental index 1..r")
    mode = p.add_mutually_exclusive_group()
    for name in ("minuscule", "dual", "adjoint"):
        mode.add_argument(f"--{name}", action="store_const", const=name, dest="mode")
    p.set_defaults(mode="lift")

    p = cmd(
        "degenerate", _handle_degenerate, help="orbit decomposition for an RDP configuration"
    )
    p.add_argument(
        "--curves", required=True, help="comma-separated roots, e.g. e1-e2,e2-e3"
    )

    p = cmd("period", _handle_period, help="torsion period point reports")
    p.add_argument(
        "--assign",
        action="append",
        default=[],
        metavar="SYM=A/B,C/D",
        help="basis image, e.g. h=1/3,0; unassigned symbols are 0",
    )
    p.add_argument("--canonical", action="store_true")
    return parser


# --- report emission ----------------------------------------------------------


def _render_value(value) -> str:
    if isinstance(value, list):
        return " | ".join(_render_value(v) for v in value)
    if isinstance(value, dict):
        return "  ".join(f"{k}={_render_value(v)}" for k, v in value.items())
    return str(value)


# the bytes json.dumps copies as they stand: printable ASCII but '"' and '\\'
_JSON_VERBATIM = bytes(b for b in range(32, 127) if b not in b'"\\')


def _plain(items: list) -> bool:
    """Whether items is a non-empty list of str that json copies as it
    stands: printable ASCII with no '"' and no backslash, the only text
    ensure_ascii leaves unescaped.  Deleting those bytes from the ASCII
    text must leave nothing."""
    try:
        text = "".join(items)
    except TypeError:  # a dict or list item
        return False
    return bool(items) and text.isascii() and not text.encode().translate(None, _JSON_VERBATIM)


def _write(head: dict, items: list, rest: dict, fmt: str) -> None:
    """Write a report from its three parts: head (tool, query, counts),
    items, and rest (the keys after items).  A table puts one item on each
    line; a JSON report is byte for byte
    json.dumps({**head, "items": items, **rest}, indent=2) + "\n".  Items
    that are all str are joined in one call; others are rendered one at a
    time."""
    if fmt == "json":
        parts = [json.dumps(head, indent=2)[:-2] + ',\n  "items": ']
        if _plain(items):
            parts += ('[\n    "', '",\n    "'.join(items), '"\n  ]')
        else:  # one level deeper than alone; a JSON string holds no raw newline
            parts.append(json.dumps(items, indent=2).replace("\n", "\n  "))
        parts.append("," + json.dumps(rest, indent=2)[1:] + "\n" if rest else "\n}\n")
    else:
        query = head["query"]
        lines = [query["command"] + "".join(
            f" {k}={v}" for k, v in query.items() if k != "command"
        )]
        lines += (f"{k}: {_render_value(v)}" for k, v in rest.items())
        lines.append("counts: " + " ".join(f"{k}={v}" for k, v in head["counts"].items()))
        try:
            body = "\n".join(items)
        except TypeError:  # a dict or list item
            body = "\n".join(map(_render_value, items))
        parts = ["\n".join(lines) + "\n", body, "\n" if items else ""]
    sys.stdout.writelines(parts)


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help/--version/usage errors
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        lattice = make_marked_lattice(args.r)
        query, counts, items, rest = args.handler(args, lattice)
    except (OrbitCapError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, OrbitCapError) else 2
    head = {
        "tool": {"name": "delpezzo", "version": __version__},
        "query": {"command": args.command, "r": args.r, **query},
        "counts": {"items": len(items), **counts},
    }
    if args.timing:
        rest["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    _write(head, items, rest, args.format)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
