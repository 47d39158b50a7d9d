"""Record the output fingerprints that the benchmark's checks compare against.

    python3 perfbench/record_fingerprints.py

Run at the commit whose outputs are the reference (the benchmark's were
recorded from the seed package).  It computes every canonical input the
generators can draw and writes perfbench/fingerprints.json.  A later
change that alters any output makes those operations count as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads as wl  # noqa: E402
from delpezzo import degeneration, geometry, lattice, period, weights, weyl  # noqa: E402


def record() -> dict[str, str]:
    fps: dict[str, str] = {}
    mk = lattice.make_marked_lattice
    for r, lab in wl.all_orbit_labels():
        lam = oracle.weight(r, {i: a for i, a in enumerate(lab, 1) if a})
        fps[wl.orbit_key(r, lab)] = oracle.digest(wl.canon_vectors(weyl.orbit(wl._vec(lam), mk(r))))
    for r, k in oracle.DISJOINT_SET_ORBIT:
        start = [wl._vec(b) for b in oracle.basis(r)[r - k + 1 :]]
        fps[f"oos/{r}/{k}"] = oracle.digest(wl.canon_sets(weyl.orbit_of_set(start, mk(r))))
    for key, r, base in wl.all_period_bases():
        fps[key] = oracle.digest(wl.canon_points(period.weyl_canonicalize(wl.make_period(base), mk(r))))
    for r, k in wl.DISJOINT_CASES:
        fps[f"dls/{r}/{k}"] = oracle.digest(wl.canon_sets(geometry.disjoint_line_sets(mk(r), k)))
    six = mk(6)
    fps["triples"] = oracle.digest(wl.canon_sets(geometry.coplanar_triples(six)))
    fps["double_sixes"] = oracle.digest(
        tuple((wl.canon_sets([a]), wl.canon_sets([b])) for a, b in geometry.double_sixes(six)))
    fps["cubic_form_support"] = oracle.digest(wl.canon_sets(weights.cubic_form_support(six)))
    for r in wl.DEGENERATE_RANKS:
        lat = mk(r)
        found = {on: [c.vector for c in getattr(geometry, on)(lat)] for on in ("lines", "conics")}
        for nodes in oracle.subsets(r):
            mask = sum(1 << (i - 1) for i in nodes)
            config = degeneration.make_configuration([lat.simple_coroots[i - 1] for i in nodes], lat)
            for on, vecs in found.items():
                parts = degeneration.orbit_decomposition(config, vecs, lat)
                fps[f"degen/{r}/{mask}/{on}"] = oracle.digest(wl.canon_decomposition(parts))
            incident = degeneration.incident_lines(config, lat)
            fps[f"incident/{r}/{mask}"] = oracle.digest(wl.canon_sets([[c.vector for c in incident]]))
    for reports in wl.report_strata().values():
        for rep in reports:
            code, text = wl.run_report(rep)
            if code != rep.exit_code:
                raise SystemExit(f"{rep.key}: exit code {code}, expected {rep.exit_code}")
            fps[rep.key] = oracle.digest((code, text))
    return fps


if __name__ == "__main__":
    out = HERE / "fingerprints.json"
    fps = record()
    out.write_text(json.dumps(fps, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(fps)} fingerprints to {out}")
