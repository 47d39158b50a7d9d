"""Every demo prints exactly its recorded output.

Each `demos/*.py` runs in a subprocess with PYTHONPATH=src, and its exit
code must be 0 and its stdout byte-identical to
tests/golden/demos/<demo>.out.  The goldens are data, not regenerated by
the test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def test_every_demo_has_a_golden():
    assert DEMOS
    assert {p.stem for p in DEMOS} == {p.stem for p in GOLDEN.glob("*.out")}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_matches_golden(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT, timeout=300
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / f"{demo.stem}.out").read_bytes()
