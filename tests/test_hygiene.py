"""Every imported name is used.

A stdlib `ast` scan of the package (minus the `__init__.py` re-exports),
the tests and the demos: a name bound by an import statement must be read
somewhere in the same file, as a name or inside a string annotation.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for pattern in ("src/delpezzo/*.py", "tests/*.py", "demos/*.py")
    for p in ROOT.glob(pattern)
    if p != ROOT / "src" / "delpezzo" / "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for field in ("annotation", "returns"):
            ann = getattr(node, field, None)
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _read(ast.parse(ann.value, mode="eval"))
    return names


def test_scan_covers_every_layer():
    names = {p.relative_to(ROOT).as_posix() for p in FILES}
    assert {"src/delpezzo/weyl.py", "tests/test_hygiene.py", "demos/period_points.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in read
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import isqrt, lcm\nx: 'lcm' = 1\n")
    assert set(_imported(tree)) - _read(tree) == {"os", "isqrt"}
