"""Every imported name is used, and imported once; `import *` appears only
in the package's `__init__.py`; the package never calls str.isdigit; a
package module imports only the modules below it in the layer order.

A stdlib `ast` scan of the package (minus the `__init__.py` re-exports),
the tests and the demos: a name bound by an import statement must be read
somewhere in the same file, as a name or inside a string annotation, and
no two import statements in one file may bind the same name.  Only
`__init__.py` star-imports, and each module it star-imports declares its
public names in `__all__`, so a helper cannot leak into `delpezzo`.  The package
itself must not call `.isdigit()`: it accepts digits such as '²' that
int() rejects, so a digit test built on it lets int() raise ValueError.
The layers run errors, lattice, roots, weyl, geometry, degeneration,
weights, period, cli; a relative import, at module level or inside a
function, names an earlier one, so no cycle can be hidden in a function.
Unchecked wrapping lives in lattice.py alone: no other file reads
`object.__new__` or the slot setters `coeff_h.__set__` and
`coeff_e.__set__`, and `object.__setattr__` is called only on `self`, as a
frozen dataclass normalizing its own fields does.
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

PACKAGE = sorted((ROOT / "src" / "delpezzo").glob("*.py"))
INIT = ROOT / "src" / "delpezzo" / "__init__.py"


def _bindings(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for every name an import outside `from __future__` binds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.partition(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of an import that binds it."""
    return dict(_bindings(tree))


def _imported_twice(tree: ast.Module) -> list[str]:
    """Names bound by more than one import, with the lines that bind them."""
    where: dict[str, list[int]] = {}
    for name, line in _bindings(tree):
        where.setdefault(name, []).append(line)
    return sorted(
        f"{name} (lines {', '.join(map(str, sorted(lines)))})"
        for name, lines in where.items()
        if len(lines) > 1
    )


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


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_name_imported_twice(path):
    twice = _imported_twice(ast.parse(path.read_text(), filename=str(path)))
    assert not twice, f"{path.name} imports names more than once: {', '.join(twice)}"


def test_scan_flags_a_name_imported_twice():
    tree = ast.parse(
        "import os\nimport random\nfrom math import gcd\n"
        "def f():\n    import random\n    from os import sep as os\n"
    )
    assert _imported_twice(tree) == ["os (lines 1, 6)", "random (lines 2, 5)"]


def _star_imports(tree: ast.Module) -> list[str]:
    """Modules named by a `from ... import *`, with their leading dots."""
    return sorted(
        "." * node.level + (node.module or "")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names)
    )


def _defines_all(tree: ast.Module) -> bool:
    """Whether the module assigns `__all__` at top level."""
    return any(
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for node in tree.body
    )


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_star_import_outside_the_package_init(path):
    stars = _star_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not stars, f"{path.name} star-imports {', '.join(stars)}; only __init__.py may"


def test_star_imported_modules_define_all():
    stars = _star_imports(ast.parse(INIT.read_text(), filename=str(INIT)))
    assert stars
    paths = [INIT.parent / f"{m.lstrip('.')}.py" for m in stars]
    missing = [p.name for p in paths if not _defines_all(ast.parse(p.read_text()))]
    assert not missing, f"__init__.py star-imports modules without __all__: {missing}"


def test_scan_flags_a_star_import_and_a_missing_all():
    tree = ast.parse("from os import *\nfrom .lattice import *\nfrom math import isqrt\n")
    assert _star_imports(tree) == [".lattice", "os"]
    assert _defines_all(ast.parse("import os\n__all__ = ['f']\n"))
    assert not _defines_all(ast.parse("def f():\n    __all__ = []\n"))


def _isdigit_calls(tree: ast.Module) -> list[int]:
    """Lines of every call of a method named isdigit."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "isdigit"
    )


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_package_never_calls_isdigit(path):
    lines = _isdigit_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} calls .isdigit() on lines {lines}; use .isdecimal() or \\d"


def test_scan_flags_an_isdigit_call():
    tree = ast.parse(
        "s = 'e2'\nok = s[1:].isdecimal()\nif s[1:].isdigit():\n    name = 'isdigit'\n"
        "test = str.isdigit\n"
    )
    assert _isdigit_calls(tree) == [3]


LAYERS = (
    "errors", "lattice", "roots", "weyl", "geometry", "degeneration", "weights", "period", "cli"
)


def _upward_imports(tree: ast.Module, module: str) -> list[str]:
    """'line: name' for every relative import of a module not below `module`."""
    below = LAYERS[: LAYERS.index(module)]
    return sorted(
        f"{node.lineno}: {node.module}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level
        and node.module  # `from . import __version__` reads the package
        and node.module not in below
    )


def test_layer_order_names_every_module():
    assert {p.stem for p in PACKAGE} - {"__init__"} == set(LAYERS)


@pytest.mark.parametrize("path", sorted(set(PACKAGE) - {INIT}), ids=lambda p: p.stem)
def test_package_imports_only_lower_layers(path):
    upward = _upward_imports(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert not upward, f"{path.name} imports from its own or a higher layer: {upward}"


def test_scan_flags_an_upward_import():
    tree = ast.parse(
        "from .errors import DomainError\nfrom . import __version__\n"
        "def f():\n    from .weyl import orbit\n    from .roots import Root\n"
    )
    assert _upward_imports(tree, "roots") == ["4: weyl", "5: roots"]
    assert _upward_imports(tree, "geometry") == []


def _is_object_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )


def _unchecked_wraps(tree: ast.Module) -> list[int]:
    """Lines that read object.__new__, a coeff_h or coeff_e slot's __set__,
    or object.__setattr__ anywhere but as a call on `self`."""
    on_self = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and node.args
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "self"
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if _is_object_attr(node, "__new__")
        or (_is_object_attr(node, "__setattr__") and id(node) not in on_self)
        or (
            isinstance(node, ast.Attribute)
            and node.attr == "__set__"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in ("coeff_h", "coeff_e")
        )
    )


@pytest.mark.parametrize(
    "path",
    [p for p in FILES if p != ROOT / "src" / "delpezzo" / "lattice.py"],
    ids=lambda p: p.relative_to(ROOT).as_posix(),
)
def test_unchecked_wrapping_lives_in_lattice_alone(path):
    lines = _unchecked_wraps(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} wraps unchecked on lines {lines}; use lattice._vector"


def test_scan_flags_an_unchecked_wrap():
    tree = ast.parse(
        "v = object.__new__(LatticeVector)\nobject.__setattr__(v, 'coeff_h', 1)\n"
        "LatticeVector.coeff_e.__set__(v, ())\nnew, put = object.__new__, object.__setattr__\n"
        "class P:\n    def __post_init__(self):\n        object.__setattr__(self, 'x', 0)\n"
        "        self.coeff_h = 'coeff_h.__set__'\n"
    )
    assert _unchecked_wraps(tree) == [1, 2, 3, 4, 4]
