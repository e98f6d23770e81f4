"""Every name a package module imports is used in that module, every
module-private top-level function, class or constant is referenced there,
and no float enters the package outside plotting and float rejection.

The package ``__init__`` is exempt from the import check: it imports in
order to re-export.  Names used only inside quoted annotations count as
used; a name that is only assigned to does not.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "commensura"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of the import that binds it."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= _used(ast.parse(sub.value, mode="eval"))
    return names


def test_modules_found():
    assert {p.name for p in MODULES} >= {"scalars.py", "tilings.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def _private_definitions(tree: ast.Module) -> dict:
    """Top-level private (single underscore) name -> line that defines it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _private_definitions(tree).items() if name not in used}
    assert not unused, f"{path.name}: defined but never referenced: {unused}"


# The only places a float may appear: the plot output, whose values are
# presentation only, and as_rat, which refuses float input.
FLOAT_ALLOWED = {("cli.py", "_plot_value"), ("_rat.py", "as_rat")}


def _float_uses(tree: ast.Module) -> list:
    """(enclosing top-level definition or None, line) of every ``float``
    name and every float literal."""
    out = []
    for top in tree.body:
        scope = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == "float") or (
                isinstance(node, ast.Constant) and isinstance(node.value, float)
            ):
                out.append((scope, node.lineno))
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_float_outside_plotting_and_rejection(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses = [(scope, line) for scope, line in _float_uses(tree) if (path.name, scope) not in FLOAT_ALLOWED]
    assert not uses, f"{path.name}: float used at {uses}"


def test_float_allowances_are_in_use():
    found = {
        (path.name, scope)
        for path in PACKAGE.glob("*.py")
        for scope, _ in _float_uses(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == FLOAT_ALLOWED


# A .get(...) default is evaluated on every call, hit or miss, so a rational
# built there is thrown away whenever the key is present; a shared constant
# or an explicit membership test does the same job.
RATIONAL_BUILDERS = {"Rat", "Fraction"}


def _rational_get_defaults(tree: ast.Module) -> list:
    """Lines of ``.get(key, default)`` calls whose default calls Rat or Fraction."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr != "get" or len(node.args) < 2:
            continue
        for sub in ast.walk(node.args[1]):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in RATIONAL_BUILDERS
            ):
                out.append(node.lineno)
                break
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_rational_built_as_a_get_default(path):
    lines = _rational_get_defaults(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name}: .get(...) builds a rational default at lines {lines}"


def test_rational_get_default_rule_sees_one():
    tree = ast.parse("x = d.get(k, Rat(0)) + e.get(k, -Fraction(1, 2))\ny = d.get(k, ZERO)\n")
    assert _rational_get_defaults(tree) == [1, 1]


# Scalars and Areas store integer numerators over one denominator and
# have no rational ``coeffs`` view; a read of one would fail only when its
# line runs, so it is caught here statically.
def _coeffs_reads(tree: ast.Module) -> list:
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "coeffs"
    )


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "scalars.py"), ids=lambda p: p.name
)
def test_no_coeffs_view_outside_scalars(path):
    lines = _coeffs_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name}: reads the rational .coeffs view at lines {lines}"


def test_coeffs_rule_sees_one():
    tree = ast.parse("x = s.coeffs.get(0)\ny = s.num.get(0)\nfor k in a.coeffs:\n    pass\n")
    assert _coeffs_reads(tree) == [1, 3]


# Memoised results live with the object they describe (a graph keeps its
# trees and shape facts and drops them when it changes); a
# functools cache would hold every argument and result for the life of
# the process and share them between unrelated graphs.
FUNCTOOLS_CACHES = {"lru_cache", "cache"}


def _functools_caches(tree: ast.Module) -> list:
    """Lines that import or name functools.lru_cache or functools.cache."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in FUNCTOOLS_CACHES for alias in node.names):
                out.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in FUNCTOOLS_CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_functools_cache(path):
    lines = _functools_caches(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name}: functools cache at lines {lines}"


def test_functools_cache_rule_sees_one():
    tree = ast.parse(
        "import functools\n"
        "from functools import cmp_to_key, lru_cache\n"
        "@functools.cache\n"
        "def f(x):\n"
        "    return functools.reduce(max, x)\n"
        "g = functools.lru_cache(maxsize=None)(f)\n"
    )
    assert _functools_caches(tree) == [2, 3, 6]


# ``cli._machine_text`` is the one machine encoder: a json.dumps elsewhere in
# the package would be a second writer whose bytes could drift from it.
def _json_dumps_uses(tree: ast.Module) -> list:
    """Lines that import json.dumps or name ``json.dumps``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(alias.name == "dumps" for alias in node.names):
                out.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "dumps"
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ):
            out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_json_dumps(path):
    lines = _json_dumps_uses(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name}: json.dumps at lines {lines}"


def test_json_dumps_rule_sees_one():
    tree = ast.parse(
        "import json\n"
        "from json import dumps, loads\n"
        "text = json.dumps(payload, indent=2)\n"
        "doc = json.loads(text)\n"
    )
    assert _json_dumps_uses(tree) == [2, 3]
