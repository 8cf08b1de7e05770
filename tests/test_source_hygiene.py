"""Static checks on the package source."""

import ast
import pathlib
import re
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cmcsurf"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import (except ``__future__``) -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, including names inside string annotations."""
    used = set()
    pending = [tree]
    while pending:
        for node in ast.walk(pending.pop()):
            if isinstance(node, ast.Name):
                used.add(node.id)
            annotations = []
            if isinstance(node, ast.arg | ast.AnnAssign):
                annotations.append(node.annotation)
            elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
                annotations.append(node.returns)
            for ann in annotations:
                for sub in ast.walk(ann) if ann is not None else ():
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                        pending.append(ast.parse(sub.value, mode="eval"))
    return used


# __init__.py is left out: its imports are the package's re-exports
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _referenced_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


#: Branches on the rotation type outside the SPECS table.
DISPATCH = re.compile(r"is (not )?RotationType\.|in \(RotationType\.|\bcase_a\b")


def test_rotation_dispatch_stays_in_the_table():
    # every per-type fact belongs in builders.SPECS
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if DISPATCH.search(line)]
    assert not hits, hits


#: Top-level packages the library may import besides the standard library.
DEPENDENCIES = {"numpy", "cmcsurf"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_the_package(path):
    tree = ast.parse(path.read_text(), str(path))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    foreign = {m for m in modules
               if m.split(".")[0] not in sys.stdlib_module_names | DEPENDENCIES}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


#: numpy ufuncs whose values may differ from libm's in the last bit; grid
#: code takes them from geometry.libm, which calls libm entry by entry.
TRANSCENDENTAL = {"cos", "sin", "tan", "cosh", "sinh", "tanh", "exp", "expm1",
                  "log", "log1p", "power", "float_power", "arcsin", "arccos", "arctan"}


def _numpy_transcendentals(tree: ast.Module) -> list[str]:
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "numpy"}
    hits = [f"{node.lineno}: numpy.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in TRANSCENDENTAL
            and isinstance(node.value, ast.Name) and node.value.id in aliases]
    hits += [f"{node.lineno}: from numpy import {alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "numpy"
             for alias in node.names if alias.name in TRANSCENDENTAL]
    return hits


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_transcendental_ufuncs(path):
    # reports are byte-identical between the float and the grid path only
    # while every transcendental value comes from libm
    hits = _numpy_transcendentals(ast.parse(path.read_text(), str(path)))
    assert not hits, f"{path.name}: {hits}"


def test_the_transcendental_check_sees_numpy_calls():
    source = "import numpy as np\nfrom numpy import exp\ny = np.cosh(x) + np.power(x, 2)\n"
    assert _numpy_transcendentals(ast.parse(source)) == [
        "3: numpy.cosh", "3: numpy.power", "2: from numpy import exp"]


#: An evenly spaced sample written out, lo + (hi - lo) * k / ... or the
#: midpoint form lo + (hi - lo) * (k + 0.5) / ...; the rules for them are
#: geometry.uniform and geometry.midpoints.
SAMPLE_RULE = re.compile(r"\+ \(\w+ - \w+\) \* (\w+|\([^()]*\)) / ")


def test_one_sample_rule():
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name != "geometry.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if SAMPLE_RULE.search(line)]
    assert not hits, hits


def _arclength_callers(tree: ast.Module) -> list[str]:
    """The innermost function around each call of an ``arclength`` attribute,
    "<module>" for a call outside every function."""
    owner = {node: fn.name for fn in ast.walk(tree)  # ast.walk reaches outer defs first
             if isinstance(fn, ast.FunctionDef | ast.AsyncFunctionDef) for node in ast.walk(fn)}
    return [owner.get(node, "<module>") for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "arclength"]


def test_the_arclength_check_sees_every_call():
    source = ("x = spec.arclength(a, b, c)\n"
              "def f(s):\n    g = lambda: s.arclength(*j)\n    def h():\n"
              "        return SPECS[t].arclength(*j)\n")
    assert sorted(_arclength_callers(ast.parse(source))) == ["<module>", "f", "h"]


def test_one_arclength_computation():
    # every check reads the residual from GeneratingCurve.arclength_residual,
    # which also turns an overflow of the expression into an invariant violation
    hits = [f"{path.name}:{caller}" for path in sorted(SRC.glob("*.py"))
            for caller in _arclength_callers(ast.parse(path.read_text(), str(path)))]
    assert hits == ["builders.py:arclength_residual"], hits


def _patch_jets_builds(node: ast.AST) -> int:
    """The ``PatchJets(`` calls under the node."""
    return sum(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
               and call.func.id == "PatchJets" for call in ast.walk(node))


def test_one_patch_assembly():
    # every rotation type's partials come from its position formula and the
    # formula's two v-derivatives, assembled by builders._patch_jets alone
    tree = ast.parse((SRC / "builders.py").read_text())
    assembly = [fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "_patch_jets"]
    assert len(assembly) == 1
    assert _patch_jets_builds(tree) == _patch_jets_builds(assembly[0]) == 1


#: A guard in front of a check: ``raise_at`` returns at once on False, and
#: the choice between a float and a grid belongs to ``geometry``.
GUARDED_CHECK = re.compile(r"^[ \t]*if \w+ is not (?:False|True):\n[ \t]*raise_at\(", re.M)


def _guarded_checks(source: str) -> list[int]:
    return [source.count("\n", 0, m.start()) + 1 for m in GUARDED_CHECK.finditer(source)]


def _is_ndarray_test(node: ast.AST) -> bool:
    return any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
               and call.func.id == "isinstance" and len(call.args) == 2
               and isinstance(call.args[1], ast.Attribute) and call.args[1].attr == "ndarray"
               for call in ast.walk(node))


def _is_select(branch: list[ast.AST]) -> bool:
    """Whether a branch only picks values, one of them by ``np.where``: it
    holds expressions, assignments and returns, and nothing that computes
    in a block of its own (a ``with`` or a loop)."""
    return (all(isinstance(stmt, ast.expr | ast.Expr | ast.Assign | ast.Return) for stmt in branch)
            and any(isinstance(sub, ast.Attribute) and sub.attr == "where"
                    and isinstance(sub.value, ast.Name) and sub.value.id == "np"
                    for stmt in branch for sub in ast.walk(stmt)))


def _grid_selects(tree: ast.Module) -> list[int]:
    """The line of each branch on ``isinstance(..., np.ndarray)`` (an if
    statement or expression) whose grid side is a select by ``np.where``:
    the choice ``geometry.where`` makes for floats and grids alike."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.If | ast.IfExp) and _is_ndarray_test(node.test)
            and _is_select(node.body if isinstance(node, ast.If) else [node.body])]


def test_the_float_grid_checks_see_guards_and_selects():
    source = ("def f(x, m):\n"
              "    bad = x <= 0.0\n"
              "    if bad is not False:\n"
              "        raise_at(bad, ValueError, 'x')\n"
              "    ok = x > 1.0\n"
              "    if ok is not True:\n"
              "        raise_at(negate(ok), ValueError, 'y')\n"
              "    if isinstance(m, np.ndarray):\n"
              "        return np.where(m > 0.0, 1, -1)\n"
              "    if isinstance(x, np.ndarray):  # a computation of its own\n"
              "        with collect_faults() as faults:\n"
              "            x = x + 1\n"
              "        return np.where(faults[0], -1, x)\n"
              "    return np.where(m, 0.0, x) if isinstance(x, np.ndarray) else 0.0\n")
    assert _guarded_checks(source) == [3, 6]
    assert sorted(_grid_selects(ast.parse(source))) == [8, 14]


def test_the_float_grid_contract_stays_in_geometry():
    # a check is one raise_at and a per-point choice one geometry.where,
    # whether the caller runs on a float or a grid
    guards = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
              for line in _guarded_checks(path.read_text())]
    selects = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
               if path.name != "geometry.py"
               for line in _grid_selects(ast.parse(path.read_text(), str(path)))]
    assert not guards, guards
    assert not selects, selects
