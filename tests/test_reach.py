"""Every public definition in src/jetgauge is reached from a documented root.

The walk is by name over the AST, so it over-counts what is reached: a
name reaches every module-level definition that carries it, in any module.
An attribute read on numpy (np.zeros) names numpy's definition, never the
package's, so it reaches nothing.
A module-level definition is a function, a class (with all its methods) or
a table assigned at module level.  The roots are cli.main, everything in
the five suite modules (_suite_<name>), the jetgauge names the benchmark in perfbench/ uses, the
imports of the acceptance tests and the documented API: the union of every
public module's __all__.  Prose keeps nothing alive; a name the README puts
in backticks must be in its module's __all__ instead.
By the same walk, a defaulted parameter of a function in src/jetgauge is
given a value by some call in src/, or it is a named exception.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from jetgauge.suites import SUITE_NAMES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jetgauge"

# Library rows that state an identity no suite checks yet.  Each is either
# promoted to a suite check, and leaves this tuple, or deleted; until then
# it stays out of every __all__.  Each waits on a ROADMAP item:
# bracket_jacobi_residual on item 8 (closure certified on the sampled
# space, a candidate row for claim C4), the body and space residuals on
# item 25 (one held transport identity), linear_gauge_d on item 12 (a
# second route for gauge_complex_dd).
PENDING_PROMOTION = (
    "bracket_jacobi_residual", "el_body_residual", "el_space_residual",
    "linear_gauge_d",
)

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

NUMPY = ("np", "numpy")

# File stem -> module: the package and every module whose name has no
# leading underscore.
PUBLIC_MODULES = {"__init__": "jetgauge", **{
    path.stem: f"jetgauge.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
    if not path.stem.startswith("_")}}
# File stems of the modules that hold the suites' checks.
SUITE_MODULES = {f"_suite_{name}" for name in SUITE_NAMES}


def _exported(module: str) -> list[str]:
    return list(importlib.import_module(module).__all__)


def _names_in(node: ast.AST, strings: bool = False) -> set[str]:
    """Every name a node refers to, and with strings the identifiers in
    its string constants, such as the benchmark's "Report.to_json"."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and not (
                isinstance(sub.value, ast.Name) and sub.value.id in NUMPY):
            out.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(IDENT.findall(sub.value))
    return out


def _definitions() -> dict[tuple[str, str], ast.AST]:
    """(module, name) -> node for each module-level definition."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(path.stem, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id != "__all__":
                        defs[(path.stem, target.id)] = node
    return defs


def _roots(defs) -> set[str]:
    roots = set(_names_in(defs[("cli", "main")]))
    assert SUITE_MODULES <= {module for module, _ in defs}
    roots.update(name for module, name in defs if module in SUITE_MODULES)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        roots.update(_names_in(ast.parse(path.read_text()), strings=True))
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("jetgauge"):
            roots.update(alias.name for alias in node.names)
    for module in PUBLIC_MODULES.values():
        roots.update(_exported(module))
    return roots


def _reach(defs, roots: set[str]) -> set[str]:
    by_name: dict[str, list[ast.AST]] = {}
    for (_, name), node in defs.items():
        by_name.setdefault(name, []).append(node)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in by_name.get(name, ()):
            todo.extend(_names_in(node) - reached)
    return reached


def _public(defs) -> set[str]:
    return {name for (_, name) in defs if not name.startswith("_")}


def test_every_public_definition_is_reached():
    defs = _definitions()
    reached = _reach(defs, _roots(defs) | set(PENDING_PROMOTION))
    assert sorted(_public(defs) - reached) == []


def test_pending_rows_are_exactly_the_unreached_ones():
    defs = _definitions()
    unreached = _public(defs) - _reach(defs, _roots(defs))
    assert sorted(unreached) == sorted(PENDING_PROMOTION)


def test_readme_names_are_exported():
    defs = _definitions()
    named = set()
    for span in re.findall(r"`+([^`]+)`+", (ROOT / "README.md").read_text()):
        named.update(IDENT.findall(span))
    missing = [f"{PUBLIC_MODULES[stem]}.{name}" for stem, name in defs
               if stem in PUBLIC_MODULES and name in named
               and not name.startswith("_")
               and name not in _exported(PUBLIC_MODULES[stem])]
    assert missing == []


@pytest.mark.parametrize("module", list(PUBLIC_MODULES.values()))
def test_every_exported_name_resolves(module):
    exec(f"from {module} import *", {})
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


# Defaulted parameters that no call in src/ passes, each with its reason.
UNSET_DEFAULTS = {
    "main.argv": "cli.entry, the process entry, calls main() on sys.argv",
    "pressure_recovery.curl_tol": "a test tightens the curl bound to 1e-13",
    "rigid_kernel_dimension.metric": "tests vary the metric",
}


def _defaulted(fn: ast.FunctionDef, skip: int) -> dict[str, int | None]:
    """Each defaulted parameter -> its index among a call's positional
    arguments, the first skip parameters (self, cls) taking none, or None
    when it is keyword-only."""
    args = fn.args
    pos = args.posonlyargs + args.args
    out = {a.arg: k - skip for k, a in enumerate(pos)
           if k >= len(pos) - len(args.defaults)}
    out.update((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None)
    return out


def _call_name(call: ast.Call, cls: str | None) -> str | None:
    """The name a call reaches: the attribute or name called, and the
    enclosing class for cls(...)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return cls if func.id == "cls" and cls else func.id
    return None


def _passed(call: ast.Call, params: dict[str, int | None]) -> set[str]:
    """The parameters a call gives a value; a *args covers every
    positional parameter, and a **mapping every parameter."""
    if any(kw.arg is None for kw in call.keywords):
        return set(params)
    star = any(isinstance(a, ast.Starred) for a in call.args)
    return {kw.arg for kw in call.keywords} | {
        name for name, k in params.items()
        if k is not None and (star or k < len(call.args))}


def test_every_defaulted_parameter_is_passed_by_some_caller():
    # by name, as the reach walk: a call passes a parameter of every
    # definition that carries the name it calls, in any module; a class
    # call, by name or as cls(...) inside it, calls its __init__
    params: dict[str, list[dict[str, int | None]]] = {}
    calls: list[tuple[str, ast.Call]] = []

    def visit(node: ast.AST, cls: str | None) -> None:
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.FunctionDef):
                method = isinstance(node, ast.ClassDef)
                name = cls if method and sub.name == "__init__" else sub.name
                params.setdefault(name, []).append(
                    _defaulted(sub, int(method)))
            elif isinstance(sub, ast.Call):
                calls.append((_call_name(sub, cls), sub))
            visit(sub, sub.name if isinstance(sub, ast.ClassDef) else cls)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), None)
    unset = set()
    for name, defs in params.items():
        for table in defs:
            given = set().union(*(_passed(call, table)
                                  for callee, call in calls if callee == name))
            unset.update(f"{name}.{p}" for p in set(table) - given)
    assert sorted(unset) == sorted(UNSET_DEFAULTS)
