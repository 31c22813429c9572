"""Static checks of the package sources: every imported name is read,
imports sit at module level, each module imports only the layers below it,
settable values do not grow, the arc's slope has one route, the member
inverts the endpoint midpoint once, and every public name has a reader
outside the tests."""

import ast
import dataclasses
from pathlib import Path

import contourgas
from contourgas.contour import Curve

SRC = Path(__file__).resolve().parent.parent / "src" / "contourgas"
PERFBENCH = SRC.parent.parent / "perfbench"


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names re-exported through __all__ count as read
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    # the project depends on no linter, so unused imports are caught here
    found = {p.name: u for p in sorted(SRC.glob("*.py")) if (u := _unused_imports(p))}
    assert found == {}


def _function_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(inner.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for inner in ast.walk(node)
                  if isinstance(inner, (ast.Import, ast.ImportFrom)))


def test_imports_at_module_level_outside_cli():
    # an import inside a function hides a cycle between modules; only the
    # command line defers its imports, so that it can cap threads first
    found = {p.name: lines for p in sorted(SRC.glob("*.py"))
             if p.name != "cli.py" and (lines := _function_level_imports(p))}
    assert found == {}


# the package modules each module imports: every module reads only layers
# below it.  The command line reads every layer and the package's
# __init__ loads its modules by name, so both are exempt
_LAYERS = {
    "numkit": set(),
    "contour": {"numkit"},
    "equilibrium": {"contour", "numkit"},
    "operators": {"contour", "equilibrium", "numkit"},
    "fluctuations": {"contour", "equilibrium", "numkit", "operators"},
    "partition": {"equilibrium", "fluctuations", "numkit", "operators"},
    "sampler": {"contour", "equilibrium", "numkit"},
}


def _package_imports(path):
    """The package modules one source file imports, in any import form:
    each imported name is spelled out from the package root, as in
    contourgas.m.name, and m is kept."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["contourgas" if node.level else "", node.module]))
            names += [f"{base}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    return {n.split(".")[1] for n in names if n.startswith("contourgas.")}


def test_module_layering():
    found = {p.stem: _package_imports(p) for p in sorted(SRC.glob("*.py"))
             if p.stem not in ("cli", "__init__")}
    assert found == _LAYERS


def _is_dataclass(cls):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in cls.decorator_list)


def _defaulted_params(args):
    """Names of the parameters of an ast.arguments that carry a default."""
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a in named]


def _settable_in(node, prefix):
    """Qualified names of the settable values under one AST node: each
    parameter with a default (functions, methods and lambdas) and each
    public dataclass field with a default, as prefix.function.param or
    prefix.Class.field."""
    names = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{prefix}.{child.name}"
        elif isinstance(child, ast.Lambda):
            scope = f"{prefix}.<lambda>"
        else:
            scope = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            names += [f"{scope}.{a}" for a in _defaulted_params(child.args)]
        elif isinstance(child, ast.ClassDef) and _is_dataclass(child):
            names += [f"{scope}.{s.target.id}" for s in child.body
                      if isinstance(s, ast.AnnAssign) and s.value is not None
                      and isinstance(s.target, ast.Name) and not s.target.id.startswith("_")]
        names += _settable_in(child, scope)
    return names


def _settable_values():
    """module.function.param names of the settable values over the package
    sources (`_settable_in`), dataclass fields as module.Class.field."""
    return [name for p in sorted(SRC.glob("*.py"))
            for name in _settable_in(ast.parse(p.read_text(), filename=str(p)), p.stem)]


def test_settable_values_do_not_grow():
    # a new option shows up here by name, and as an edit of this bound
    names = _settable_values()
    assert len(names) <= 46, "\n".join(names)


def _callers(node, prefix, match):
    """Qualified names of the scopes under one AST node that make a call
    `match` accepts, once per call."""
    found = []
    for child in ast.iter_child_nodes(node):
        scope = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{prefix}.{child.name}"
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and match(child):
            found.append(scope)
        found += _callers(child, scope, match)
    return found


def _src_callers(match):
    """`_callers` over the package sources, module by module."""
    return [name for p in sorted(SRC.glob("*.py"))
            for name in _callers(ast.parse(p.read_text(), filename=str(p)), p.stem, match)]


def _is_g_deriv(call):
    """`<expr>.g.deriv(...)`"""
    func = call.func
    return func.attr == "deriv" and isinstance(func.value, ast.Attribute) and func.value.attr == "g"


def _is_midpoint_inversion(call):
    """`<expr>.invert(...)` with a `<expr>.midpoint` among its arguments."""
    return call.func.attr == "invert" and any(
        isinstance(n, ast.Attribute) and n.attr == "midpoint"
        for arg in call.args for n in ast.walk(arg))


def test_one_slope_route():
    # Curve holds one series, and its slope series d1 is g's derivative,
    # built once: every other reader takes d1 or deriv1, never a second
    # derivative series of its own
    assert _src_callers(_is_g_deriv) == ["contour.Curve.d1"]
    assert [f.name for f in dataclasses.fields(Curve)] == ["g", "analytic_pad"]


def test_one_midpoint_inversion():
    # V_t = V at the endpoint midpoint fixes V_t's constant; the member
    # inverts the midpoint once, and every reader of that constant takes x_mid
    assert _src_callers(_is_midpoint_inversion) == ["equilibrium.InterpolationData.x_mid"]


# public names that no run reads yet, each waiting for the report or the
# reader named
_UNREAD_EXPORTS = {
    "f_coefficients": "the expansion's coefficients from equilibrium data, for `expand` "
                      "on the configured potential (ROADMAP item 14)",
}


def _names_read(node):
    """Names read under one AST node: loaded names, attribute names and
    imported names."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


def test_public_names_have_readers():
    # every exported name is read by a run: in a package module outside its
    # own definition (the command line included) or by the benchmark.  A
    # name only tests read is an oracle and lives in tests/oracles.py
    read = set()
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    for path in files + sorted(PERFBENCH.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = _names_read(stmt)
            defined = getattr(stmt, "name", None)
            if path.parent == SRC and contourgas._HOME.get(defined) == path.stem:
                names.discard(defined)
            read |= names
    assert sorted(set(contourgas._HOME) - read) == sorted(_UNREAD_EXPORTS)
