"""Static check of the package sources: every imported name is read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "contourgas"


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
    assert len(names) <= 61, "\n".join(names)
