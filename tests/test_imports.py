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


def _settable_values():
    """Parameters with defaults (functions, methods and lambdas) plus public
    dataclass fields with defaults, over the package sources."""
    n = 0
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                n += len(node.args.defaults)
                n += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                n += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         and isinstance(s.target, ast.Name) and not s.target.id.startswith("_")
                         for s in node.body)
    return n


def test_settable_values_do_not_grow():
    # a new option shows up here as an edit of this bound
    assert _settable_values() <= 74
