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
