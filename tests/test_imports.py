"""Every name that a module, test or demo imports is used in that file."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(tree: ast.AST) -> list[str]:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_no_unused_imports():
    # the package __init__ imports names to re-export them
    files = [p for d in ("src/cartancr", "tests", "demos")
             for p in sorted((ROOT / d).glob("*.py"))
             if p != ROOT / "src/cartancr/__init__.py"]
    unused = {}
    for path in files:
        names = _unused_imports(ast.parse(path.read_text(), str(path)))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert len(files) > 20
    assert unused == {}
