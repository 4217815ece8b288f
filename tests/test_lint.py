"""Static checks on the package sources."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "zqadd"


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import that nothing else in the module
    mentions."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nx = math.pi\n") == ["line 2: os"]
    assert unused_imports("from a import b as c\nc()\n") == []


# the package's __init__ imports names to re-export them
@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_top_level_imports(path):
    assert unused_imports((SRC / path).read_text()) == []
