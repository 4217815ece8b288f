"""Static checks on the package sources."""

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Iterator

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zqadd"
# where a definition of the package may be named
SEARCHED = ("src", "tests", "demos", "perfbench")
# where a public name must be reached: the library and CLI, the demos, and
# the benchmark, which names functions by string
REACHING = ("src", "demos", "perfbench")

# public names that only tests reach yet, each with the roadmap item that
# moves its claim into a suite or removes it
AWAITING_A_SUITE = {
    "normalize_difference": "gets a caller in item 7's chain-structure sweep",
    "verify_impact_extension": "goes in item 1, replaced by its class-based extension check",
}


def top_level_statements(body: list) -> Iterator[ast.stmt]:
    """The statements of body and, recursively, of the blocks of its try
    and if statements: those that run at import time."""
    for node in body:
        yield node
        if isinstance(node, ast.Try):
            blocks = [node.body, *(h.body for h in node.handlers), node.orelse, node.finalbody]
        elif isinstance(node, ast.If):
            blocks = [node.body, node.orelse]
        else:
            continue
        for block in blocks:
            yield from top_level_statements(block)


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import that nothing else in the module
    mentions."""
    tree = ast.parse(source)
    imported = {}
    for node in top_level_statements(tree.body):
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
    assert unused_imports("try:\n    import os\nexcept ImportError:\n    pass\n") == ["line 2: os"]


def imports_in_functions(source: str) -> list[str]:
    """Imports that run inside a function body instead of at module level."""
    found = {
        inner.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    }
    return [f"line {line}" for line in sorted(found)]


def test_checker_finds_an_import_in_a_function():
    source = (
        "import math\n\n\ndef f():\n    from . import digital\n    return digital\n\n\n"
        "class C:\n    import json\n\n    def g(self):\n        def h():\n            import os\n"
    )
    assert imports_in_functions(source) == ["line 5", "line 14"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_imports_in_function_bodies(path):
    assert imports_in_functions((SRC / path).read_text()) == []


# the package's __init__ imports names to re-export them
@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_top_level_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


def float_roots_and_epsilons(source: str) -> list[str]:
    """math.sqrt and math.log* (called, or imported from math) and float
    literals with an exponent, such as 1e-9: the float roots and tolerances
    that an exact bound has no use for."""
    def flagged(name: str) -> bool:
        return name == "sqrt" or name.startswith("log")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math" and flagged(node.attr):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{alias.name}") for alias in node.names if flagged(alias.name)]
    found += [
        (tok.start[0], tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.NUMBER and re.fullmatch(r"[\d_.]+[eE][+-]?[\d_]+[jJ]?", tok.string)
    ]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_checker_finds_float_roots_and_epsilons():
    source = (
        "import math\nfrom math import log2, isqrt\n\nx = math.sqrt(2) + math.log(3, 4)\n"
        "y = isqrt(8) + 0xE5 + 1_000 + 2.5\nz = x <= y + 1e-9 or x < 2E3\n"
    )
    assert float_roots_and_epsilons(source) == [
        "line 2: math.log2", "line 4: math.log", "line 4: math.sqrt", "line 6: 1e-9", "line 6: 2E3"
    ]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_float_roots_or_epsilons(path):
    assert float_roots_and_epsilons((SRC / path).read_text()) == []


def unused_definitions(modules: dict[str, str], text: str) -> list[str]:
    """Top-level functions and classes of the modules (name -> source) that
    text, which holds the modules too, names only at their definition."""
    out = []
    for path, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if len(re.findall(rf"\b{node.name}\b", text)) == 1:
                    out.append(f"{path}:{node.lineno}: {node.name}")
    return out


def test_checker_finds_an_unused_definition():
    source = "def used():\n    pass\n\n\ndef unused():\n    pass\n\n\nclass Kept:\n    pass\n"
    caller = "used()\nKept()\nunused_too = 1\n"
    assert unused_definitions({"m.py": source}, source + caller) == ["m.py:5: unused"]


def test_no_unused_top_level_definitions():
    text = "\n".join(p.read_text() for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py")))
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_definitions(modules, text) == []


def reached_only_by_tests(modules: dict[str, str], text: str) -> list[str]:
    """Public top-level functions and classes of the modules (name -> source),
    and public methods and properties of those classes, that text, which
    holds the modules too, names only inside their own definition: a function
    or class by its name, a method or property as .name."""
    out = []
    for path, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            names = [(node, rf"\b{node.name}\b", node.name)]
            if isinstance(node, ast.ClassDef):
                names += [
                    (method, rf"\.{method.name}\b", f"{node.name}.{method.name}")
                    for method in node.body
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                ]
            for defn, word, name in names:
                own = ast.get_source_segment(source, defn)
                if len(re.findall(word, text)) == len(re.findall(word, own)):
                    out.append(f"{path}:{defn.lineno}: {name}")
    return out


def test_checker_finds_a_name_only_tests_reach():
    source = (
        "def reached():\n    pass\n\n\ndef recursive():\n    return recursive()\n\n\n"
        "class Alone:\n    pass\n\n\ndef _private():\n    pass\n"
    )
    caller = "reached()\n"
    assert reached_only_by_tests({"m.py": source}, source + caller) == ["m.py:5: recursive", "m.py:9: Alone"]


def test_checker_finds_a_method_only_tests_reach():
    source = (
        "class Kept:\n    def reached(self):\n        pass\n\n"
        "    @property\n    def unread(self):\n        return 1\n\n"
        "    def again(self):\n        return self.again()\n\n"
        "    def _private(self):\n        pass\n"
    )
    caller = "Kept().reached()\n"
    assert reached_only_by_tests({"m.py": source}, source + caller) == ["m.py:6: Kept.unread", "m.py:9: Kept.again"]


def test_only_awaiting_names_are_reached_only_by_tests():
    # a re-export in the package's __init__ is not a use
    paths = (p for d in REACHING for p in sorted((ROOT / d).rglob("*.py")) if p != SRC / "__init__.py")
    text = "\n".join(p.read_text() for p in paths)
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    flagged = {line.rsplit(" ", 1)[1]: line for line in reached_only_by_tests(modules, text)}
    assert [line for name, line in flagged.items() if name not in AWAITING_A_SUITE] == []
    assert [name for name in AWAITING_A_SUITE if name not in flagged] == []  # stale exemptions
