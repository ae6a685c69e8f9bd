"""Source hygiene: every name a seqlab module imports is used in it, and
every function and class it defines is referenced."""

import ast
import pathlib

import pytest

SRC = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "seqlab")
             .glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no other line reads; a
    module's ``__all__`` counts as a read of the names it lists."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = ("import os\nfrom typing import List, Optional\n"
              "import numpy as np\nx: Optional[int] = np.zeros(1)\n")
    assert unused_imports(source) == ["List (line 2)", "os (line 1)"]


def unreferenced_definitions(sources: dict, exempt=("oracles.py",),
                             kept=()) -> list:
    """Functions and classes, at any depth, defined in a module outside
    ``exempt`` whose name no expression in any of ``sources`` (file name
    -> source) reads, as a name or an attribute. Dunder methods, which
    Python calls by protocol, and the "file name" entries of ``kept`` are
    left out."""
    read, defined = set(), []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)) and name not in exempt \
                    and not (node.name.startswith("__")
                             and node.name.endswith("__")) \
                    and f"{name} {node.name}" not in kept:
                defined.append((name, node.name, node.lineno))
    return sorted(f"{name}:{line} {fn}" for name, fn, line in defined
                  if fn not in read)


# The layer-norm composite the fused op replaced; the acceptance gate's
# printed-statistics criterion (tests/test_acceptance.py) reads it.
KEPT_FOR_THE_GATE = ("blocks.py row_stats", "blocks.py normalize")


def test_every_definition_is_referenced():
    """A helper whose caller is rewired must go with it: every function
    and class in src/seqlab/ outside oracles.py is named somewhere in
    src/ besides its definition."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC}
    assert unreferenced_definitions(sources, kept=KEPT_FOR_THE_GATE) == []


def test_the_scan_finds_an_unreferenced_definition():
    sources = {"a.py": "def used():\n    pass\n\ndef dead():\n    used()\n\n"
                       "class Box:\n    def __len__(self):\n        return 0\n",
               "b.py": "import a\na.Box()\n",
               "oracles.py": "def reference():\n    pass\n"}
    assert unreferenced_definitions(sources) == ["a.py:4 dead"]
    assert unreferenced_definitions(sources, kept=("a.py dead",)) == []
