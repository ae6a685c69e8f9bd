"""Source hygiene: every name a seqlab module imports is used in it."""

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
