"""No module of the library imports a name that it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "idsense"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` and never loaded.

    A name counts as loaded when it appears as a load anywhere in the module,
    including inside quoted annotations.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            loaded |= {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                       if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in loaded)


def test_detects_unused_and_quoted_uses():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom a import b, c as d, e\n"
              "def f(x: 'b | None') -> int:\n    return os.sep\n")
    assert unused_imports(source) == ["d", "e"]


# the package's __init__ imports to re-export, so every name it binds is used
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
