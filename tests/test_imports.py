"""Every module of src/sturmian uses each name that it imports.

An import binds names; the module must read each one somewhere, as a
plain name or as the base of an attribute chain (annotations count: with
`from __future__ import annotations` they stay in the syntax tree).
`from __future__` imports bind nothing, and the names that
`sturmian/__init__.py` re-exports through `__all__` are used by being
exported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import sturmian

SRC = Path(sturmian.__file__).parent


def unused_imports(source: str, exported: set[str]) -> list[str]:
    """The names that source imports and never reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read - exported)


def test_every_imported_name_is_used():
    unused = {path.name: names for path in sorted(SRC.glob("*.py"))
              if (names := unused_imports(
                  path.read_text(encoding="utf-8"),
                  set(sturmian.__all__) if path.name == "__init__.py" else set()))}
    assert unused == {}, "imported and never used: drop the imports"


def test_an_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Iterable, Iterator\n"
              "def f(root: str) -> Iterator[str]:\n"
              "    yield os.path.join(root, 'x')\n")
    assert unused_imports(source, set()) == ["Iterable"]
    assert unused_imports(source, {"Iterable"}) == []
