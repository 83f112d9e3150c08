"""Every import in src/ and tests/ is used: the stdlib ``ast`` stands in for a linter.

A name bound by an import counts as used when the module reads it anywhere
(a Name, or the root of an Attribute chain) or re-exports it through
``__all__``: a literal ``__all__`` re-exports the names it lists, and one
computed from ``dir()``, as in the package's ``__init__``, every public
name.  Dunder names such as ``__version__`` are module metadata, and
``from __future__`` imports bind nothing; both are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never reads, in line order."""
    tree = ast.parse(source)
    bound = []  # (line, name) per imported binding
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if "dir" in {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}:
                read |= {name for _, name in bound if not name.startswith("_")}
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted(
        (line, name)
        for line, name in bound
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_the_guard_reports_an_unused_import_and_spares_re_exports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import numpy.linalg\n"
        "from json import dumps, loads\n"
        "__all__ = ['dumps']\n"
        "print(numpy.linalg.norm, system.argv)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "loads")]
    package = "from json import dumps, loads\n__all__ = [n for n in dir() if n[0] != '_']\n"
    assert unused_imports(package) == []
