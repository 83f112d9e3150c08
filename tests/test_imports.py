"""Every import in src/ and tests/ is used, and no private name in src/ is dead.

The stdlib ``ast`` stands in for a linter.  A name bound by an import counts
as used when the module reads it anywhere (a Name, or the root of an
Attribute chain) or re-exports it through ``__all__``: a literal ``__all__``
re-exports the names it lists, and one computed from ``dir()``, as in the
package's ``__init__``, every public name.  Dunder names such as
``__version__`` are module metadata, and ``from __future__`` imports bind
nothing; both are skipped.

Every private module-level function or class, and every UPPER_CASE constant,
in src/ must be read somewhere in src/ (a Name or an Attribute), so a helper
whose last caller is gone does not linger.  A decorated definition counts as
read, since its decorator registers it (the check handlers of ``@check``).

Every parameter of a private, undecorated function in src/, nested functions
and methods included, must be read in that function's body, so an argument
that no line uses any more goes with it.  A decorated function may take
parameters that its decorator's contract fixes, so it is spared.

Every exception class in errors.py must be raised, caught or subclassed by
a library module other than errors.py and the package ``__init__``, so an
error whose last raiser is gone goes with it.
"""

import ast
import re
from pathlib import Path

import pytest

import grouplab
import grouplab.errors

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src").rglob("*.py"))
SOURCES = LIBRARY + sorted((ROOT / "tests").rglob("*.py"))
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")


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


def dead_names(sources: dict) -> list:
    """(module, line, name) of every private definition or constant no module reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                private = node.name.startswith("_") and not node.name.startswith("__")
                names = [node.name] if private and not node.decorator_list else []
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.match(t.id)]
            else:
                names = []
            dead += [(module, node.lineno, name) for name in names if name not in read]
    return sorted(dead)


def test_every_private_name_and_constant_in_the_library_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text("utf-8") for p in LIBRARY}
    assert dead_names(sources) == []


def test_the_dead_name_guard_reports_unread_helpers_and_spares_registered_ones():
    sources = {
        "a.py": (
            "LIMIT = 3\nCAP: int = 4\n_USED = 5\n"
            "def _helper(): pass\n"
            "class _Gone: pass\n"
            "def public(): return _USED\n"
            "@check\ndef _registered(): pass\n"
        ),
        "b.py": "import a\nprint(a.CAP)\n",
    }
    assert dead_names(sources) == [("a.py", 1, "LIMIT"), ("a.py", 4, "_helper"), ("a.py", 5, "_Gone")]


def unused_errors(errors: str, sources: dict) -> list:
    """(line, name) of every class in errors that no module of sources raises, catches or subclasses."""
    used = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                refs = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                refs = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            elif isinstance(node, ast.ClassDef):
                refs = node.bases
            else:
                continue
            used |= {r.id for r in refs if isinstance(r, ast.Name)}
            used |= {r.attr for r in refs if isinstance(r, ast.Attribute)}
    return [
        (node.lineno, node.name)
        for node in ast.parse(errors).body
        if isinstance(node, ast.ClassDef) and node.name not in used
    ]


def test_every_error_class_is_raised_caught_or_subclassed_in_the_library():
    sources = {
        str(p.relative_to(ROOT)): p.read_text("utf-8")
        for p in LIBRARY
        if p.name not in ("errors.py", "__init__.py")
    }
    errors = (ROOT / "src" / "grouplab" / "errors.py").read_text("utf-8")
    assert unused_errors(errors, sources) == []


@pytest.mark.parametrize(
    "name",
    [
        name
        for name, value in vars(grouplab.errors).items()
        if isinstance(value, type) and issubclass(value, grouplab.errors.GroupLabError)
    ],
)
def test_every_error_class_is_exported_by_the_package(name):
    assert getattr(grouplab, name) is getattr(grouplab.errors, name)


def test_the_error_guard_reports_an_orphan_and_spares_raised_caught_and_subclassed_ones():
    errors = (
        "class Base(Exception): pass\n"
        "class Raised(Base): pass\n"
        "class Caught(Base): pass\n"
        "class Bare(Base): pass\n"
        "class Orphan(Base): pass\n"
        "class Named(Base): pass\n"
    )
    sources = {
        "a.py": (
            "from errors import Raised, Orphan\n"
            "class Local(errors.Base): pass\n"
            "try:\n"
            "    raise Raised('x')\n"
            "except (Caught, ValueError):\n"
            "    raise errors.Bare\n"
            "print(Orphan, Named)\n"
        ),
    }
    assert unused_errors(errors, sources) == [(5, "Orphan"), (6, "Named")]


def unread_parameters(source: str) -> list:
    """(line, function, parameter) of every parameter a private, undecorated function never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__") or node.decorator_list:
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [(node.lineno, node.name, a.arg) for a in params if a and a.arg not in read]
    return unread


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_parameter_of_a_private_function_is_read(path):
    assert unread_parameters(path.read_text("utf-8")) == []


def test_the_parameter_guard_reports_unread_arguments_and_spares_public_and_decorated_ones():
    source = (
        "def _walk(G, x, limit, *rest, **opts):\n"
        "    def _inner(y, z):\n"
        "        return y\n"
        "    return G, x, rest\n"
        "def public(unused): pass\n"
        "class C:\n"
        "    def _method(self, a): return a\n"
        "    def __init__(self, b): pass\n"
        "@check\ndef _registered(ctx, G): pass\n"
    )
    assert unread_parameters(source) == [
        (1, "_walk", "limit"),
        (1, "_walk", "opts"),
        (2, "_inner", "z"),
        (7, "_method", "self"),
    ]
