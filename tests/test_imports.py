"""No module of the package imports a name it never uses, and no
module-level name of the package goes unread.

A name counts as used when it is read anywhere in the module, as a plain
name or as the root of an attribute chain.  An import line marked
``# noqa: F401`` is exempt (a name kept for a caller outside the module).
A private name (``def _f``, ``class _C``, ``_X = ...`` at module level)
counts as read when some module of the package loads it as a plain name or
an attribute, outside its own definition.  A public one counts as read when
a module of the package, the tests or the benchmark does; importing it is
not reading it.  So a helper that a deletion orphans is found.  Importing
the command line or the solver loads neither ``dataclasses`` nor
``inspect``, for start-up time.
"""

import ast
import os
import subprocess
import sys

import pytest

from .conftest import HERE, SRC_PATH

PACKAGE = os.path.join(HERE, "..", "src", "schemunif")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
# The modules outside the package that may read its public names.
READERS = [
    os.path.join(HERE, "..", d, f)
    for d in ("tests", "bench")
    for f in sorted(os.listdir(os.path.join(HERE, "..", d)))
    if f.endswith(".py")
]


def unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_the_check_finds_an_unused_import():
    source = "from typing import Iterable, Optional\n\nx: Iterable[int] = ()\n"
    assert unused_imports(source) == [(1, "Optional")]
    assert unused_imports("import os  # noqa: F401\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def _defined(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unread_names(sources, readers, wanted):
    """The module-level names of sources (module -> text) that wanted
    accepts and that no module of sources or readers reads outside a
    definition of that name, as (module, name) pairs."""
    defined, read = {}, set()
    for module, source in {**readers, **sources}.items():
        for node in ast.parse(source).body:
            own = _defined(node)
            if module in sources:
                defined.update((n, module) for n in own if wanted(n))
            read |= {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
                or isinstance(n, ast.Attribute)
            } - set(own)
    return sorted((m, n) for n, m in defined.items() if n not in read)


def unread_private_names(sources):
    return unread_names(
        sources, {}, lambda n: n.startswith("_") and not n.startswith("__")
    )


def unread_public_names(sources, readers):
    return unread_names(sources, readers, lambda n: not n.startswith("_"))


def package_sources():
    sources = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    return sources


def test_the_check_finds_an_unread_private_name():
    a = (
        "_T: int = 1\n_U = _T\n"
        "def _walk(n):\n    return n and _walk(n - 1)\n"
        "class _C:\n    pass\n"
        "def _g():\n    return _C()\n"
        "def __getattr__(name):\n    return name\n"
    )
    b = "from . import a\n\nx = a._g()\n"
    assert unread_private_names({"a": a, "b": b}) == [("a", "_U"), ("a", "_walk")]


def test_no_unread_private_names():
    assert unread_private_names(package_sources()) == []


def test_the_check_finds_an_unread_public_name():
    a = (
        "LIMIT = 3\n"
        "def used(n):\n    return n < LIMIT\n"
        "def orphan(n):\n    return n and orphan(n - 1)\n"
        "def imported():\n    pass\n"
    )
    t = "from a import imported, used\n\nassert used(1)\n"
    assert unread_public_names({"a": a}, {"t": t}) == [
        ("a", "imported"),
        ("a", "orphan"),
    ]


def test_no_unread_public_names():
    readers = {}
    for path in READERS:
        with open(path, encoding="utf-8") as fh:
            readers[path] = fh.read()
    assert unread_public_names(package_sources(), readers) == []


@pytest.mark.parametrize("module", ["schemunif.cli", "schemunif.solver"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    """Start-up time: the package's records are named tuples, so importing
    the command line, or the library path of the solver, loads neither
    ``dataclasses`` nor what it pulls in (``inspect``, ``ast``, ...)."""
    code = f"import sys, {module}; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC_PATH),
        timeout=60,
        check=True,
    )
    loaded = proc.stdout.split()
    assert module in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
