"""No module of the package imports a name it never uses.

A name counts as used when it is read anywhere in the module, as a plain
name or as the root of an attribute chain.  An import line marked
``# noqa: F401`` is exempt (a name kept for a caller outside the module).
"""

import ast
import os

import pytest

from .conftest import HERE

PACKAGE = os.path.join(HERE, "..", "src", "schemunif")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


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
