"""Every name a library module imports is read somewhere in that module,
and the package's export list names each public object once.

The check parses each ``src/setfuse/*.py`` with the stdlib ``ast`` module,
so it needs no linter. A name counts as used when the module reads it or
lists it in ``__all__``, which exempts the re-exports of ``__init__.py``.
"""

import ast
from pathlib import Path

import pytest

import setfuse

SRC = Path(__file__).resolve().parent.parent / "src" / "setfuse"


def unused_imports(source: str) -> list[str]:
    """Names the module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_flags_unused_names_only():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from a import b, c as d\n"
        "from e import f\n"
        "__all__ = ['f']\n"
        "x = np.zeros(1) + d\n"
    )
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_exports_are_consistent():
    names = setfuse.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(setfuse, n)] == []
    namespace = {}
    exec("from setfuse import *", namespace)
    assert set(names) <= set(namespace)
