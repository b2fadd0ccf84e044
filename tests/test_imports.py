"""Every name a library module imports is read somewhere in that module,
no module imports another's underscore name, every function and class a
library module defines is read by the library or exported, every export is
read by the library or is an entry point, the package's export list
is the pipeline's 17 names, each once, only ``train`` builds a Gram
matrix (calls ``kernels.gram``), and no test patches a private name, a
constant or a class of a ``setfuse`` module.

The checks parse each ``src/setfuse/*.py``, and the patch check each
``tests/*.py``, with the stdlib ``ast`` module, so they need no linter. A
name counts as used when the module reads it or lists it in ``__all__``,
which exempts the re-exports of ``__init__.py``.
"""

import ast
from pathlib import Path

import pytest

import setfuse

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "setfuse"


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


def private_imports(source: str) -> list[str]:
    """Underscore names the module imports from another package module."""
    return sorted(
        a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for a in node.names
        if a.name.startswith("_")
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_imported_across_modules(path):
    assert private_imports(path.read_text()) == []


def is_click_command(node) -> bool:
    """True for a definition registered by a ``@<group>.command()`` or
    ``@click.group()`` decorator, which no Python code reads by name."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def name_readers(sources: dict[str, str]) -> dict[str, set]:
    """Each name that a top-level statement of a module reads (by name, as
    an attribute or in a ``from`` import, aliased or not), mapped to the
    ``(module, statement name)`` of every statement that reads it."""
    readers = {}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None)
            for n in ast.walk(stmt):
                if isinstance(n, ast.ImportFrom):
                    names = [a.name for a in n.names]
                elif isinstance(getattr(n, "ctx", None), ast.Store):
                    names = []
                else:
                    names = [n.id] if isinstance(n, ast.Name) else [getattr(n, "attr", None)]
                for name in names:
                    if name is not None:
                        readers.setdefault(name, set()).add((module, own))
    return readers


def unread_definitions(sources: dict[str, str], exported) -> list[str]:
    """``module.name`` of each top-level function or class that no other
    top-level statement of any module reads and that ``exported`` does not
    list; click commands are exempt."""
    defined = [
        (module, stmt.name)
        for module, source in sources.items()
        for stmt in ast.parse(source).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not is_click_command(stmt)
    ]
    readers = name_readers(sources)
    return [
        f"{module}.{name}"
        for module, name in defined
        if name not in exported and not readers.get(name, set()) - {(module, name)}
    ]


def test_definition_checker_flags_unread_names_only():
    sources = {
        "a": (
            "import click\n"
            "def used(): pass\n"
            "def exported(): pass\n"
            "def recursive(): return recursive()\n"
            "class Unread: pass\n"
            "@click.group()\n"
            "def main(): pass\n"
            "@main.command()\n"
            "def cmd(): pass\n"
        ),
        "b": "from a import used\nx = used()\n",
    }
    assert unread_definitions(sources, ["exported"]) == ["a.recursive", "a.Unread"]


def test_every_definition_is_read_or_exported():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_definitions(sources, setfuse.__all__) == []


def unread_exports(sources: dict[str, str], exports) -> list[str]:
    """Each name of ``exports`` that no top-level statement of a module other
    than ``__init__`` reads, outside the name's own definition."""
    readers = name_readers({m: s for m, s in sources.items() if m != "__init__"})
    return [name for name in exports if not {own for _, own in readers.get(name, ())} - {name}]


def test_export_checker_counts_aliased_imports():
    sources = {
        "__init__": "from .a import f, g, h\n__all__ = ['f', 'g', 'h']\n",
        "a": "def f(): pass\ndef g(): return g()\ndef h(): pass\n",
        "cli": "from .a import f as run\nrun()\n",
    }
    assert unread_exports(sources, ["f", "g", "h"]) == ["g", "h"]


# Exports that no library module reads: the public entry points that code
# outside the package calls, each with the reason it stays.
ENTRY_POINTS = (
    ("split_sets", "tools/ and perfbench/ split a collection into gallery and probes"),
    ("run_dimension_sweep", "tools/model_digest.py digests a projection-width sweep"),
)


def test_every_export_is_read_or_an_entry_point():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    unread = unread_exports(sources, setfuse.__all__)
    assert sorted(unread) == sorted(name for name, _ in ENTRY_POINTS)


def test_exports_are_the_pipeline():
    # what a user calls; every other name is an internal at its module path
    assert sorted(setfuse.__all__) == sorted([
        "ImageSet", "TrainConfig", "generate_synthetic", "load_dataset", "save_dataset",
        "split_sets", "train_on_sets", "predict", "Prediction", "ModelState", "save_model",
        "load_model", "run_experiment", "run_dimension_sweep", "ExperimentReport",
        "SplitResult", "DESCRIPTOR_NAMES",
    ])


def test_package_exports_are_consistent():
    names = setfuse.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(setfuse, n)] == []
    namespace = {}
    exec("from setfuse import *", namespace)
    assert set(names) <= set(namespace)


def callers(sources: dict[str, str], name: str) -> set:
    """``(module, top-level statement name)`` of each call of ``name``, by
    name or as an attribute."""
    found = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            for n in ast.walk(stmt):
                if isinstance(n, ast.Call) and name in (
                    getattr(n.func, "id", None), getattr(n.func, "attr", None)
                ):
                    found.add((module, getattr(stmt, "name", None)))
    return found


def test_caller_checker_finds_calls_by_name_and_attribute():
    sources = {
        "a": "def f(): return KernelBank(1)\ndef g(): return KernelBank\n",
        "b": "import a\nx = a.KernelBank(2)\nclass C:\n    def m(self): KernelBank(3)\n",
    }
    assert callers(sources, "KernelBank") == {("a", "f"), ("b", None), ("b", "C")}


def test_a_gram_is_built_only_by_train():
    # a model is its lifted rows: Grams live only inside training
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert callers(sources, "gram") == {("trainer", "train")}


def setfuse_aliases(tree) -> set[str]:
    """The names a module binds by importing from the ``setfuse`` package:
    its modules, and the names imported from them."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {
                a.asname or "setfuse" for a in node.names if a.name.split(".")[0] == "setfuse"
            }
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "setfuse":
            aliases |= {a.asname or a.name for a in node.names}
    return aliases


def patched_internals(source: str) -> list[str]:
    """``owner.name`` of each attribute of a ``setfuse`` module that a test
    replaces, with ``monkeypatch.setattr`` or the suite's ``spy`` helper, and
    that is private (``_name``), a constant (``UPPER_CASE``) or a class
    (``CapWords``). A name that is not a string literal counts too, as the
    check cannot read it."""
    tree = ast.parse(source)
    aliases = setfuse_aliases(tree)
    found = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        if getattr(n.func, "attr", None) == "setattr":
            args = n.args
        elif getattr(n.func, "id", None) == "spy":
            args = n.args[1:]
        else:
            continue
        if args and isinstance(args[0], ast.Constant) and isinstance(args[0].value, str):
            # monkeypatch.setattr("package.module.name", value)
            owner, _, name = args[0].value.rpartition(".")
            if owner.split(".")[0] != "setfuse":
                continue
        elif len(args) >= 2 and ast.unparse(args[0]).split(".")[0] in aliases:
            owner, name = ast.unparse(args[0]), getattr(args[1], "value", None)
            if not isinstance(name, str):
                name = f"<{ast.unparse(args[1])}>"
        else:
            continue
        if name[0] in "_<" or name[0].isupper():
            found.append(f"{owner}.{name}")
    return sorted(found)


def test_patch_checker_flags_internals_of_setfuse_modules_only():
    source = (
        "import numpy as np\n"
        "import setfuse.kernels\n"
        "import setfuse.trainer as t\n"
        "from setfuse import classify\n"
        "from helpers import spy\n"
        "def test(monkeypatch):\n"
        "    monkeypatch.setattr(t, '_train_stack', None)\n"
        "    monkeypatch.setattr(t, 'STACK_BYTES', 0)\n"
        "    spy(monkeypatch, classify, 'ModelState')\n"
        "    monkeypatch.setattr('setfuse.trainer.ProbeMap', None)\n"
        "    monkeypatch.setattr(setfuse.kernels, '_scale', None)\n"
        "    for name in ('train',):\n"
        "        monkeypatch.setattr(t, name, None)\n"
        "    monkeypatch.setattr(t, 'train', None)\n"
        "    spy(monkeypatch, classify, 'distance_profile')\n"
        "    monkeypatch.setattr(np, 'unique', None)\n"
        "    monkeypatch.setattr(np.linalg, '_umath_linalg', None)\n"
        "    monkeypatch.setattr('numpy.ndarray', None)\n"
    )
    assert patched_internals(source) == [
        "classify.ModelState", "setfuse.kernels._scale", "setfuse.trainer.ProbeMap",
        "t.<name>", "t.STACK_BYTES", "t._train_stack",
    ]


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_test_patches_an_internal(path):
    # tests pin behaviour through public names; a spy on a private function,
    # a patched budget constant or a counted class pins how the code is built
    assert patched_internals(path.read_text()) == []


def defaulted_parameters(tree) -> list[tuple[str, str, int | None]]:
    """``(function, parameter, position)`` of each parameter with a default,
    in every function of a module, nested ones and methods included;
    ``position`` is the index a call's positional argument takes (a method's
    ``self`` or ``cls`` not counted), None for a keyword-only parameter."""
    found = []
    methods = {
        id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
        if isinstance(f, ast.FunctionDef)
        and not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
    }
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef) or is_click_command(f):
            continue
        a = f.args
        positional = [p.arg for p in a.posonlyargs + a.args][int(id(f) in methods):]
        first = len(positional) - len(a.defaults)
        found += [(f.name, p, k) for k, p in enumerate(positional) if k >= first]
        found += [(f.name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
    return found


def unpassed_defaults(sources: dict[str, str], exempt) -> list[str]:
    """``function(parameter)`` of each parameter with a default that no call
    in the modules passes, by keyword or by position; a call with ``*args``
    or ``**kwargs`` passes every parameter. Calls match a function by name,
    as ``callers`` does; functions named in ``exempt`` are skipped."""
    trees = [ast.parse(source) for source in sources.values()]
    passed = set()
    for n in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(n, ast.Call):
            name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in n.args) or any(
                k.arg is None for k in n.keywords
            ):
                passed.add((name, "*"))
            passed |= {(name, k.arg) for k in n.keywords} | {(name, k) for k in range(len(n.args))}
    return [
        f"{func}({param})"
        for tree in trees
        for func, param, position in defaulted_parameters(tree)
        if func not in exempt and not passed & {(func, param), (func, position), (func, "*")}
    ]


def test_default_checker_flags_parameters_no_call_passes():
    sources = {
        "a": (
            "def f(x, y=1, z=2, *, w=3): pass\n"
            "def g(x=1): pass\n"
            "def entry(n=1): pass\n"
            "class C:\n"
            "    def m(self, k=0, j=1): pass\n"
            "    @staticmethod\n"
            "    def s(k=0): pass\n"
        ),
        "b": "f(0, 1)\nf(0, z=5)\ng(*args)\nC().m(1)\nC.s()\n",
    }
    assert unpassed_defaults(sources, ["entry"]) == ["f(w)", "m(j)", "s(k)"]


def test_every_default_is_passed_by_the_library():
    # a parameter that only its default ever fills is one the library does not need
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unpassed_defaults(sources, [name for name, _ in ENTRY_POINTS]) == []
