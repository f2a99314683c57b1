"""Import hygiene: every top-level import of a package module is used in
that module or re-exported through its ``__all__``, so code that moves
between modules leaves no stale import behind; and the package defines no
dataclass, so no ``khr`` start imports ``dataclasses`` or ``inspect``; and
no module imports ``random``, since every answer is exhaustive and nothing
samples.  In
a fresh interpreter without bytecode, those two imports took about 13 ms of
the 130 ms that ``import krasner, krasner.cli`` took under ``-X importtime``,
and each dataclass the package once kept about 0.8 ms more.

Every function the package defines is also used by the package, a demo or
the benchmark, apart from a short allowlist: a function only the tests
call belongs in the tests.  And every ``BoundExceededError`` is raised by a
``core.require_*`` check, the one that reads its bound, or by
``corpus.check_order`` for the generation cap, so no search keeps a copy."""

import ast
import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import krasner

MODULES = sorted(Path(krasner.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent

# defined in src but named in no code of src, demos or bench, each kept on purpose
TEST_ONLY = [
    "core.FrozenRecord._replace",  # the copy every NamedTuple has, kept for the same spelling
    "dsl.emit_module",  # writes the module block the parser reads; round-trip tests use it
    "hypermodules.restrict_scalars",  # the module tests and the dsl round trip build on it
    "ideals.cross_check_generated",  # bench/tracing.py traces it by name
    "morphisms.identity_hom",  # the hom, dsl and message tests build on it
]


def unused_imports(tree: ast.Module) -> list:
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = {e.value for e in node.value.elts}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_top_level_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_reported():
    tree = ast.parse("import os\nfrom a import b, c as d\n__all__ = ['b']\nd()\n")
    assert unused_imports(tree) == [(1, "os")]


def imported_modules(tree: ast.Module) -> set:
    # top-level package names of every import, at any depth of the tree
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_random():
    found = [path.name for path in MODULES
             if "random" in imported_modules(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [], "every answer is exhaustive: a search that samples belongs nowhere"


def test_an_import_of_random_is_found():
    tree = ast.parse("def f():\n    from random import Random\nimport os.path\n"
                     "from . import random\n")
    assert imported_modules(tree) == {"random", "os"}


def bound_raises(tree: ast.Module) -> list:
    """The enclosing function name of every ``raise BoundExceededError``
    in tree, in source order; None for one at module level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if ast.unparse(exc).split(".")[-1] == "BoundExceededError":
                    found.append(function)
            visit(child, function)

    visit(tree, None)
    return found


def test_every_bound_is_refused_by_one_check():
    found = [f"{path.stem}.{function}" for path in MODULES
             for function in bound_raises(ast.parse(path.read_text(encoding="utf-8")))]
    assert found and all(name.startswith("core.require_") or name == "corpus.check_order"
                         for name in found), (
        "a search refuses past its bound through the core.require_* check that "
        f"reads that bound, or corpus.check_order for the generation cap: {found}")


def test_a_bound_raise_is_found():
    tree = ast.parse("def f():\n    def g():\n        raise core.BoundExceededError('x')\n"
                     "    raise BoundExceededError\nraise ValueError('y')\n")
    assert bound_raises(tree) == ["g", "f"]


def test_no_module_defines_a_dataclass():
    found = []
    for path in MODULES:
        stem = path.stem
        module = krasner if stem == "__init__" else importlib.import_module(f"krasner.{stem}")
        found += [f"{stem}.{name}" for name, cls in inspect.getmembers(module, inspect.isclass)
                  if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)]
    assert found == [], (
        "each @dataclass generates its methods when imported, and importing "
        "dataclasses loads inspect; make a plain record a typing.NamedTuple and a "
        "checked one a core.FrozenRecord")


def test_a_khr_start_imports_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since pytest itself has loaded both modules
    src = str(Path(krasner.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import krasner, krasner.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def unused_functions(trees, uses) -> list:
    """module.qualname of every function defined in trees, a {module: tree}
    map, whose name no code in uses, a list of trees, refers to: as a name,
    an attribute or an imported name.  Dunder methods are left out, since
    Python calls them."""
    used = set()
    for tree in uses:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if (not isinstance(child, ast.ClassDef) and name not in used
                        and not (name.startswith("__") and name.endswith("__"))):
                    found.append(f"{prefix}.{name}")
                visit(child, f"{prefix}.{name}")
            else:
                visit(child, prefix)

    for module, tree in trees.items():
        visit(tree, module)
    return sorted(found)


def test_every_function_has_a_caller_outside_the_tests():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    uses = list(trees.values()) + [ast.parse(path.read_text(encoding="utf-8"))
                                   for folder in ("demos", "bench")
                                   for path in sorted((ROOT / folder).rglob("*.py"))]
    assert unused_functions(trees, uses) == TEST_ONLY


def test_an_unused_function_is_reported():
    tree = ast.parse("class A:\n    def f(self): g()\n    def __eq__(self, o): pass\n"
                     "def g(): pass\ndef h(): pass\n")
    uses = [tree, ast.parse("from m import h")]
    assert unused_functions({"m": tree}, uses) == ["m.A.f"]
