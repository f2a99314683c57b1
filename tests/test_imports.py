"""Import hygiene: every top-level import of a package module is used in
that module or re-exported through its ``__all__``, so code that moves
between modules leaves no stale import behind; and the package builds no
dataclass it does not need, since each one is generated code that every
``khr`` start pays for."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import krasner

MODULES = sorted(Path(krasner.__file__).parent.glob("*.py"))


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


# the dataclasses the package keeps: the lattice compares and hashes
# without its ``products`` field and is copied with dataclasses.replace,
# and the homs check their tables when built
DATACLASSES = {"ideals.IdealLattice", "core.StrongHom", "morphisms.RingHom",
               "hypermodules.ModuleHom"}


def test_only_the_kept_classes_are_dataclasses():
    found = set()
    for path in MODULES:
        stem = path.stem
        module = krasner if stem == "__init__" else importlib.import_module(f"krasner.{stem}")
        found |= {f"{stem}.{name}" for name, cls in inspect.getmembers(module, inspect.isclass)
                  if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)}
    assert found == DATACLASSES, (
        "each @dataclass generates its methods when imported, about 1 ms on "
        "every khr start; make a plain record a typing.NamedTuple")
