"""The package's public names: each one listed or re-exported resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import permclosure

# ``__main__`` runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(permclosure.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"permclosure.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"permclosure.{name}.__all__ names {missing}"


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(permclosure.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"permclosure.{module}"), name), (module, name)
        assert hasattr(permclosure, name), name


def test_every_name_the_package_imports_is_in_its_modules_all():
    """A name re-exported by the package is public in its own module too."""
    tree = ast.parse(Path(permclosure.__file__).read_text(encoding="utf-8"))
    missing = [
        f"{node.module}.{alias.name}"
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name not in getattr(importlib.import_module(f"permclosure.{node.module}"),
                                     "__all__", ())
    ]
    assert not missing


@pytest.mark.parametrize("path", [
    "perm.conjugate_group",
    "perm.are_conjugate_in_symmetric",
    "perm._conjugate_ranks",
    "perm._distinct_rows",
    "perm.restrict_to",
    "tuples.act_tuple",
    "tuples.act_points",
    "tuples.kpow_orbit_partition",
    "tuples.TupleSpace.value_index_map",
    "tuples.OrbitPartition.census",
])
def test_the_test_only_oracles_are_not_in_the_package(path):
    """S_n-conjugacy and the value action on points live in the tests."""
    module, *attrs, name = path.split(".")
    owner = importlib.import_module(f"permclosure.{module}")
    for attr in attrs:
        owner = getattr(owner, attr)
    assert not hasattr(owner, name) and not hasattr(permclosure, name)
