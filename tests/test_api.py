"""The public names of the package resolve: each module's __all__ and the
names mstat/__init__.py re-exports."""

import ast
import importlib
from pathlib import Path

import pytest

import mstat

MODULES = ["cones", "graph_normals", "lp", "newsvendor", "portfolio", "stationarity"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module("mstat." + name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(mstat.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert getattr(mstat, name) is getattr(importlib.import_module("mstat." + module), name)
        assert name in importlib.import_module("mstat." + module).__all__, (module, name)
