"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import aml

MODULES = sorted(f"aml.{m.name}" for m in pkgutil.iter_modules(aml.__path__))


def test_every_module_is_listed():
    assert "aml.syntax" in MODULES and "aml.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(aml.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"aml.{module}")
        assert name in source.__all__, (module, name)
        assert getattr(aml, name) is getattr(source, name), (module, name)
