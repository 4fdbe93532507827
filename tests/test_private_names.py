"""A name that begins with an underscore belongs to its module: no module
of the package imports one from another."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pointpose"


def private_imports(source: str) -> list:
    """The `module._name` of each private name that `source` imports from
    a pointpose module, relative (`from .network import _x`) or absolute
    (`from pointpose.network import _x`)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not (node.level or module == "pointpose" or module.startswith("pointpose.")):
            continue
        found += [f"{module}.{alias.name}" for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert private_imports(path.read_text()) == []


def test_the_check_finds_private_imports():
    source = ("from __future__ import annotations\n"
              "from .dataset import SphereParams, _sample_fill\n"
              "from pointpose.network import _softmax as sm\n"
              "from numpy import _private\n"
              "def f():\n"
              "    from .network import __doc__, _relu\n")
    assert private_imports(source) == ["dataset._sample_fill", "pointpose.network._softmax",
                                       "network._relu"]
