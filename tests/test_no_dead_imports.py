"""Every name a library module imports is used in that module, and no
library module imports another module's underscore-prefixed name.

``__init__.py`` is skipped: its imports are the package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rainbowindex"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each underscore-prefixed name imported from a module."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_modules_found():
    assert "coloring.py" in MODULES and "__init__.py" not in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_detector_flags_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterable, Mapping\n"
        "x: Mapping = {}\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "Iterable")]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_imports(module):
    assert private_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_detector_flags_a_private_name():
    source = (
        "from __future__ import annotations\n"
        "from .graph import Graph, _relax\n"
        "from . import _private as public\n"
    )
    assert private_imports(source) == [(2, "_relax"), (3, "_private")]
