"""Only ``graph.py`` knows how a ``Graph`` stores its edges: no other library
module reads an object's ``__dict__`` (also through ``vars``), calls
``object.__new__`` or names the cached edge order ``_edge_order``. Other
modules build graphs through ``Graph(n, edges)`` or ``Graph._unchecked``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rainbowindex"
OTHER_MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "graph.py")

#: What only ``graph.py`` may use.
FORM_NAMES = ("__dict__", "_edge_order", "object.__new__", "vars")


def stored_form_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of each use of a name in ``FORM_NAMES``: as an attribute,
    a plain name, a keyword argument or a string constant."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
            if name == "__new__" and isinstance(node.value, ast.Name):
                name = f"{node.value.id}.__new__"
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.keyword):
            name = node.arg
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if name in FORM_NAMES:
            found.append((node.lineno, name))
    return sorted(found)


def test_modules_found():
    assert "decompose.py" in OTHER_MODULES and "__init__.py" in OTHER_MODULES
    assert "graph.py" not in OTHER_MODULES
    assert stored_form_uses((SRC / "graph.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", OTHER_MODULES)
def test_no_module_but_graph_touches_the_stored_form(module):
    assert stored_form_uses((SRC / module).read_text(encoding="utf-8")) == []


def test_detector_flags_each_stored_form_use():
    source = (
        "g.__dict__['m'] = 3\n"
        "h = object.__new__(Graph)\n"
        "order = g._edge_order\n"
        "vars(g).update(_edge_order=())\n"
        "getattr(g, '_edge_order')\n"
        "fine = g.sorted_edges(), g.adj_bits, cls.__new__(cls), Graph._unchecked(3)\n"
    )
    assert stored_form_uses(source) == [
        (1, "__dict__"),
        (2, "object.__new__"),
        (3, "_edge_order"),
        (4, "_edge_order"),
        (4, "vars"),
        (5, "_edge_order"),
    ]
