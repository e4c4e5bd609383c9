"""Every name a library module imports is used in that module, no library
module imports another module's underscore-prefixed name, and every
underscore-prefixed name a module defines at its top level is read somewhere
in the package, and only ``graph.check_k`` tests ``2 <= k <= ...``, so the
(graph, k) guard is stated once. Every public function and public method is
read by a library module or a demo, apart from a few kept for tests and
callers (``TEST_FACING``).

``__init__.py`` is skipped for imports: they are the package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rainbowindex"
DEMOS = Path(__file__).resolve().parents[1] / "demos"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")

#: Public functions that no library module or demo reads, kept because the
#: tests hold them against the oracles: the rainbow-tree search with its
#: witness check, and the coloring that gives every edge its own color.
TEST_FACING = {
    "all_distinct_coloring",
    "exists_rainbow_stree",
    "TreeWitness.is_valid_for",
}


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


def names_read(trees) -> set[str]:
    """Every name the parsed modules read, bare or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each underscore-prefixed top-level function,
    class or assigned name (dunders excepted) that no module of ``sources``
    reads, bare or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = names_read(trees.values())
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                stores = (n for n in ast.walk(node) if isinstance(n, ast.Name))
                names = [n.id for n in stores if isinstance(n.ctx, ast.Store)]
            else:
                continue
            for name in names:
                dunder = name.startswith("__") and name.endswith("__")
                if name.startswith("_") and not dunder and name not in read:
                    unread.append((module, node.lineno, name))
    return unread


def unread_public_functions(
    sources: dict[str, str], readers: dict[str, str]
) -> list[tuple[str, int, str]]:
    """(module, line, name) of each public top-level function of ``sources``,
    and each public method of a top-level class, named ``Class.method``,
    that no module of ``sources`` or ``readers`` reads, bare or as an
    attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = names_read([*trees.values(), *map(ast.parse, readers.values())])
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [
                    (f"{node.name}.{f.name}", f)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                ]
            else:
                continue
            for name, f in defs:
                if not f.name.startswith("_") and f.name not in read:
                    unread.append((module, f.lineno, name))
    return unread


def k_range_checks(source: str) -> list[int]:
    """Line of each chained comparison ``2 <= k <= ...``, ascending."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 2
        and [type(op) for op in node.ops] == [ast.LtE, ast.LtE]
        and isinstance(node.comparators[0], ast.Name)
        and node.comparators[0].id == "k"
    )


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


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_detector_flags_an_unread_private_name():
    sources = {
        "a.py": (
            "__version__ = '0'\n"
            "_USED, _SPARE = 1, 2\n"
            "_COUNT: int = 0\n"
            "def _helper():\n"
            "    return _USED\n"
            "class _Unused:\n"
            "    pass\n"
        ),
        "b.py": "import a\nprint(a._helper())\n",
    }
    assert unread_private_names(sources) == [
        ("a.py", 2, "_SPARE"),
        ("a.py", 3, "_COUNT"),
        ("a.py", 6, "_Unused"),
    ]


def test_every_public_function_is_read():
    sources = {m: (SRC / m).read_text(encoding="utf-8") for m in MODULES}
    demos = {p.name: p.read_text(encoding="utf-8") for p in sorted(DEMOS.glob("*.py"))}
    unread = unread_public_functions(sources, demos)
    assert [entry for entry in unread if entry[2] not in TEST_FACING] == []


def test_detector_flags_an_unread_public_function():
    sources = {
        "a.py": (
            "def used():\n"
            "    def nested():\n"
            "        pass\n"
            "    return Box().size\n"
            "def spare():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "def shown():\n"
            "    pass\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 0\n"
            "    def holds(self):\n"
            "        return False\n"
        ),
        "b.py": "from a import used\nused()\n",
    }
    demos = {"demo.py": "import a\na.shown()\n"}
    assert unread_public_functions(sources, demos) == [
        ("a.py", 5, "spare"),
        ("a.py", 17, "Box.holds"),
    ]
    assert unread_public_functions(sources, {})[1] == ("a.py", 9, "shown")


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_graph_checks_the_range_of_k(module):
    found = k_range_checks((SRC / module).read_text(encoding="utf-8"))
    assert len(found) == (module == "graph.py")


def test_detector_flags_a_k_range_check():
    source = (
        "def f(g, k, j):\n"
        "    if not 2 <= k <= g.n:\n"
        "        pass\n"
        "    ok = 2 <= j <= g.n or 1 <= k <= g.n or 2 <= k < g.n\n"
        "    return 2 <= k <= g.n - 1\n"
    )
    assert k_range_checks(source) == [2, 5]
