"""Call-site gate: one BFS level loop, one table builder, three collector pauses, one decoder.

``_BallSearch.step`` is the only loop that steps a search space's ``expand``
(``minimal_word`` also lists one state's neighbours with it),
``_sorted_table`` the only code that turns states into an ordered table with
``encoded_values``, and ``_collector_paused`` is entered only around a
search's levels, a table's build and a ball-store load.  In the package,
``decode_many`` is read only by the store's table load
(``BallStore._load_table``, which holds the last table it decoded), and
``BallRecord.from_bytes`` only by ``BallStore``'s two loads.  One function,
``WreathContext._read_lamp``, reads the wreath lamp layout, for both wreath
decoders.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "wreathdim").glob("*.py"))


def reference_sites(source: str, attributes: set[str], names: set[str]) -> list[tuple[str, str]]:
    """(name, enclosing def) for each read of ``.attr`` in ``attributes`` or of a name in ``names``.

    The enclosing def is dotted through classes and functions (``Class.method``),
    and is ``<module>`` at the top level.  Reading an attribute counts whether
    or not it is called, so binding ``space.expand`` to a local counts too.
    """
    sites: list[tuple[str, str]] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Attribute) and child.attr in attributes:
                sites.append((child.attr, scope))
            elif isinstance(child, ast.Name) and child.id in names:
                sites.append((child.id, scope))
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sites


def test_checker_counts_reads_by_enclosing_def():
    source = (
        "from .groups import pause\n"
        "class Search:\n"
        "    def step(self):\n"
        "        return self.space.expand(1)\n"
        "def near(space):\n"
        "    expand = space.expand\n"
        "    with pause():\n"
        "        return expand(2)\n"
        "def expand(x):\n"
        "    return x\n"
    )
    assert reference_sites(source, {"expand"}, {"pause"}) == [
        ("expand", "Search.step"),
        ("expand", "near"),
        ("pause", "near"),
    ]


def test_search_and_table_primitives_have_one_home():
    found = sorted(
        (name, f"{path.stem}.{scope}")
        for path in PACKAGE
        for name, scope in reference_sites(
            path.read_text(), {"expand", "encoded_values"}, {"_collector_paused"}
        )
    )
    assert found == [
        ("_collector_paused", "groups._BallSearch.extend"),
        ("_collector_paused", "groups._sorted_table"),
        ("_collector_paused", "groups.ball"),
        ("encoded_values", "groups._sorted_table"),
        ("expand", "groups._BallSearch.step"),
        ("expand", "groups.minimal_word"),
    ]


def test_stored_balls_are_decoded_in_one_place():
    found = sorted(
        (name, f"{path.stem}.{scope}")
        for path in PACKAGE
        for name, scope in reference_sites(path.read_text(), {"decode_many", "from_bytes"}, set())
    )
    assert found == [
        ("decode_many", "ballstore.BallStore._load_table"),
        ("from_bytes", "ballstore.BallStore._load_table"),
        ("from_bytes", "ballstore.BallStore.load"),
    ]


def test_wreath_lamps_are_read_in_one_place():
    found = sorted(
        (name, f"{path.stem}.{scope}")
        for path in PACKAGE
        for name, scope in reference_sites(path.read_text(), {"_read_lamp"}, set())
    )
    assert found == [
        ("_read_lamp", "wreath.WreathContext.decode_from"),
        ("_read_lamp", "wreath.WreathContext.decode_many"),
    ]
