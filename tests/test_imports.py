"""Unused-import gate: every module in the package and the tests uses what it imports."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = [
    *sorted((ROOT / "src" / "wreathdim").glob("*.py")),
    *sorted((ROOT / "tests").glob("*.py")),
]


def unused_imports(source: str) -> list[str]:
    """Names bound by imports in ``source`` that it never reads.

    Names listed in ``__all__`` count as read.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_checker_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Any, Iterable\n"
        "from .groups import ball, word_length\n"
        "__all__ = ['word_length']\n"
        "def f(x: Any) -> Iterable[int]:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["line 4: ball", "line 2: osp"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py re-exports every name it imports
    found = {
        str(path.relative_to(ROOT)): unused
        for path in CHECKED
        if path.name != "__init__.py" and (unused := unused_imports(path.read_text()))
    }
    assert found == {}
