"""``hashlib`` (and OpenSSL with it) is imported only where a hash is computed.

``MarkedGroup.spec_hash`` and the ball store import it when they hash, so
the commands that never hash (``verify``, ``growth``, ``length``,
``components``, ``control``, ``lattice``) run without it; ``cube``, whose
certificate carries ``spec_hash``, loads it.
"""

from __future__ import annotations

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from wreathdim import default_setup

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "wreathdim").glob("*.py"))

# run in a fresh interpreter without site (-S), so nothing imported hashlib
# before the package did; prints which hash modules each stage left loaded
SCRIPT = """
import json, os, sys
sys.path.insert(0, {src!r})
import wreathdim
from wreathdim.cli import main

def loaded():
    return sorted(m for m in ("hashlib", "_hashlib") if m in sys.modules)

wreathdim.run_suite()
for argv in (
    ["verify"],
    ["growth", "--name", "L2", "--radii", "1..5"],
    ["length", "--name", "L2", "{{-3:1,2:1}}|1"],
    ["components", "--name", "W2", "--window-radius", "4", "--radii", "1..3"],
    ["control", "--name", "L2", "--mode", "kernel", "--window-radius", "6", "--radii", "1..2"],
    ["control", "--name", "L2", "--mode", "pullback", "--window-radius", "6", "--r", "2"],
    ["lattice", "--n", "2", "--k", "2", "--parts", "2"],
):
    assert main([*argv, "--out", os.devnull]) == 0, argv
without = loaded()
assert main(["cube", "--name", "W2", "--n", "2", "--r", "2", "--out", os.devnull]) == 0
print(json.dumps({{"without": without, "cube": loaded()}}))
"""


def test_only_cube_loads_hashlib():
    script = SCRIPT.format(src=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["without"] == []
    assert "hashlib" in report["cube"]


def test_spec_hash_is_sha256_of_spec_string_for_every_declared_context():
    setup = default_setup()
    contexts = [*setup.groups.values(), *setup.wreaths.values()]
    assert contexts
    for ctx in contexts:
        expect = hashlib.sha256(ctx.spec_string().encode("utf-8")).hexdigest()
        assert ctx.spec_hash == expect


def module_level_hash_imports(source: str) -> list[int]:
    """Lines of ``import hashlib``/``_hashlib`` (or ``from`` them) outside every def."""
    lines: list[int] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name.split(".")[0] for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [(child.module or "").split(".")[0]]
            else:
                names = []
            if any(name in ("hashlib", "_hashlib") for name in names):
                lines.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return lines


def test_checker_flags_imports_outside_defs_only():
    source = (
        "import os, hashlib\n"
        "try:\n"
        "    from _hashlib import new\n"
        "except ImportError:\n"
        "    pass\n"
        "class Store:\n"
        "    import hashlib\n"
        "    def digest(self):\n"
        "        import hashlib\n"
        "        return hashlib.sha256(b'')\n"
    )
    assert module_level_hash_imports(source) == [1, 3, 7]


def test_no_module_imports_hashlib_at_import_time():
    found = {
        path.name: lines for path in PACKAGE if (lines := module_level_hash_imports(path.read_text()))
    }
    assert found == {}
