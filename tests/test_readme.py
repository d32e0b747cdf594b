"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_its_commented_outputs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    # each print line's comment starts with the printed text, then two spaces
    expected = [
        line.split("#", 1)[1].strip().split("  ")[0]
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["8", "8 16"]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
