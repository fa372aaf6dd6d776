"""Every ```python block in README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _python_blocks() -> list:
    text = README.read_text(encoding="utf-8")
    return [pytest.param(match.group(1), id=f"block-{i}")
            for i, match in enumerate(_BLOCK.finditer(text))]


def test_readme_has_python_blocks():
    assert len(_python_blocks()) >= 3


@pytest.mark.parametrize("source", _python_blocks())
def test_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_block"})
    assert capsys.readouterr().out  # every block prints what it shows
