"""The README's Python API example runs against the current library."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_api_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Python API", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the values the block's comments promise
    assert lines[:7] == ["6", "1", "x", "y", "x*y", "-x^2 + y^2", "z"]
    assert lines[-2:] == ["0", "True"]
