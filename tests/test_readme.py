"""README's library example runs and prints what its comments say, so the
example cannot drift from the package."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library example") :]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def test_library_example_prints_its_comments():
    code = _library_example()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert prints and all(" # " in line for line in prints), prints
    expected = [line.partition(" # ")[2].strip() for line in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
