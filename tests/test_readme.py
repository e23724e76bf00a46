"""README's library example and its CLI lines marked ``# ->`` run and print
what their comments say, so the examples cannot drift from the package."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from wtoll import cli

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


def _cli_examples() -> list[tuple[str, str]]:
    text = README.read_text()
    section = text[text.index("## CLI") :]
    block = re.search(r"```sh\n(.*?)```", section, re.S)[1]
    return [tuple(part.strip() for part in line.split("# ->")) for line in block.splitlines()
            if "# ->" in line]


def test_cli_examples_print_their_comments(capsys):
    examples = _cli_examples()
    assert len(examples) >= 5, examples
    for command, expected in examples:
        program, *argv = shlex.split(command)
        assert program == "wtoll", command
        assert cli.main(argv) == 0, command
        assert " / ".join(capsys.readouterr().out.splitlines()) == expected, command
