"""The README's library example runs as written, and its command-line
examples print what they show."""

import doctest
import re
from pathlib import Path

from permlip.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README has no python block"
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README block {i}", str(README), 0)
        assert test.examples
        runner.run(test)
    assert runner.failures == 0


def _console_examples():
    """(argv, shown lines) for each `$ permlip` line of the README's console
    blocks that has output lines under it."""
    found = []
    for block in re.findall(r"^```\n(.*?)^```", README.read_text(), re.M | re.S):
        for chunk in block.split("\n\n"):
            for example in re.split(r"^\$ permlip ", chunk, flags=re.M)[1:]:
                command, *shown = example.splitlines()
                if shown:
                    found.append((command.split("#")[0].split(), shown))
    return found


def test_readme_console_examples(capsys, monkeypatch):
    monkeypatch.delenv("PERMLIP_CEILING", raising=False)
    examples = _console_examples()
    assert examples, "README shows no command output"
    for argv, shown in examples:
        # a "..." line stands for any run of lines
        pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                          for line in shown)
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 0, argv
        assert re.fullmatch(pattern, out), (argv, out)
