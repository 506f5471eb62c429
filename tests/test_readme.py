"""The README's library example runs as written."""

import doctest
import re
from pathlib import Path

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
