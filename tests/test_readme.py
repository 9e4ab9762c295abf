"""The library example in README.md runs as written, and each line it prints
is the one its ``# ...`` comment shows."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_library_example_prints_its_comments():
    with open(README, encoding="utf-8") as handle:
        (block,) = re.findall(r"```python\n(.*?)```", handle.read(), re.S)
    expected = [line.rsplit("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["(1, 2, 1)", "T2 2", "2"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
