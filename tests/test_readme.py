"""The README's Python API example runs on the current API."""

import contextlib
import io
import math
import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_python_example_prints_finite_numbers():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    values = [float(word) for word in out.getvalue().split()]
    assert values and all(math.isfinite(v) for v in values)
