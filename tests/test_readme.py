"""The README's Python API example runs on the current API, and its config
example loads."""

import contextlib
import io
import math
import os
import re

from mcpa import cli

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _blocks(language):
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        return re.findall(rf"```{language}\n(.*?)```", fh.read(), re.S)


def test_readme_python_example_prints_finite_numbers():
    blocks = _blocks("python")
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    values = [float(word) for word in out.getvalue().split()]
    assert values and all(math.isfinite(v) for v in values)


def test_readme_config_example_loads(tmp_path):
    # an example that names a key the reader refuses fails here
    blocks = _blocks("json")
    assert len(blocks) == 1
    path = tmp_path / "config.json"
    path.write_text(blocks[0], encoding="utf-8")
    cfg = cli.load_config(str(path))
    assert cfg.command == "spectrum" and cfg.device.kappa_hz == 420e3
