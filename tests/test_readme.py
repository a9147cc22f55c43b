"""The README's Python API example runs on the current API, its config
example loads, and its lists of config keys match the code's."""

import contextlib
import dataclasses
import io
import math
import os
import re

from mcpa import cli
from mcpa.model import DeviceParams

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", _readme(), re.S)


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


def test_readme_command_blocks_name_every_option():
    # one bullet per command under "Command blocks:", each naming its options
    listing = _readme().split("\nCommand blocks:\n\n", 1)[1].split("\n\n", 1)[0]
    bullets = {re.match(r"- `(\w+)`:", item).group(1): item
               for item in re.split(r"\n(?=- `)", listing)}
    assert set(bullets) == set(cli.OPTIONS)
    for command, options in cli.OPTIONS.items():
        assert [o for o in options if f"`{o}`" not in bullets[command]] == [], command


def test_readme_device_paragraph_names_every_device_key():
    # a device key is a DeviceParams field without its _hz suffix
    paragraph = next(p for p in _readme().split("\n\n") if p.startswith('`{"device": '))
    keys = [f.name.removesuffix("_hz") for f in dataclasses.fields(DeviceParams)]
    assert [k for k in keys if f"`{k}`" not in paragraph] == []
