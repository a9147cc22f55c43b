"""The benchmark's tracer rebinds package functions by name: every
(module, attribute) it lists must exist on the package."""

import ast
import importlib
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")


def _traced():
    """The TRACED table of bench/spans.py, read from its source without
    importing or executing it."""
    with open(SPANS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), SPANS)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED table")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = [
        f"mcpa.{module}.{attr}"
        for module, attr, _ in traced
        if not callable(getattr(importlib.import_module(f"mcpa.{module}"), attr, None))
    ]
    assert not missing, f"bench/spans.py traces names the package no longer has: {missing}"
