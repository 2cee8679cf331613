"""The README's examples run: its ``python`` fences execute, and its sweep spec parses."""

import json
import re
from pathlib import Path

from aoci.figures import load_preset
from aoci.sweep import SweepSpec

README = Path(__file__).resolve().parents[1] / "README.md"


def fences(language: str) -> list[str]:
    """The bodies of the README's fenced blocks tagged ``language``, in order."""
    text = README.read_text(encoding="utf-8")
    return [body for tag, body in re.findall(r"^```(\w*)\n(.*?)^```", text, re.M | re.S)
            if tag == language]


def test_python_fences_run(capsys):
    blocks = fences("python")
    assert blocks, "the README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out  # the quick start prints its results


def test_sweep_spec_parses_and_resolves():
    (doc,) = fences("json")
    spec = SweepSpec.from_dict(json.loads(doc))
    base = load_preset("default")
    for axis in (spec.axis1, spec.axis2):
        base.resolve(axis.path)  # a stale path raises ConfigError
