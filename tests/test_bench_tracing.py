"""The benchmark's tracer can rebind every layer it names.

``bench/tracing.py``'s ``Tracer.install`` reads ``owner.__dict__[attr]`` for each
(module, attribute) of ``LAYERS``, so a name the package stops defining (or
importing) at that place would crash a ``--trace 1`` run. The tracer file is
only read here, never changed.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("location,attr", [
    location for locations, _ in tracing.LAYERS.values() for location in locations])
def test_every_traced_name_is_where_the_tracer_looks(location, attr):
    owner = tracing._resolve(location)
    assert attr in owner.__dict__, f"{location} no longer defines {attr}"
    assert callable(owner.__dict__[attr])
