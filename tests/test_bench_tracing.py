"""The benchmark's tracer can rebind every layer it names.

``bench/tracing.py``'s ``Tracer.install`` reads ``owner.__dict__[attr]`` for each
(module, attribute) of ``LAYERS``, so a name the package stops defining (or
importing) at that place would crash a ``--trace 1`` run. The tracer file is
only read here, never changed.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from aoci import figures

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


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


def _unused_imports(path: Path) -> set[str]:
    """The names ``path`` imports and never reads. A string that is exactly a name (an
    ``__all__`` entry, a string annotation) reads it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported.update(alias.asname or alias.name.partition(".")[0]
                                for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return imported - read


def test_every_import_is_used_or_rebound_by_the_tracer():
    # An import kept only so that the tracer can rebind it is listed in LAYERS;
    # any other unused import is dead code.
    traced = {pair for locations, _ in tracing.LAYERS.values() for pair in locations}
    unused = {(f"aoci.{path.stem}".removesuffix(".__init__"), name)
              for path in sorted((ROOT / "src" / "aoci").glob("*.py"))
              for name in _unused_imports(path)}
    assert unused <= traced, f"unused imports: {sorted(unused - traced)}"


def test_figure8_counts_under_the_tracer(tmp_path):
    """One sweep of figure 8 still reports its 136 rows (68 points x 2 metrics) as the
    tracer's points, and builds each of the 68 points' configs once."""
    tracer = tracing.Tracer("figure8")
    tracer.install()
    try:
        figures.run_figure(8, tmp_path, mc_n=10_000)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(rounds=1)
    assert metrics["sweep.run_sweep.points"] == 136
    assert metrics["sweep.run_sweep.calls"] == 1
    assert metrics["config.with_value.calls"] == 68
