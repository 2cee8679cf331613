"""The benchmark's tracer can rebind every layer it names; the package's imports and
process-wide caches are what it declares.

``bench/tracing.py``'s ``Tracer.install`` reads ``owner.__dict__[attr]`` for each
(module, attribute) of ``LAYERS``, so a name the package stops defining (or
importing) at that place would crash a ``--trace 1`` run. The tracer file is
only read here, never changed. The import and cache tests read ``src/aoci`` with
``ast``.
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


# Every process-wide cache in the package, as (module, name). A new one is added here
# on purpose, with its bound.
CACHES = {
    ("optics", "_gauss_legendre"),  # Gauss-Legendre rules, 16 entries
    ("optics", "_coupling_kernel"),  # kernel tables, COUPLING_KERNELS entries
    ("kpi", "_block_displacements"),  # (r, eta) per block, DRAW_CACHE_ENTRIES entries
    ("kpi", "_block_background"),  # background counts per block, DRAW_CACHE_ENTRIES entries
    ("config", "_patches"),  # section patches, SECTION_PATCHES entries
    ("config", "_states"),  # channel states, CHANNEL_STATES entries
}


def _is_cache(node) -> bool:
    """``lru_cache`` or ``cache``, bare, as a module attribute, or called with a bound."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None)) in ("lru_cache", "cache")


def _is_empty_container(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set)):
        return not node.elts
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("dict", "list", "set")
            and not node.args and not node.keywords)


def _caches(path: Path) -> set[str]:
    """The names ``path`` binds to an ``lru_cache`` (as a decorator or a call) or, at module
    level, to an empty dict, list or set, which the module can only fill as a memo."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = set(tree.body)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if any(map(_is_cache, node.decorator_list)):
                found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if (isinstance(value, ast.Call) and _is_cache(value.func)) or (
                    node in top and _is_empty_container(value)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update(target.id for target in targets)
    return found


def test_every_process_wide_cache_is_declared():
    found = {(path.stem, name) for path in sorted((ROOT / "src" / "aoci").glob("*.py"))
             for name in _caches(path)}
    assert found == CACHES


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
