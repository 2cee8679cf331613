"""Per-layer tracing of ``aoci`` from outside the package.

``Tracer.install`` rebinds each traced function at the place its callers look
it up (a module global or a class attribute) with a wrapper that records a
span (name, start, end, parent, workload) and the layer's work counts. Spans
stay in memory until ``write`` dumps them as JSON lines. ``layer_metrics``
reduces them to per-layer totals; a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _size(pos, name):
    return lambda args, kwargs, result: int(np.size(_arg(args, kwargs, pos, name)))


def _n(pos, default):
    return lambda args, kwargs, result: int(_arg(args, kwargs, pos, "n", default))


def _poisson_samples(args, kwargs, result):
    n = _arg(args, kwargs, 2, "n")
    return 1 if n is None else int(n)


# span name -> ([(module path, attribute)], samples counter or None)
# Each location is where callers resolve the name at call time, so the
# wrapper sees every call the package makes.
LAYERS = {
    "optics.coupling_eta_batch": (
        [("aoci.optics", "coupling_eta_batch")], _size(1, "r")),
    "optics.coupling_eta_closed": ([("aoci.optics", "coupling_eta_closed")], None),
    "photometry.mean_flux_series": ([("aoci.photometry", "mean_flux_series")], None),
    "photometry.mean_flux_quadrature": ([("aoci.photometry", "mean_flux_quadrature")], None),
    "specfun.integrate_semi_infinite": (
        [("aoci.photometry", "integrate_semi_infinite"),
         ("aoci.optics", "integrate_semi_infinite")], None),
    "photometry.mean_flux_mc": ([("aoci.photometry", "mean_flux_mc")], _n(1, None)),
    "photometry.received_flux_batch": (
        [("aoci.photometry", "received_flux_batch"), ("aoci.kpi", "received_flux_batch")],
        _size(0, "r")),
    "photometry.derive_state": (
        [("aoci.photometry", "derive_state"), ("aoci.kpi", "derive_state")], None),
    "kpi.safety_check": ([("aoci.kpi", "safety_check")], None),
    "kpi.p_hearing": ([("aoci.kpi", "p_hearing")], _n(1, 100_000)),
    "kpi.p_damage": ([("aoci.kpi", "p_damage")], None),
    "stochastics.sample_poisson": ([("aoci.kpi", "sample_poisson")], _poisson_samples),
    "stochastics.uniforms": ([("aoci.stochastics:RngStream", "uniforms")], _n(1, None)),
    "config.with_value": ([("aoci.config:LinkConfig", "with_value")], None),
    "sweep.run_sweep": (
        [("aoci.figures", "run_sweep")], lambda args, kwargs, result: len(result.rows)),
    "sweep.write_csv": ([("aoci.figures", "write_csv")], None),
    "svgplot.render": ([("aoci.svgplot", "line_plot"), ("aoci.svgplot", "heatmap")], None),
    "figures.run_figure": ([("aoci.figures", "run_figure")], None),
}

# What the samples counter of a layer counts, where it is not "samples".
COUNT_NAMES = {"sweep.run_sweep": "points"}
FAILURES = ("photometry.mean_flux_series",)


def per_layer_spec() -> list[dict]:
    """The per-layer metric list, in the order the traced run emits it."""
    spec = []
    for name, (_, counter) in LAYERS.items():
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        if counter is not None:
            what = COUNT_NAMES.get(name, "samples")
            better = "higher" if what == "points" else "lower"
            spec.append({"name": f"{name}.{what}", "unit": "count", "better": better})
        spec.append({"name": f"{name}.s", "unit": "s", "better": "lower"})
        spec.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
        if name in FAILURES:
            spec.append({"name": f"{name}.failures", "unit": "count", "better": "lower"})
    spec.append({"name": "optics.coupling_eta_batch.ns_per_sample", "unit": "ns",
                 "better": "lower"})
    spec.append({"name": "kpi.safety_check.mc_passes", "unit": "count", "better": "lower"})
    return spec


def _resolve(location: str):
    module_name, _, class_name = location.partition(":")
    module = __import__(module_name, fromlist=["_"])
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Collects spans and counts for one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.failures"] += 1
                raise
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if counter is not None:
                counts[name] += counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, (locations, counter) in LAYERS.items():
            for location, attr in locations:
                owner = _resolve(location)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, counter))
                self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round totals of every per-layer metric."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        mc_passes = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[i]
            if name == "kpi.p_hearing" and parent >= 0 and (
                self.spans[parent][0] == "kpi.safety_check"
            ):
                mc_passes += 1
        values = {}
        for name, (_, counter) in LAYERS.items():
            values[f"{name}.calls"] = calls[name]
            if counter is not None:
                values[f"{name}.{COUNT_NAMES.get(name, 'samples')}"] = self.counts[name]
            values[f"{name}.s"] = total[name]
            values[f"{name}.self_s"] = own[name]
            if name in FAILURES:
                values[f"{name}.failures"] = self.counts[f"{name}.failures"]
        samples = self.counts["optics.coupling_eta_batch"]
        values["optics.coupling_eta_batch.ns_per_sample"] = (
            1e9 * total["optics.coupling_eta_batch"] / samples if samples else 0.0
        )
        values["kpi.safety_check.mc_passes"] = mc_passes
        per_round = {k: v / rounds for k, v in values.items()}
        per_round["optics.coupling_eta_batch.ns_per_sample"] = values[
            "optics.coupling_eta_batch.ns_per_sample"
        ]
        return per_round

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "workload": self.workload}) + "\n")
