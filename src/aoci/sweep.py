"""Parameter sweeps over link configurations with CSV emission.

A sweep varies one or two raw config fields (dotted paths into the
unit-suffixed document, e.g. ``beam.sigma_s_mm``) over explicit value lists
and evaluates one metric per grid point. Each point's config is built with
all its axis values set at once and validated once. Quadrature flux points
(``mean_flux`` / ``link_budget``) go ``BATCH_POINTS`` at a time through one
quadrature, bitwise as lone evaluations. Rows are written in grid order:
axis2 outer, axis1 inner, so axis1 is the natural x-axis of a plotted curve
family. Per-point numerical failures are recorded in the ``error`` column
and the run continues.

CSV is RFC-4180 with LF line endings, '.' decimal separator, UTF-8; floats
are written with shortest round-trip repr, so re-running an identical sweep
reproduces the file byte for byte. Every row carries the config hash of the
evaluated point and the seed when randomness was involved.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from aoci import kpi, photometry
from aoci.config import ConfigError, LinkConfig
from aoci.specfun import NumericalError

__all__ = ["SweepAxis", "SweepSpec", "SweepResult", "run_sweep", "write_csv"]

METRICS = ("mean_flux", "p_hearing", "p_false_hearing", "p_damage", "link_budget")
METHODS = ("quadrature", "series", "mc")
BATCH_POINTS = 256  # points built and evaluated together; ~25 KB of temporaries each


@dataclass(frozen=True)
class SweepAxis:
    path: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError(f"sweep axis {self.path}: empty value list")
        diffs = [b - a for a, b in zip(self.values, self.values[1:])]
        if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ConfigError(f"sweep axis {self.path}: values must be strictly monotone")


@dataclass(frozen=True)
class SweepSpec:
    axis1: SweepAxis
    axis2: SweepAxis | None
    metric: str
    method: str = "quadrature"
    mc_n: int = 100_000
    mc_seed: int = 1234

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ConfigError(f"sweep.metric: unknown metric {self.metric!r}")
        if self.method not in METHODS:
            raise ConfigError(f"sweep.method: unknown method {self.method!r}")
        if self.mc_n < 1000:
            raise ConfigError(f"sweep.mc.n: need at least 1000 samples, got {self.mc_n}")
        if self.metric in ("p_hearing", "p_damage") and self.mc_n < kpi.MIN_SAMPLES:
            raise ConfigError(f"sweep.mc.n: {self.metric} needs at least {kpi.MIN_SAMPLES} "
                              f"samples, got {self.mc_n}")

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise ConfigError("sweep: expected a JSON object")
        unknown = set(doc) - {"axis1", "axis2", "metric", "method", "mc"}
        if unknown:
            raise ConfigError(f"sweep.{sorted(unknown)[0]}: unknown field")

        def axis(key: str, required: bool) -> SweepAxis | None:
            node = doc.get(key)
            if node is None:
                if required:
                    raise ConfigError(f"sweep.{key}: missing required axis")
                return None
            if not isinstance(node, dict) or set(node) != {"path", "values"}:
                raise ConfigError(f"sweep.{key}: expected {{path, values}}")
            values = node["values"]
            if not isinstance(values, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
            ):
                raise ConfigError(f"sweep.{key}.values: expected a list of numbers")
            return SweepAxis(path=str(node["path"]), values=tuple(float(v) for v in values))

        mc = doc.get("mc", {})
        if not isinstance(mc, dict):
            raise ConfigError("sweep.mc: expected an object")
        return cls(
            axis1=axis("axis1", required=True),
            axis2=axis("axis2", required=False),
            metric=str(doc.get("metric", "mean_flux")),
            method=str(doc.get("method", "quadrature")),
            mc_n=int(mc.get("n", 100_000)),
            mc_seed=int(mc.get("seed", 1234)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepSpec":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"sweep: invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(doc)


@dataclass(frozen=True)
class SweepResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    spec: SweepSpec


def _evaluate_point(cfg: LinkConfig, spec: SweepSpec, est=None) -> dict[str, Any]:
    """One grid point: value/err/method/ci fields for the metric (flux from ``est`` if given)."""
    out: dict[str, Any] = {
        "value": "",
        "err_bound": "",
        "method": "",
        "n_samples": "",
        "seed": "",
        "error": "",
    }
    metric = spec.metric
    if metric in ("mean_flux", "link_budget"):
        if est is None:
            est = photometry.mean_flux(cfg, method=spec.method, n=spec.mc_n, seed=spec.mc_seed)
        gain = photometry.response_window_gain(cfg.neural.tau)
        if metric == "mean_flux":
            out["value"], out["err_bound"] = est.value, est.err_bound
        else:
            out["value"] = photometry.link_budget(cfg, est)
            out["err_bound"] = est.err_bound * gain
        out["method"] = est.method
        if est.method == "monte_carlo":
            out["n_samples"], out["seed"] = est.n_samples, est.seed
    elif metric in ("p_hearing", "p_damage"):
        fn = kpi.p_hearing if metric == "p_hearing" else kpi.p_damage
        est = fn(cfg, n=spec.mc_n, seed=spec.mc_seed)
        out["value"] = est.value
        out["err_bound"] = 0.5 * (est.ci_high - est.ci_low)
        out["ci_low"], out["ci_high"] = est.ci_low, est.ci_high
        out["method"] = "monte_carlo"
        out["n_samples"], out["seed"] = est.n_samples, est.seed
    elif metric == "p_false_hearing":
        fh = kpi.p_false_hearing(cfg.neural)
        out["value"] = fh.literal
        out["err_bound"] = 0.0
        out["cdf_closed_form"] = fh.cdf_closed_form
        out["method"] = "closed_form"
    return out


def _columns_for(spec: SweepSpec) -> tuple[str, ...]:
    cols = ["axis1_path", "axis1_value"]
    if spec.axis2 is not None:
        cols += ["axis2_path", "axis2_value"]
    cols += ["metric", "value", "err_bound", "method", "n_samples", "seed"]
    if spec.metric in ("p_hearing", "p_damage"):
        cols += ["ci_low", "ci_high"]
    if spec.metric == "p_false_hearing":
        cols += ["cdf_closed_form"]
    cols += ["config_hash", "error"]
    return tuple(cols)


def run_sweep(base_cfg: LinkConfig, spec: SweepSpec) -> SweepResult:
    """Evaluate the metric over the full grid, tolerating per-point failures.

    ``BATCH_POINTS`` points at a time (bounded memory): their configs first, then
    their quadrature flux together by ``photometry.mean_flux_quadrature_batch``.
    """
    axes = [axis for axis in (spec.axis1, spec.axis2) if axis is not None]
    for axis in axes:  # every path must resolve before any evaluation starts
        base_cfg.resolve(axis.path)
    grid = [combo[::-1] for combo in itertools.product(*(a.values for a in axes[::-1]))]
    batched = spec.metric in ("mean_flux", "link_budget") and spec.method == "quadrature"
    columns = _columns_for(spec)
    rows: list[tuple] = []
    for start in range(0, len(grid), BATCH_POINTS):
        points, cfgs = zip(*(_build_point(base_cfg, spec, axes, values)
                             for values in grid[start:start + BATCH_POINTS]))
        valid = [cfg for cfg in cfgs if isinstance(cfg, LinkConfig)]
        estimates = iter(photometry.mean_flux_quadrature_batch(valid) if batched else ())
        for point, cfg in zip(points, cfgs):
            try:
                est = cfg if isinstance(cfg, ConfigError) else next(estimates, None)
                if isinstance(est, (ConfigError, NumericalError)):
                    raise est
                point.update(_evaluate_point(cfg, spec, est))
            except (ConfigError, NumericalError) as exc:
                point["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(tuple(point.get(c, "") for c in columns))
    return SweepResult(columns=columns, rows=tuple(rows), spec=spec)


def _build_point(base_cfg: LinkConfig, spec: SweepSpec, axes: list, values: tuple) -> tuple:
    """A grid point's row fields and its config, or the ConfigError refusing it."""
    point: dict[str, Any] = {"metric": spec.metric, "config_hash": "", "error": ""}
    for i, (axis, value) in enumerate(zip(axes, values), 1):
        point[f"axis{i}_path"], point[f"axis{i}_value"] = axis.path, value
    try:
        cfg = base_cfg.with_value({axis.path: v for axis, v in zip(axes, values)})
    except ConfigError as exc:
        return point, exc
    point["config_hash"] = cfg.config_hash()
    return point, cfg


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def write_csv(result: SweepResult, path: str | Path) -> None:
    """RFC-4180 CSV, LF endings, shortest round-trip float formatting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow([_format_cell(v) for v in row])
