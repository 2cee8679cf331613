"""Parameter sweeps over link configurations with CSV emission.

A sweep varies one or two raw config fields (dotted paths into the unit-
suffixed document, e.g. ``beam.sigma_s_mm``) over explicit value lists and
evaluates one or more metrics per grid point. Each point's config is built
with all its axis values set at once and validated once, by ``with_value``,
which takes the config sections the axes touch from a memo of section patches;
the config and its hash serve every metric. Points go ``BATCH_POINTS`` at a
time: their quadrature flux (``mean_flux`` / ``link_budget``) through one
quadrature, one integral per distinct integrand (power only scales it), and
their ``p_hearing`` and ``p_damage`` through one exceedance pass, each bitwise
as lone evaluations. A point's fixed cost is that config, its hash and one
tuple per metric, laid out by column index. Rows are written metric by metric,
each in grid order: axis2 outer, axis1 inner, so axis1 is the natural x-axis
of a plotted curve family. Per-point numerical failures are recorded in the
``error`` column and the run continues.

CSV is RFC-4180 with LF line endings, '.' decimal separator, UTF-8; floats
are written with shortest round-trip repr, so re-running an identical sweep
reproduces the file byte for byte. Every row carries the config hash of the
evaluated point and the seed when randomness was involved.
"""

from __future__ import annotations

import csv
import itertools
import operator
from dataclasses import dataclass
from pathlib import Path

from aoci import kpi, photometry
from aoci.config import ConfigError, LinkConfig, _finite, _number, _read_json, _reject_unknown
from aoci.specfun import NumericalError

__all__ = ["SweepAxis", "SweepSpec", "SweepResult", "run_sweep", "write_csv"]

METRICS = ("mean_flux", "p_hearing", "p_false_hearing", "p_damage", "link_budget")
METHODS = ("quadrature", "series", "mc")
EXCEEDANCES = ("p_hearing", "p_damage")  # kpi's Monte Carlo probabilities
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
    """``metric`` is one metric name, or a tuple of distinct names evaluated over one grid."""

    axis1: SweepAxis
    axis2: SweepAxis | None
    metric: str | tuple[str, ...]
    method: str = "quadrature"
    mc_n: int = 100_000
    mc_seed: int = 1234

    def __post_init__(self) -> None:
        for metric in self.metrics:
            if metric not in METRICS:
                raise ConfigError(f"sweep.metric: unknown metric {metric!r}")
        if not self.metrics or len(set(self.metrics)) < len(self.metrics):
            raise ConfigError(f"sweep.metric: need distinct metrics, got {self.metric!r}")
        if self.method not in METHODS:
            raise ConfigError(f"sweep.method: unknown method {self.method!r}")
        if self.mc_seed < 0:
            raise ConfigError(f"sweep.mc.seed: must be >= 0, got {self.mc_seed}")
        if self.mc_n < 1000:
            raise ConfigError(f"sweep.mc.n: need at least 1000 samples, got {self.mc_n}")
        for metric in EXCEEDANCES:
            if metric in self.metrics and self.mc_n < kpi.MIN_SAMPLES:
                raise ConfigError(f"sweep.mc.n: {metric} needs at least {kpi.MIN_SAMPLES} "
                                  f"samples, got {self.mc_n}")

    @property
    def metrics(self) -> tuple[str, ...]:
        return (self.metric,) if isinstance(self.metric, str) else tuple(self.metric)

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepSpec":
        if not isinstance(doc, dict):
            raise ConfigError("sweep: expected a JSON object")
        _reject_unknown(doc, {"axis1", "axis2", "metric", "method", "mc"}, "sweep")

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
            return SweepAxis(path=str(node["path"]),
                             values=tuple(_finite(v, f"sweep.{key}.values") for v in values))

        mc = doc.get("mc", {})
        if not isinstance(mc, dict):
            raise ConfigError("sweep.mc: expected an object")
        _reject_unknown(mc, {"n", "seed"}, "sweep.mc")
        counts = {f"mc_{key}": _number(mc, key, "sweep.mc", integer=True)
                  for key in ("n", "seed") if key in mc}
        return cls(
            axis1=axis("axis1", required=True),
            axis2=axis("axis2", required=False),
            metric=str(doc.get("metric", "mean_flux")),
            method=str(doc.get("method", "quadrature")),
            **counts,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepSpec":
        return cls.from_dict(_read_json(path, "sweep"))


@dataclass(frozen=True)
class SweepResult:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    spec: SweepSpec


# The columns a metric can fill, in column order; a row leaves the others empty.
METRIC_COLUMNS = ("value", "err_bound", "method", "n_samples", "seed", "ci_low", "ci_high",
                  "cdf_closed_form")


def _evaluate_point(cfg: LinkConfig, metrics: tuple[str, ...], method: str, n: int, seed: int,
                    est=None, pair=None) -> list[tuple]:
    """One point's ``METRIC_COLUMNS`` per metric ("" where unset): flux by ``method`` at
    (n, seed) unless ``est`` is given, and the exceedances from its (p_hearing, p_damage)."""
    fields = []
    for metric in metrics:
        if metric in ("mean_flux", "link_budget"):
            if est is None:
                est = photometry.mean_flux(cfg, method=method, n=n, seed=seed)
            value, err = est.value, est.err_bound
            if metric == "link_budget":
                value = photometry.link_budget(cfg, est)
                err *= photometry.response_window_gain(cfg.neural.tau)
            drawn = (est.n_samples, est.seed) if est.method == "monte_carlo" else ("", "")
            fields.append((value, err, est.method, *drawn, "", "", ""))
        elif metric in EXCEEDANCES:
            p = pair[EXCEEDANCES.index(metric)]
            fields.append((p.value, 0.5 * (p.ci_high - p.ci_low), "monte_carlo", p.n_samples,
                           p.seed, p.ci_low, p.ci_high, ""))
        else:  # p_false_hearing
            fh = kpi.p_false_hearing(cfg.neural)
            fields.append((fh.literal, 0.0, "closed_form", "", "", "", "", fh.cdf_closed_form))
    return fields


def _columns_for(spec: SweepSpec) -> tuple[str, ...]:
    cols = ["axis1_path", "axis1_value"]
    if spec.axis2 is not None:
        cols += ["axis2_path", "axis2_value"]
    cols += ["metric", *METRIC_COLUMNS[:5]]
    if any(m in EXCEEDANCES for m in spec.metrics):
        cols += ["ci_low", "ci_high"]
    if "p_false_hearing" in spec.metrics:
        cols += ["cdf_closed_form"]
    cols += ["config_hash", "error"]
    return tuple(cols)


def run_sweep(base_cfg: LinkConfig, spec: SweepSpec) -> SweepResult:
    """Evaluate every metric of ``spec`` over the full grid, tolerating per-point failures.

    ``BATCH_POINTS`` points at a time (bounded memory): their configs first, then
    their quadrature flux together by ``photometry.mean_flux_quadrature_batch`` and
    their exceedances by ``kpi.p_hearing_and_damage_batch``.
    A point's config, and its error if it fails, serve every metric's row; each row
    is laid out by column index: the axes, the metric, its columns, hash and error.
    """
    axes = [axis for axis in (spec.axis1, spec.axis2) if axis is not None]
    for axis in axes:  # every path must resolve before any evaluation starts
        base_cfg.resolve(axis.path)
    paths = [axis.path for axis in axes]
    grid = [combo[::-1] for combo in itertools.product(*(a.values for a in axes[::-1]))]
    metrics = spec.metrics
    batched = spec.method == "quadrature" and any(
        m in ("mean_flux", "link_budget") for m in metrics)
    columns = _columns_for(spec)
    pick = operator.itemgetter(*(METRIC_COLUMNS.index(c) for c in columns
                                 if c in METRIC_COLUMNS))
    failed = ("",) * len(pick(METRIC_COLUMNS))
    rows: list[list[tuple]] = [[] for _ in metrics]
    for start in range(0, len(grid), BATCH_POINTS):
        points = grid[start:start + BATCH_POINTS]
        cfgs = [_build_point(base_cfg, paths, values) for values in points]
        valid = [cfg for cfg in cfgs if isinstance(cfg, LinkConfig)]
        # (flux, exceedance pair) per valid point, in order: a failed flux shifts no pair
        results = zip(
            photometry.mean_flux_quadrature_batch(valid) if batched else itertools.repeat(None),
            kpi.p_hearing_and_damage_batch(valid, spec.mc_n, spec.mc_seed)
            if set(EXCEEDANCES) & set(metrics) else itertools.repeat(None))
        for values, cfg in zip(points, cfgs):
            head = tuple(itertools.chain.from_iterable(zip(paths, values)))
            config_hash = "" if isinstance(cfg, ConfigError) else cfg.config_hash()
            try:
                est, pair = (cfg, None) if isinstance(cfg, ConfigError) else next(results)
                if isinstance(est, (ConfigError, NumericalError)):
                    raise est
                fields = [pick(out) for out in _evaluate_point(
                    cfg, metrics, spec.method, spec.mc_n, spec.mc_seed, est, pair)]
                error = ""
            except (ConfigError, NumericalError) as exc:
                fields, error = [failed] * len(metrics), f"{type(exc).__name__}: {exc}"
            for metric_rows, metric, out in zip(rows, metrics, fields):
                metric_rows.append((*head, metric, *out, config_hash, error))
    return SweepResult(columns=columns, rows=tuple(itertools.chain(*rows)), spec=spec)


def _build_point(base_cfg: LinkConfig, paths: list, values: tuple) -> LinkConfig | ConfigError:
    """A grid point's config, or the ConfigError refusing it."""
    try:
        return base_cfg.with_value(dict(zip(paths, values)))
    except ConfigError as exc:
        return exc


def write_csv(result: SweepResult, path: str | Path) -> None:
    """RFC-4180 CSV, LF endings, shortest round-trip float formatting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # floats as str(): shortest round trip
        writer.writerow(result.columns)
        writer.writerows(result.rows)
