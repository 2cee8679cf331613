"""Bundled figure presets: the paper's Figs. 3-8 as data, run by one function.

Each entry of ``FIGURES`` is a two-axis sweep over a shipped preset config
(see ``aoci/presets/*.json`` and the calibration notes beside them), its
metrics, plot labels, curve-label template, config-derived marker lines and
trend-check function. ``run_figure`` sweeps all the metrics over one grid,
writes the CSV (one metric's rows after another), draws the SVG and returns
the checks; scales and provenance follow from the metric. The checks are
ratio-based, so they are insensitive to the multiplicative calibration
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from aoci import photometry, svgplot
from aoci.config import LinkConfig
from aoci.sweep import EXCEEDANCES, SweepAxis, SweepResult, SweepSpec, run_sweep, write_csv

__all__ = ["FIGURES", "FIGURE_NUMBERS", "curve", "grid_values", "load_preset", "preset_path",
           "run_figure", "sweep_heatmap"]

DELTA_GRID_MM = tuple(round(4.0 + 0.5 * i, 1) for i in range(13))
THETA_GRID_DEG = tuple(round(5.0 + 2.5 * i, 1) for i in range(11))
DELTA_CURVES_MM = (4.0, 6.0, 8.0, 10.0)
SIGMA_CURVES_MM = (0.01, 0.05, 0.1, 0.5)

_LOG_SCALE = ("mean_flux", "link_budget")  # metrics drawn on a logarithmic scale


def _log_grid(lo: float, hi: float, n: int, include: tuple[float, ...] = ()) -> tuple[float, ...]:
    grid = {round(float(v), 12) for v in np.logspace(math.log10(lo), math.log10(hi), n)}
    grid.update(float(v) for v in include)
    return tuple(sorted(grid))


POWER_GRID_MW = _log_grid(1.0, 200.0, 13, include=(10.0, 20.0))
POWER_GRID_FIG6_MW = _log_grid(1.0, 200.0, 15, include=(10.0, 20.0))
POWER_GRID_FIG8_MW = _log_grid(100.0, 10_000.0, 17)
SIGMA_GRID_MM = _log_grid(0.05, 2.0, 21, include=(0.1, 1.0))
SIGMA_GRID_FIG7_MM = _log_grid(0.01, 0.3, 10)
POWER_GRID_FIG7_MW = tuple(20.0 + 10.0 * i for i in range(11))


@dataclass(frozen=True)
class TrendCheck:
    name: str
    passed: bool
    detail: str


def preset_path(name: str) -> Path:
    """Filesystem path of a bundled preset (config or calibration note)."""
    ref = resources.files("aoci.presets") / name
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled preset {name!r}")
    return Path(str(ref))


def load_preset(name: str) -> LinkConfig:
    """Load a bundled preset config, e.g. 'default' or 'fig5'."""
    return LinkConfig.from_file(preset_path(f"{name}.json"))


class _Grid(dict):
    """``grid_values``' map: reading a point that failed raises a LookupError naming it."""

    def __missing__(self, key: tuple) -> float:
        raise LookupError(f"grid point {key} failed")


def grid_values(result: SweepResult, metric: str | None = None) -> dict[tuple, float]:
    """Value of each grid point that did not fail, keyed ``(axis1, axis2)`` in row
    order; the axis-2 value is None for a one-axis sweep. Only ``metric``'s rows
    are read, every row when it is None (a one-metric sweep)."""
    at = {name: i for i, name in enumerate(result.columns)}
    x, y, name, value, error = (at.get(column) for column in (
        "axis1_value", "axis2_value", "metric", "value", "error"))
    return _Grid({(float(row[x]), None if y is None else row[y]): float(row[value])
                  for row in result.rows
                  if metric in (None, row[name]) and not row[error] and row[value] != ""})


def curve(values: dict[tuple, float], axis2_value=None) -> tuple[list[float], list[float]]:
    """The ``(xs, ys)`` of the points at one axis-2 value, in row order."""
    points = [(x, v) for (x, y), v in values.items() if y == axis2_value]
    return [x for x, _ in points], [v for _, v in points]


def sweep_heatmap(result: SweepResult, values: dict[tuple, float], path: str | Path,
                  xlabel: str, ylabel: str, title: str, provenance: str = "") -> None:
    """Heatmap of a two-axis sweep's ``grid_values``: failed points blank, flux on a log scale."""
    xs, ys = sorted(result.spec.axis1.values), sorted(result.spec.axis2.values)
    grid = [[values.get((x, y), math.nan) for x in xs] for y in ys]
    svgplot.heatmap(path, xs, ys, grid, xlabel, ylabel, title,
                    log_values=result.spec.metrics[0] in _LOG_SCALE, provenance=provenance)


def _judge(name: str, verdict: Callable[[], tuple[bool, str]]) -> TrendCheck:
    """``TrendCheck(name, *verdict())``, or failed with why ``verdict`` could not judge."""
    try:
        return TrendCheck(name, *verdict())
    except (LookupError, ZeroDivisionError) as exc:
        return TrendCheck(name, False, str(exc))


def _trend(ys: list[float], sign: int, fmt: str = ".3e") -> tuple[bool, str]:
    """Whether ``ys`` never moves against ``sign``, with its end points."""
    monotone = all(sign * (b - a) >= 0.0 for a, b in zip(ys, ys[1:]))
    return monotone, f"{ys[0]:{fmt}} -> {ys[-1]:{fmt}}"


def _threshold_line(cfg: LinkConfig) -> dict:
    threshold_flux = cfg.neural.y_th / photometry.response_window_gain(cfg.neural.tau)
    return {"hlines": [(threshold_flux, "excitation threshold")]}


def _exposure_cap_mw(cfg: LinkConfig) -> float:
    return cfg.mpe_skin * math.pi * cfg.skin_spot_radius**2 * 1e3


def _check3(cfg: LinkConfig, flux: dict) -> list[TrendCheck]:
    checks = [
        _judge(f"flux decreasing in skin thickness at theta={theta:g} deg",
               lambda: _trend([flux[delta, theta] for delta in DELTA_GRID_MM], -1))
        for theta in (10.0, 20.0, 30.0)
    ]
    checks.append(_judge("flux decreasing in divergence angle at delta=6 mm",
                         lambda: _trend([flux[6.0, theta] for theta in THETA_GRID_DEG], -1)))
    return checks


def _check4(cfg: LinkConfig, flux: dict) -> list[TrendCheck]:
    return [
        _judge("flux increasing in transmit power at delta=6 mm",
               lambda: _trend([flux[6.0, p] for p in POWER_GRID_MW], +1)),
        _judge("halving power halves the flux (linearity)", lambda: (
            abs(flux[6.0, 10.0] / flux[6.0, 20.0] - 0.5) < 1e-9, "ratio at 10/20 mW")),
    ]


def _check5(cfg: LinkConfig, flux: dict) -> list[TrendCheck]:
    return [_judge(
        "flux(sigma=1 mm) / flux(sigma=0.1 mm) in [0.01, 0.05] at delta=6 mm", lambda: (
            0.01 <= (ratio := flux[1.0, 6.0] / flux[0.1, 6.0]) <= 0.05, f"ratio = {ratio:.4f}"),
    )] + [_judge(f"flux decreasing in jitter at delta={d:g} mm",
                 lambda: _trend([flux[s, d] for s in SIGMA_GRID_MM], -1)) for d in DELTA_CURVES_MM]


def _check6(cfg: LinkConfig, flux: dict) -> list[TrendCheck]:
    return [_judge("flux(sigma=0.1) / flux(sigma=0.5) >= 10 at 20 mW", lambda: (
        (ratio := flux[20.0, 0.1] / flux[20.0, 0.5]) >= 10.0, f"ratio = {ratio:.2f}"))]


def _check7(cfg: LinkConfig, hearing: dict) -> list[TrendCheck]:
    return [
        _judge("hearing probability nondecreasing in power (common random numbers)", lambda: _trend(
            [hearing[SIGMA_GRID_FIG7_MM[0], p] for p in POWER_GRID_FIG7_MW], +1, ".3f")),
        _judge("hearing probability nonincreasing in jitter (common random numbers)", lambda: _trend(
            [hearing[s, POWER_GRID_FIG7_MW[-1]] for s in SIGMA_GRID_FIG7_MM], -1, ".3f")),
    ]


def _check8(cfg: LinkConfig, hearing: dict, damage: dict) -> list[TrendCheck]:
    cap_mw = _exposure_cap_mw(cfg)
    cap_grid_mw = max((p for p in POWER_GRID_FIG8_MW if p <= cap_mw), default=None)

    def at_cap(d: float) -> tuple[bool, str]:
        if cap_grid_mw is None:
            raise LookupError(f"no grid power at or below the cap of {cap_mw:.0f} mW")
        p_d = damage[cap_grid_mw, d]
        return p_d < 1e-3, f"p_damage({cap_grid_mw:.0f} mW) = {p_d:.2e}, cap = {cap_mw:.0f} mW"
    checks = [_judge(f"skin exposure limit binds before damage at delta={d:g} mm",
                     lambda: at_cap(d)) for d in DELTA_CURVES_MM]
    return checks + [_judge("damage probability nondecreasing in power at delta=4 mm", lambda:
                            _trend([damage[p, 4.0] for p in POWER_GRID_FIG8_MW], +1, ".3f"))]


@dataclass(frozen=True)
class Figure:
    """``curve`` formats a line label from ``m`` (the metric less ``p_``) and ``v``
    (the axis-2 value), or is None for a heatmap. ``markers`` maps a config to
    marker lines; ``check`` takes it and one ``grid_values`` map per metric."""

    axis1: SweepAxis
    axis2: SweepAxis
    metrics: tuple[str, ...]
    xlabel: str
    ylabel: str
    title: str
    check: Callable[..., list[TrendCheck]]
    curve: str | None = None
    markers: Callable[[LinkConfig], dict] = lambda cfg: {}


FIGURES = {
    3: Figure(SweepAxis("skin.delta_mm", DELTA_GRID_MM),
              SweepAxis("beam.theta_deg", THETA_GRID_DEG), ("mean_flux",),
              "skin thickness [mm]", "divergence angle [deg]",
              "Average photon flux at 20 mW [1/s]", _check3),
    4: Figure(SweepAxis("skin.delta_mm", DELTA_GRID_MM),
              SweepAxis("source.power_mw", POWER_GRID_MW), ("mean_flux",),
              "skin thickness [mm]", "transmit power [mW]", "Average photon flux [1/s]", _check4),
    5: Figure(SweepAxis("beam.sigma_s_mm", SIGMA_GRID_MM),
              SweepAxis("skin.delta_mm", DELTA_CURVES_MM), ("mean_flux",),
              "pointing jitter sigma_s [mm]", "average photon flux [1/s]",
              "Average photon flux at 40 mW", _check5, "delta = {v:g} mm", _threshold_line),
    6: Figure(SweepAxis("source.power_mw", POWER_GRID_FIG6_MW),
              SweepAxis("beam.sigma_s_mm", SIGMA_CURVES_MM), ("mean_flux",),
              "transmit power [mW]", "average photon flux [1/s]",
              "Average photon flux vs power", _check6, "sigma_s = {v:g} mm", _threshold_line),
    7: Figure(SweepAxis("beam.sigma_s_mm", SIGMA_GRID_FIG7_MM),
              SweepAxis("source.power_mw", POWER_GRID_FIG7_MW), ("p_hearing",),
              "pointing jitter sigma_s [mm]", "transmit power [mW]", "Hearing probability",
              _check7),
    8: Figure(SweepAxis("source.power_mw", POWER_GRID_FIG8_MW),
              SweepAxis("skin.delta_mm", DELTA_CURVES_MM), ("p_hearing", "p_damage"),
              "transmit power [mW]", "probability",
              "Hearing and neural-damage probabilities vs power", _check8,
              "{m}, delta = {v:g} mm",
              lambda cfg: {"vlines": [(_exposure_cap_mw(cfg), "skin exposure cap")]}),
}
FIGURE_NUMBERS = tuple(FIGURES)


def run_figure(number: int, out_dir: str | Path, cfg: LinkConfig | None = None,
               mc_n: int = 20_000, seed: int = 1234) -> list[TrendCheck]:
    """Produce figure ``number`` (CSV + SVG) and return its trend checks."""
    if number not in FIGURES:
        raise ValueError(f"no figure {number}; choose one of {FIGURE_NUMBERS}")
    fig = FIGURES[number]
    if cfg is None:
        cfg = load_preset(f"fig{number}")
    out = Path(out_dir)

    result = run_sweep(cfg, SweepSpec(fig.axis1, fig.axis2, fig.metrics, mc_n=mc_n,
                                      mc_seed=seed))
    write_csv(result, out / f"fig{number}.csv")

    grids = [grid_values(result, metric) for metric in fig.metrics]
    mc = f" seed {seed} n {mc_n}" if fig.metrics[0] in EXCEEDANCES else ""
    provenance = f"config {cfg.config_hash()}{mc}"
    svg_path = out / f"fig{number}.svg"
    if fig.curve is None:
        sweep_heatmap(result, grids[0], svg_path, fig.xlabel, fig.ylabel, fig.title, provenance)
    else:
        series = [(fig.curve.format(m=metric.removeprefix("p_"), v=v), *curve(grid, v))
                  for metric, grid in zip(fig.metrics, grids) for v in fig.axis2.values]
        svgplot.line_plot(svg_path, series, fig.xlabel, fig.ylabel, fig.title, xlog=True,
                          ylog=fig.metrics[0] in _LOG_SCALE, provenance=provenance,
                          **fig.markers(cfg))
    return fig.check(cfg, *grids)
