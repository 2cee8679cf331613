"""Bundled figure presets: sweeps, SVG rendering, and trend checks.

Each figure is a named sweep over one of the shipped preset configurations
(see ``aoci/presets/*.json`` and the calibration notes beside them). After
emitting the CSV and SVG, the relevant scale-free trend checks run and a
pass/fail line is printed for each; the checks are ratio-based so they are
insensitive to the multiplicative calibration constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from aoci import photometry, svgplot
from aoci.config import LinkConfig
from aoci.sweep import SweepAxis, SweepSpec, run_sweep, write_csv

__all__ = ["FIGURE_NUMBERS", "load_preset", "preset_path", "run_figure"]

FIGURE_NUMBERS = (3, 4, 5, 6, 7, 8)

DELTA_GRID_MM = tuple(round(4.0 + 0.5 * i, 1) for i in range(13))
THETA_GRID_DEG = tuple(round(5.0 + 2.5 * i, 1) for i in range(11))
DELTA_CURVES_MM = (4.0, 6.0, 8.0, 10.0)
SIGMA_CURVES_MM = (0.01, 0.05, 0.1, 0.5)


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


def _series_from_rows(result, axis2_value) -> tuple[list[float], list[float]]:
    xs, ys = [], []
    for row in result.rows:
        record = dict(zip(result.columns, row))
        if axis2_value is not None and record.get("axis2_value") != axis2_value:
            continue
        if record["error"] or record["value"] == "":
            continue
        xs.append(float(record["axis1_value"]))
        ys.append(float(record["value"]))
    return xs, ys


def _value_at(result, axis1_value: float, axis2_value=None) -> float:
    xs, ys = _series_from_rows(result, axis2_value)
    for x, y in zip(xs, ys):
        if math.isclose(x, axis1_value, rel_tol=1e-9):
            return y
    raise KeyError(f"grid point {axis1_value} not found")


def _monotone(values: list[float], sign: int) -> bool:
    return all(sign * (b - a) >= 0.0 for a, b in zip(values, values[1:]))


def _heatmap_from_result(result, path: Path, xlabel: str, ylabel: str, title: str,
                         log_values: bool, provenance: str = "") -> None:
    xs = sorted({float(dict(zip(result.columns, r))["axis1_value"]) for r in result.rows})
    ys = sorted({float(dict(zip(result.columns, r))["axis2_value"]) for r in result.rows})
    grid = [[math.nan for _ in xs] for _ in ys]
    for row in result.rows:
        record = dict(zip(result.columns, row))
        if record["error"] or record["value"] == "":
            continue
        i = xs.index(float(record["axis1_value"]))
        j = ys.index(float(record["axis2_value"]))
        grid[j][i] = float(record["value"])
    svgplot.heatmap(path, xs, ys, grid, xlabel, ylabel, title,
                    log_values=log_values, provenance=provenance)


def _figure3(cfg: LinkConfig, out_dir: Path, mc_n: int, seed: int):
    spec = SweepSpec(
        axis1=SweepAxis("skin.delta_mm", DELTA_GRID_MM),
        axis2=SweepAxis("beam.theta_deg", THETA_GRID_DEG),
        metric="mean_flux",
    )
    result = run_sweep(cfg, spec)
    write_csv(result, out_dir / "fig3.csv")
    _heatmap_from_result(
        result, out_dir / "fig3.svg", "skin thickness [mm]",
        "divergence angle [deg]", "Average photon flux at 20 mW [1/s]", True,
        provenance=f"config {cfg.config_hash()}",
    )
    checks = []
    for theta in (10.0, 20.0, 30.0):
        xs, ys = _series_from_rows(result, theta)
        checks.append(TrendCheck(
            f"flux decreasing in skin thickness at theta={theta:g} deg",
            _monotone(ys, -1), f"{ys[0]:.3e} -> {ys[-1]:.3e}",
        ))
    by_theta = [_value_at(result, 6.0, th) for th in THETA_GRID_DEG]
    checks.append(TrendCheck(
        "flux decreasing in divergence angle at delta=6 mm",
        _monotone(by_theta, -1), f"{by_theta[0]:.3e} -> {by_theta[-1]:.3e}",
    ))
    return result, checks


def _figure4(cfg: LinkConfig, out_dir: Path, mc_n: int, seed: int):
    spec = SweepSpec(
        axis1=SweepAxis("skin.delta_mm", DELTA_GRID_MM),
        axis2=SweepAxis("source.power_mw", POWER_GRID_MW),
        metric="mean_flux",
    )
    result = run_sweep(cfg, spec)
    write_csv(result, out_dir / "fig4.csv")
    _heatmap_from_result(
        result, out_dir / "fig4.svg", "skin thickness [mm]",
        "transmit power [mW]", "Average photon flux [1/s]", True,
        provenance=f"config {cfg.config_hash()}",
    )
    at_6mm = [_value_at(result, 6.0, p) for p in POWER_GRID_MW]
    checks = [
        TrendCheck(
            "flux increasing in transmit power at delta=6 mm",
            _monotone(at_6mm, +1), f"{at_6mm[0]:.3e} -> {at_6mm[-1]:.3e}",
        ),
        TrendCheck(
            "halving power halves the flux (linearity)",
            abs(_value_at(result, 6.0, 10.0) / _value_at(result, 6.0, 20.0) - 0.5) < 1e-9,
            "ratio at 10/20 mW",
        ),
    ]
    return result, checks


def _figure5(cfg: LinkConfig, out_dir: Path, mc_n: int, seed: int):
    spec = SweepSpec(
        axis1=SweepAxis("beam.sigma_s_mm", SIGMA_GRID_MM),
        axis2=SweepAxis("skin.delta_mm", DELTA_CURVES_MM),
        metric="mean_flux",
    )
    result = run_sweep(cfg, spec)
    write_csv(result, out_dir / "fig5.csv")
    series = [
        (f"delta = {d:g} mm", *_series_from_rows(result, d)) for d in DELTA_CURVES_MM
    ]
    threshold_flux = cfg.neural.y_th / photometry.response_window_gain(cfg.neural.tau)
    svgplot.line_plot(
        out_dir / "fig5.svg", series, "pointing jitter sigma_s [mm]",
        "average photon flux [1/s]", "Average photon flux at 40 mW",
        xlog=True, ylog=True, hlines=[(threshold_flux, "excitation threshold")],
        provenance=f"config {cfg.config_hash()}",
    )
    ratio = _value_at(result, 1.0, 6.0) / _value_at(result, 0.1, 6.0)
    checks = [
        TrendCheck(
            "flux(sigma=1 mm) / flux(sigma=0.1 mm) in [0.01, 0.05] at delta=6 mm",
            0.01 <= ratio <= 0.05, f"ratio = {ratio:.4f}",
        )
    ]
    for d in DELTA_CURVES_MM:
        _, ys = _series_from_rows(result, d)
        checks.append(TrendCheck(
            f"flux decreasing in jitter at delta={d:g} mm",
            _monotone(ys, -1), f"{ys[0]:.3e} -> {ys[-1]:.3e}",
        ))
    return result, checks


def _figure6(cfg: LinkConfig, out_dir: Path, mc_n: int, seed: int):
    spec = SweepSpec(
        axis1=SweepAxis("source.power_mw", POWER_GRID_FIG6_MW),
        axis2=SweepAxis("beam.sigma_s_mm", SIGMA_CURVES_MM),
        metric="mean_flux",
    )
    result = run_sweep(cfg, spec)
    write_csv(result, out_dir / "fig6.csv")
    series = [
        (f"sigma_s = {s:g} mm", *_series_from_rows(result, s)) for s in SIGMA_CURVES_MM
    ]
    threshold_flux = cfg.neural.y_th / photometry.response_window_gain(cfg.neural.tau)
    svgplot.line_plot(
        out_dir / "fig6.svg", series, "transmit power [mW]",
        "average photon flux [1/s]", "Average photon flux vs power",
        xlog=True, ylog=True, hlines=[(threshold_flux, "excitation threshold")],
        provenance=f"config {cfg.config_hash()}",
    )
    ratio = _value_at(result, 20.0, 0.1) / _value_at(result, 20.0, 0.5)
    checks = [
        TrendCheck(
            "flux(sigma=0.1) / flux(sigma=0.5) >= 10 at 20 mW",
            ratio >= 10.0, f"ratio = {ratio:.2f}",
        )
    ]
    return result, checks


def _figure7(cfg: LinkConfig, out_dir: Path, mc_n: int, seed: int):
    spec = SweepSpec(
        axis1=SweepAxis("beam.sigma_s_mm", SIGMA_GRID_FIG7_MM),
        axis2=SweepAxis("source.power_mw", POWER_GRID_FIG7_MW),
        metric="p_hearing",
        mc_n=mc_n,
        mc_seed=seed,
    )
    result = run_sweep(cfg, spec)
    write_csv(result, out_dir / "fig7.csv")
    _heatmap_from_result(
        result, out_dir / "fig7.svg", "pointing jitter sigma_s [mm]",
        "transmit power [mW]", "Hearing probability", False,
        provenance=f"config {cfg.config_hash()} seed {seed} n {mc_n}",
    )
    by_power = [_value_at(result, SIGMA_GRID_FIG7_MM[0], p) for p in POWER_GRID_FIG7_MW]
    by_sigma = [_value_at(result, s, POWER_GRID_FIG7_MW[-1]) for s in SIGMA_GRID_FIG7_MM]
    checks = [
        TrendCheck(
            "hearing probability nondecreasing in power (common random numbers)",
            _monotone(by_power, +1), f"{by_power[0]:.3f} -> {by_power[-1]:.3f}",
        ),
        TrendCheck(
            "hearing probability nonincreasing in jitter (common random numbers)",
            _monotone(by_sigma, -1), f"{by_sigma[0]:.3f} -> {by_sigma[-1]:.3f}",
        ),
    ]
    return result, checks


def _figure8(cfg: LinkConfig, out_dir: Path, mc_n: int, seed: int):
    hearing_spec = SweepSpec(
        axis1=SweepAxis("source.power_mw", POWER_GRID_FIG8_MW),
        axis2=SweepAxis("skin.delta_mm", DELTA_CURVES_MM),
        metric="p_hearing",
        mc_n=mc_n,
        mc_seed=seed,
    )
    damage_spec = SweepSpec(
        axis1=SweepAxis("source.power_mw", POWER_GRID_FIG8_MW),
        axis2=SweepAxis("skin.delta_mm", DELTA_CURVES_MM),
        metric="p_damage",
        mc_n=mc_n,
        mc_seed=seed,
    )
    hearing = run_sweep(cfg, hearing_spec)
    damage = run_sweep(cfg, damage_spec)
    combined_rows = hearing.rows + damage.rows
    result = type(hearing)(columns=hearing.columns, rows=combined_rows, spec=hearing_spec)
    write_csv(result, out_dir / "fig8.csv")

    mpe_cap_mw = cfg.mpe_skin * math.pi * cfg.skin_spot_radius**2 * 1e3
    series = []
    for d in DELTA_CURVES_MM:
        xs, ys = _series_from_rows(hearing, d)
        series.append((f"hearing, delta = {d:g} mm", xs, ys))
    for d in DELTA_CURVES_MM:
        xs, ys = _series_from_rows(damage, d)
        series.append((f"damage, delta = {d:g} mm", xs, ys))
    svgplot.line_plot(
        out_dir / "fig8.svg", series, "transmit power [mW]", "probability",
        "Hearing and neural-damage probabilities vs power",
        xlog=True, ylog=False,
        vlines=[(mpe_cap_mw, "skin exposure cap")],
        provenance=f"config {cfg.config_hash()} seed {seed} n {mc_n}",
    )

    checks = []
    cap_grid_mw = max(p for p in POWER_GRID_FIG8_MW if p <= mpe_cap_mw)
    for d in DELTA_CURVES_MM:
        p_d = _value_at(damage, cap_grid_mw, d)
        checks.append(TrendCheck(
            f"skin exposure limit binds before damage at delta={d:g} mm",
            p_d < 1e-3,
            f"p_damage({cap_grid_mw:.0f} mW) = {p_d:.2e}, cap = {mpe_cap_mw:.0f} mW",
        ))
    xs, ys = _series_from_rows(damage, 4.0)
    checks.append(TrendCheck(
        "damage probability nondecreasing in power at delta=4 mm",
        _monotone(ys, +1), f"{ys[0]:.3f} -> {ys[-1]:.3f}",
    ))
    return result, checks


_BUILDERS = {3: _figure3, 4: _figure4, 5: _figure5, 6: _figure6, 7: _figure7, 8: _figure8}


def run_figure(
    number: int,
    out_dir: str | Path,
    cfg: LinkConfig | None = None,
    mc_n: int = 20_000,
    seed: int = 1234,
) -> list[TrendCheck]:
    """Produce figure ``number`` (CSV + SVG) and return its trend checks."""
    if number not in _BUILDERS:
        raise ValueError(f"no figure {number}; choose one of {FIGURE_NUMBERS}")
    if cfg is None:
        cfg = load_preset(f"fig{number}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, checks = _BUILDERS[number](cfg, out, mc_n, seed)
    return checks
