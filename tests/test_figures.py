"""Bundled figures: every preset sweeps, writes its CSV and SVG, and passes."""

from pathlib import Path

import pytest

from aoci.figures import FIGURE_NUMBERS, FIGURES, grid_values, load_preset, run_figure
from aoci.sweep import SweepAxis, SweepResult, SweepSpec

DEMO_OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"


@pytest.mark.parametrize("number", FIGURE_NUMBERS)
def test_figure_writes_outputs_and_passes(number, tmp_path):
    checks = run_figure(number, tmp_path, mc_n=10_000)
    assert (tmp_path / f"fig{number}.csv").is_file()
    assert (tmp_path / f"fig{number}.svg").is_file()
    assert checks
    assert [c.name for c in checks if not c.passed] == []


def test_unknown_figure_refused(tmp_path):
    with pytest.raises(ValueError):
        run_figure(9, tmp_path)


@pytest.mark.parametrize("number", [3, 4, 5, 6, 7, 8])
def test_monte_carlo_figures_match_the_committed_demo_output(number, tmp_path):
    """Figures 3-8 (the demo's mc_n and seed) rewrite demos/output byte for byte: every
    point's config hash, assembled from per-section fragments, is the hash of its whole
    canonical document, the quadrature's bits in figures 3-6 hold, and figure 8's two
    metrics from one sweep give the rows two sweeps gave."""
    run_figure(number, tmp_path, mc_n=10_000, seed=1234)
    for suffix in ("csv", "svg"):
        name = f"fig{number}.{suffix}"
        assert (tmp_path / name).read_bytes() == (DEMO_OUTPUT / name).read_bytes(), name


TWO_AXES = ("axis1_path", "axis1_value", "axis2_path", "axis2_value", "metric", "value",
            "err_bound", "method", "n_samples", "seed", "ci_low", "ci_high", "config_hash",
            "error")


def _row(x, y, metric, value, error=""):
    fields = dict(axis1_path="source.power_mw", axis1_value=x, axis2_path="skin.delta_mm",
                  axis2_value=y, metric=metric, value=value, error=error)
    return tuple(fields.get(column, "") for column in TWO_AXES)


def test_grid_values_reads_each_metrics_rows_in_row_order():
    spec = SweepSpec(SweepAxis("source.power_mw", (200.0, 100.0)),
                     SweepAxis("skin.delta_mm", (4.0, 6.0)), ("p_hearing", "p_damage"))
    rows = [_row(200.0, 4.0, "p_hearing", 0.9), _row(100.0, 4.0, "p_hearing", 0.5),
            _row(200.0, 6.0, "p_hearing", "", "NumericalError: no"),
            _row(100.0, 6.0, "p_hearing", 0.25),
            _row(200.0, 4.0, "p_damage", 0.125), _row(100.0, 4.0, "p_damage", ""),
            _row(200.0, 6.0, "p_damage", "", "NumericalError: no"),
            _row(100.0, 6.0, "p_damage", 0.0)]
    result = SweepResult(columns=TWO_AXES, rows=tuple(rows), spec=spec)
    hearing = grid_values(result, "p_hearing")
    assert list(hearing.items()) == [((200.0, 4.0), 0.9), ((100.0, 4.0), 0.5),
                                     ((100.0, 6.0), 0.25)]
    assert list(grid_values(result, "p_damage").items()) == [((200.0, 4.0), 0.125),
                                                             ((100.0, 6.0), 0.0)]
    # With no metric named every row is read: a later row of a point overwrites its value
    # in the place of its first.
    assert list(grid_values(result)) == [(200.0, 4.0), (100.0, 4.0), (100.0, 6.0)]
    assert grid_values(result)[100.0, 6.0] == 0.0


def test_grid_values_of_one_axis_keys_each_point_with_none():
    columns = tuple(c for c in TWO_AXES if not c.startswith("axis2"))
    rows = [("beam.sigma_s_mm", x, "mean_flux", v, 1.0, "quadrature", "", "", "", "", "h", e)
            for x, v, e in ((0.5, 2.0, ""), (0.2, "", "ConfigError: no"), (0.1, 8.0, ""))]
    spec = SweepSpec(SweepAxis("beam.sigma_s_mm", (0.5, 0.2, 0.1)), None, "mean_flux")
    result = SweepResult(columns=columns, rows=tuple(rows), spec=spec)
    assert list(grid_values(result).items()) == [((0.5, None), 2.0), ((0.1, None), 8.0)]


@pytest.mark.parametrize("number, failed", [
    (3, (6.0, 10.0)), (4, (6.0, 10.0)), (5, (1.0, 6.0)), (6, (20.0, 0.1)), (7, (0.01, 20.0)),
    (8, (1778.279410038923, 4.0)),  # the grid power under the exposure cap
])
def test_a_failed_point_fails_the_checks_that_read_it(number, failed):
    # Every other point holds a value; each check reading the failed one fails naming it.
    fig = FIGURES[number]
    rows = [_row(x, y, metric, "", "NumericalError: no") if (x, y) == failed else
            _row(x, y, metric, 1.0)
            for metric in fig.metrics for y in fig.axis2.values for x in fig.axis1.values]
    result = SweepResult(columns=TWO_AXES, rows=tuple(rows),
                         spec=SweepSpec(fig.axis1, fig.axis2, fig.metrics, mc_n=10_000))
    checks = fig.check(load_preset(f"fig{number}"), *(grid_values(result, metric)
                                                      for metric in fig.metrics))
    named = [check for check in checks if check.detail == f"grid point {failed} failed"]
    assert named and not any(check.passed for check in named)


@pytest.mark.parametrize("number", [4, 5, 6])
def test_a_ratio_over_a_zero_flux_fails_and_the_trends_hold(number):
    # Opaque skin gives a flux of 0 everywhere: no ratio is defined, no trend is broken.
    fig = FIGURES[number]
    rows = [_row(x, y, "mean_flux", 0.0) for y in fig.axis2.values for x in fig.axis1.values]
    result = SweepResult(columns=TWO_AXES, rows=tuple(rows),
                         spec=SweepSpec(fig.axis1, fig.axis2, fig.metrics))
    checks = fig.check(load_preset(f"fig{number}"), grid_values(result))
    assert [check.detail for check in checks if not check.passed] == ["float division by zero"]
