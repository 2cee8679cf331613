"""Sweep engine: grids, CSV schema and bytes, failure tolerance."""

import hashlib
import json
import math
import re

import pytest

from aoci import kpi, optics, photometry, specfun, sweep
from aoci.config import ConfigError, LinkConfig
from aoci.figures import FIGURES, load_preset
from aoci.photometry import mean_flux_quadrature, response_window_gain
from aoci.specfun import QuadratureExhaustedError
from aoci.sweep import BATCH_POINTS, SweepAxis, SweepSpec, run_sweep, write_csv


def spec_doc(**overrides):
    doc = {
        "axis1": {"path": "beam.sigma_s_mm", "values": [0.05, 0.1, 0.2]},
        "axis2": None,
        "metric": "mean_flux",
        "method": "quadrature",
    }
    doc.update(overrides)
    return {k: v for k, v in doc.items() if v is not None}


class TestSpecValidation:
    def test_parses_minimal(self):
        spec = SweepSpec.from_dict(spec_doc())
        assert spec.axis1.path == "beam.sigma_s_mm"
        assert spec.axis2 is None

    def test_rejects_empty_axis(self):
        with pytest.raises(ConfigError):
            SweepSpec.from_dict(spec_doc(axis1={"path": "beam.sigma_s_mm", "values": []}))

    def test_rejects_non_monotone_axis(self):
        with pytest.raises(ConfigError):
            SweepAxis("x", (1.0, 3.0, 2.0))

    def test_accepts_decreasing_axis(self):
        SweepAxis("x", (3.0, 2.0, 1.0))

    def test_rejects_unknown_metric(self):
        with pytest.raises(ConfigError):
            SweepSpec.from_dict(spec_doc(metric="snr"))

    def test_rejects_auto_method(self):
        with pytest.raises(ConfigError):
            SweepSpec.from_dict(spec_doc(method="auto"))

    def test_default_method_is_quadrature(self):
        doc = spec_doc()
        del doc["method"]
        assert SweepSpec.from_dict(doc).method == "quadrature"

    def test_rejects_unknown_field(self):
        with pytest.raises(ConfigError):
            SweepSpec.from_dict(spec_doc(extra=1))

    @pytest.mark.parametrize("kind,why", [
        ("directory", "cannot read"), ("not-utf-8", "cannot read"),
        ("not-json", "invalid JSON in"),
    ])
    def test_from_file_refuses_what_is_not_a_json_document(self, tmp_path, kind, why):
        path = tmp_path / "sweep.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"metric": "\xe9"}' if kind == "not-utf-8" else b'{"metric": ')
        with pytest.raises(ConfigError, match=rf"^sweep: {why} {re.escape(str(path))}: "):
            SweepSpec.from_file(path)

    @pytest.mark.parametrize("metric", ["p_hearing", "p_damage"])
    def test_exceedance_needs_the_estimator_sample_floor(self, metric):
        with pytest.raises(ConfigError, match=r"sweep\.mc\.n"):
            SweepSpec.from_dict(spec_doc(metric=metric, mc={"n": 2000}))
        assert SweepSpec.from_dict(spec_doc(metric=metric, mc={"n": 10_000})).mc_n == 10_000
        assert SweepSpec.from_dict(spec_doc(mc={"n": 2000})).mc_n == 2000  # flux MC: 1000

    @pytest.mark.parametrize("values", [[0.05, math.inf], [math.nan], [-math.inf, 0.1]])
    def test_axis_values_are_finite(self, values):
        with pytest.raises(ConfigError, match=r"^sweep\.axis1\.values: expected a finite"):
            SweepSpec.from_dict(spec_doc(axis1={"path": "beam.sigma_s_mm", "values": values}))

    @pytest.mark.parametrize("mc,message", [
        ({"n": "x"}, "sweep.mc.n: expected a number, got 'x'"),
        ({"n": None}, "sweep.mc.n: expected a number, got None"),
        ({"n": 20000.7}, "sweep.mc.n: expected an integer, got 20000.7"),
        ({"seed": -1}, "sweep.mc.seed: must be >= 0, got -1"),
        ({"n": 20000, "sed": 5}, "sweep.mc.sed: unknown field"),  # a typo of seed
    ])
    def test_mc_counts_are_integers_and_the_seed_nonnegative(self, mc, message):
        with pytest.raises(ConfigError) as err:
            SweepSpec.from_dict(spec_doc(mc=mc))
        assert str(err.value) == message

    @pytest.mark.parametrize("metric,message", [
        ((), "need distinct metrics"),
        (("p_hearing", "p_hearing"), "need distinct metrics"),
        (("p_hearing", "snr"), "unknown metric 'snr'"),
    ])
    def test_several_metrics_are_known_and_distinct(self, metric, message):
        with pytest.raises(ConfigError, match=message):
            SweepSpec(SweepAxis("source.power_mw", (1.0,)), None, metric, mc_n=10_000)

    def test_several_metrics_keep_the_exceedance_sample_floor(self):
        with pytest.raises(ConfigError, match="p_damage needs at least 10000"):
            SweepSpec(SweepAxis("source.power_mw", (1.0,)), None, ("mean_flux", "p_damage"),
                      mc_n=2000)

    @pytest.mark.parametrize("counts", [{"mc_seed": True}, {"mc_seed": False},
                                        {"mc_seed": 2.5}, {"mc_n": 20_000.0}, {"mc_n": True},
                                        {"mc_seed": None}, {"mc_n": "x"}])
    @pytest.mark.parametrize("metric", ["mean_flux", "p_hearing"])
    def test_counts_are_ints_as_every_estimator_checks_them(self, counts, metric):
        # refused here, as a ConfigError, not by the estimator once the sweep runs
        with pytest.raises(ConfigError, match=r"^sweep\.mc"):
            SweepSpec(SweepAxis("source.power_mw", (1.0,)), None, metric, **counts)

    def test_integral_float_counts_read_as_ints(self):
        spec = SweepSpec.from_dict(spec_doc(mc={"n": 20000.0, "seed": 0.0}))
        assert (spec.mc_n, spec.mc_seed) == (20000, 0)
        assert type(spec.mc_n) is int and type(spec.mc_seed) is int


class TestRunSweep:
    def test_monotone_flux_column(self, baseline_cfg):
        spec = SweepSpec.from_dict(spec_doc())
        result = run_sweep(baseline_cfg, spec)
        assert len(result.rows) == 3
        values = [float(dict(zip(result.columns, r))["value"]) for r in result.rows]
        assert values[0] > values[1] > values[2]

    def test_two_axis_grid_order(self, baseline_cfg):
        spec = SweepSpec.from_dict(
            spec_doc(axis2={"path": "skin.delta_mm", "values": [4.0, 6.0]})
        )
        result = run_sweep(baseline_cfg, spec)
        assert len(result.rows) == 6
        # axis2 outer, axis1 inner
        records = [dict(zip(result.columns, r)) for r in result.rows]
        assert [r["axis2_value"] for r in records] == [4.0, 4.0, 4.0, 6.0, 6.0, 6.0]
        assert [r["axis1_value"] for r in records[:3]] == [0.05, 0.1, 0.2]

    def test_unresolvable_path_fails_before_running(self, baseline_cfg):
        spec = SweepSpec.from_dict(spec_doc(axis1={"path": "beam.nonsense", "values": [1.0]}))
        with pytest.raises(ConfigError):
            run_sweep(baseline_cfg, spec)

    def test_per_point_failure_recorded(self, baseline_cfg):
        # sigma_s = -1 fails validation for that point only; the run continues
        spec = SweepSpec.from_dict(
            spec_doc(axis1={"path": "beam.sigma_s_mm", "values": [-1.0, 0.1]})
        )
        result = run_sweep(baseline_cfg, spec)
        records = [dict(zip(result.columns, r)) for r in result.rows]
        assert "ConfigError" in records[0]["error"]
        assert records[0]["value"] == ""
        assert records[1]["error"] == "" and records[1]["value"] != ""

    def test_probability_metric_columns(self, baseline_cfg):
        spec = SweepSpec.from_dict(
            spec_doc(
                metric="p_hearing",
                method="mc",
                mc={"n": 10_000, "seed": 3},
                axis1={"path": "source.power_mw", "values": [20.0, 400.0]},
            )
        )
        result = run_sweep(baseline_cfg, spec)
        assert "ci_low" in result.columns and "ci_high" in result.columns
        records = [dict(zip(result.columns, r)) for r in result.rows]
        assert records[0]["value"] <= records[1]["value"]
        assert all(r["seed"] == 3 for r in records)

    def test_disabled_damage_rows_read_float_zeros(self, baseline_doc, tmp_path):
        # d_th = null: value, err_bound and the interval are 0.0, written as such
        baseline_doc["neural"]["d_th_photons"] = None
        spec = SweepSpec.from_dict(spec_doc(metric="p_damage", method="mc",
                                            mc={"n": 10_000, "seed": 3}))
        write_csv(run_sweep(LinkConfig.from_dict(baseline_doc), spec), tmp_path / "out.csv")
        rows = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 3
        assert all(",p_damage,0.0,0.0,monte_carlo,10000,3,0.0,0.0," in row for row in rows)

    def test_false_hearing_metric_has_both_readings(self, baseline_doc):
        baseline_doc["neural"]["y_th_photons"] = 5.0
        baseline_doc["neural"]["d_th_photons"] = 50.0
        cfg = LinkConfig.from_dict(baseline_doc)
        spec = SweepSpec.from_dict(
            spec_doc(metric="p_false_hearing",
                     axis1={"path": "neural.f0_per_s", "values": [5.0, 10.0]})
        )
        result = run_sweep(cfg, spec)
        assert "cdf_closed_form" in result.columns
        records = [dict(zip(result.columns, r)) for r in result.rows]
        assert 0.0 < records[0]["value"] < records[1]["value"] < 1.0

    def test_link_budget_metric(self, baseline_cfg):
        spec = SweepSpec.from_dict(spec_doc(metric="link_budget"))
        result = run_sweep(baseline_cfg, spec)
        records = [dict(zip(result.columns, r)) for r in result.rows]
        assert all(r["value"] > 0 for r in records)

    @pytest.mark.parametrize("metrics", [
        ("p_hearing", "p_damage"), ("p_damage", "p_hearing"),
        ("link_budget", "p_hearing", "p_false_hearing", "mean_flux", "p_damage"),
    ])
    def test_several_metrics_give_each_metrics_lone_rows(self, baseline_cfg, metrics):
        # sigma_s = -1 fails its points for every metric; the rows come metric by metric
        axes = (SweepAxis("source.power_mw", (20.0, 400.0, 5000.0)),
                SweepAxis("beam.sigma_s_mm", (-1.0, 0.05, 0.1)))
        records = _records(run_sweep(baseline_cfg, SweepSpec(*axes, metrics, mc_n=10_000,
                                                             mc_seed=3)))
        assert len(records) == 9 * len(metrics)
        for i, metric in enumerate(metrics):
            lone = run_sweep(baseline_cfg, SweepSpec(*axes, metric, mc_n=10_000, mc_seed=3))
            rows = records[9 * i:9 * (i + 1)]
            assert [{c: row[c] for c in lone.columns} for row in rows] == _records(lone)
            assert all(row[c] == "" for row in rows for c in row if c not in lone.columns)

    def test_two_axis_point_validated_on_the_grid_only(self):
        # (1.6e17, 3.2e17) is valid; the off-grid (y_th 1.6e17, d_th 8e16) is not.
        spec = SweepSpec(SweepAxis("neural.y_th_photons", (2.835e14, 1.6e17)),
                         SweepAxis("neural.d_th_photons", (3.2e17,)), "mean_flux")
        result = run_sweep(load_preset("default"), spec)
        assert [dict(zip(result.columns, r))["error"] for r in result.rows] == ["", ""]


def _records(result):
    return [dict(zip(result.columns, r)) for r in result.rows]


def _point(cfg, record):
    paths = {record["axis1_path"]: record["axis1_value"]}
    if "axis2_path" in record:
        paths[record["axis2_path"]] = record["axis2_value"]
    return cfg.with_value(paths)


class TestBatchedQuadrature:
    """Quadrature flux points run in batches; each row is its lone evaluation."""

    @pytest.mark.parametrize("number", [3, 4, 5, 6])
    def test_figure_rows_equal_lone_quadrature(self, number, monkeypatch):
        # Power only scales the prefactor: figures 4 and 6 integrate once per skin
        # thickness (13) and per jitter (4), figures 3 and 5 once per point.
        integrals, batch = [], photometry.integrate_semi_infinite_batch
        monkeypatch.setattr(photometry, "integrate_semi_infinite_batch",
                            lambda f, scales, *rest: integrals.append(len(scales)) or batch(
                                f, scales, *rest))
        fig, cfg = FIGURES[number], load_preset(f"fig{number}")
        result = run_sweep(cfg, SweepSpec(fig.axis1, fig.axis2, "mean_flux"))
        assert sum(integrals) == {3: 143, 4: 13, 5: 92, 6: 4}[number]
        for record in _records(result):
            est = mean_flux_quadrature(_point(cfg, record))
            assert (record["value"], record["err_bound"]) == (est.value, est.err_bound)

    @pytest.mark.parametrize("metric", ["mean_flux", "link_budget"])
    def test_several_coupling_kernels_in_one_batch(self, baseline_cfg, metric):
        spec = SweepSpec(SweepAxis("coupling.focal_length_mm", (3.0513, 10.0, 20.0, 30.0)),
                         SweepAxis("beam.sigma_s_mm", (0.05, 0.5)), metric)
        gain = response_window_gain(baseline_cfg.neural.tau)
        for record in _records(run_sweep(baseline_cfg, spec)):
            point = _point(baseline_cfg, record)
            est = mean_flux_quadrature(point)
            if metric == "mean_flux":
                expected = est.value, est.err_bound
            else:
                expected = est.value * gain + point.neural.mean_background, est.err_bound * gain
            assert (record["value"], record["err_bound"]) == expected

    def test_wavelength_and_coupling_sweep_uses_each_points_kernel(self, baseline_cfg):
        # Points built by from_dict, not with_value: a coupling patch memoized without
        # its wavelength would give a point another point's coupling argument.
        spec = SweepSpec(SweepAxis("coupling.focal_length_mm", (10.0, 20.0, 30.0)),
                         SweepAxis("source.lambda_nm", (594.0, 650.0)), "mean_flux")
        records = _records(run_sweep(baseline_cfg, spec))
        for record in records:
            doc = baseline_cfg.to_dict()
            doc["coupling"]["focal_length_mm"] = record["axis1_value"]
            doc["source"]["lambda_nm"] = record["axis2_value"]
            point = LinkConfig.from_dict(doc)
            est = mean_flux_quadrature(point)
            assert record["config_hash"] == point.config_hash()
            assert (record["value"], record["err_bound"]) == (est.value, est.err_bound)
        assert len({record["value"] for record in records}) == 6

    def test_exhausted_points_carry_the_lone_error(self, monkeypatch):
        # Every quadrature under a 10-interval cap, so some jitters exhaust.
        monkeypatch.setattr(specfun, "QUAD_MAX_SUBDIVISIONS", 10)
        cfg = load_preset("fig5")
        sigmas = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
        # Both powers share each jitter's integral, and its error when it exhausts.
        result = run_sweep(cfg, SweepSpec(SweepAxis("beam.sigma_s_mm", sigmas),
                                          SweepAxis("source.power_mw", (20.0, 40.0)),
                                          "mean_flux"))
        failed = 0
        for record in _records(result):
            try:
                est = mean_flux_quadrature(_point(cfg, record))
            except QuadratureExhaustedError as exc:
                failed += 1
                assert record["error"] == f"QuadratureExhaustedError: {exc}"
                assert record["value"] == ""
            else:
                assert record["error"] == ""
                assert (record["value"], record["err_bound"]) == (est.value, est.err_bound)
        assert 0 < failed < 2 * len(sigmas) and failed % 2 == 0

    def test_failed_points_shift_no_exceedance(self, monkeypatch, tmp_path):
        # Flux and p_hearing over one grid, with exhausted quadratures and a refused
        # config among the points: every other point keeps its own p_hearing, and a
        # point whose flux failed draws no exceedance.
        monkeypatch.setattr(specfun, "QUAD_MAX_SUBDIVISIONS", 10)
        passed, batch = [], kpi.p_hearing_and_damage_batch

        def counted_batch(cfgs, *args, **kwargs):
            passed.extend(cfgs)
            return batch(cfgs, *args, **kwargs)

        monkeypatch.setattr(kpi, "p_hearing_and_damage_batch", counted_batch)
        cfg = load_preset("fig5")
        sigmas = (2.0, 1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, -0.5)  # the failures first
        result = run_sweep(cfg, SweepSpec(SweepAxis("beam.sigma_s_mm", sigmas), None,
                                          ("mean_flux", "p_hearing"), mc_n=10_000, mc_seed=3))
        flux, hearing = _records(result)[:len(sigmas)], _records(result)[len(sigmas):]
        assert [bool(record["error"]) for record in flux] == [True] * 3 + [False] * 5 + [True]
        assert [c.beam.sigma_s for c in passed] == [s * 1e-3 for s in sigmas[3:8]]
        write_csv(result, tmp_path / "out.csv")  # the bytes of the sweep before the skip
        assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == (
            "5235d3aa6a3cea49fb6bd6bbf52e6ab960ce5faec32035ee4cf56991afe863a9")
        for flux_row, record in zip(flux, hearing):
            assert record["error"] == flux_row["error"]
            if not record["error"]:
                lone = kpi.p_hearing(_point(cfg, record), n=10_000, seed=3)
                assert (record["value"], record["ci_low"]) == (lone.value, lone.interval[0])
        assert len({record["value"] for record in hearing if not record["error"]}) > 2

    def test_batch_of_invalid_points_records_each_config_error(self, baseline_cfg, monkeypatch):
        # The second batch holds only invalid points; the first batch's rows survive.
        monkeypatch.setattr(sweep, "BATCH_POINTS", 2)
        spec = SweepSpec(SweepAxis("beam.sigma_s_mm", (0.1, 0.05, -0.5, -1.0)), None,
                         "mean_flux")
        records = _records(run_sweep(baseline_cfg, spec))
        for record in records[:2]:
            est = mean_flux_quadrature(_point(baseline_cfg, record))
            assert (record["value"], record["err_bound"]) == (est.value, est.err_bound)
        for record in records[2:]:
            with pytest.raises(ConfigError) as exc:
                _point(baseline_cfg, record)
            assert record["error"] == f"ConfigError: {exc.value}"
            assert record["value"] == ""
        assert photometry.mean_flux_quadrature_batch([]) == []

    def test_each_kernel_built_once_beyond_the_kernel_cache(self, baseline_cfg):
        focal = tuple(3.0 + 2.0 * i for i in range(2 * optics.COUPLING_KERNELS + 1))
        spec = SweepSpec(SweepAxis("coupling.focal_length_mm", focal), None, "mean_flux")
        optics._coupling_kernel.cache_clear()
        records = _records(run_sweep(baseline_cfg, spec))
        assert optics._coupling_kernel.cache_info().misses == len(focal)
        for record in records:
            est = mean_flux_quadrature(_point(baseline_cfg, record))
            assert (record["value"], record["err_bound"]) == (est.value, est.err_bound)

    def test_large_sweep_runs_in_bounded_batches(self, baseline_cfg, monkeypatch):
        sizes, batch = [], photometry.mean_flux_quadrature_batch
        monkeypatch.setattr(photometry, "mean_flux_quadrature_batch",
                            lambda cfgs: sizes.append(len(cfgs)) or batch(cfgs))
        sigmas = tuple(0.05 + 0.001 * i for i in range(BATCH_POINTS + 44))
        spec = SweepSpec(SweepAxis("beam.sigma_s_mm", sigmas), None, "mean_flux")
        records = _records(run_sweep(baseline_cfg, spec))
        assert sizes == [BATCH_POINTS, 44]
        for record in records[BATCH_POINTS - 1:BATCH_POINTS + 1]:
            est = mean_flux_quadrature(_point(baseline_cfg, record))
            assert (record["value"], record["err_bound"]) == (est.value, est.err_bound)


class TestSeriesAndMcRoutes:
    """Series and mc flux run per point before the exceedance batch, which gets only
    the points whose flux held; the CSV bytes are those of the parent's sweep."""

    def counted_sweep(self, monkeypatch, tmp_path, cfg, spec):
        sizes, batch = [], kpi.p_hearing_and_damage_batch

        def counted(cfgs, *args, **kwargs):
            sizes.append(len(cfgs))
            return batch(cfgs, *args, **kwargs)

        monkeypatch.setattr(kpi, "p_hearing_and_damage_batch", counted)
        result = run_sweep(cfg, spec)
        write_csv(result, tmp_path / "out.csv")
        digest = hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest()
        return sizes, _records(result), digest

    def test_series_refusals_draw_no_exceedance(self, monkeypatch, tmp_path):
        cfg = load_preset("fig5")
        sigmas = (0.05, 0.1, 0.5, 1.0)
        sizes, records, digest = self.counted_sweep(monkeypatch, tmp_path, cfg, SweepSpec(
            SweepAxis("beam.sigma_s_mm", sigmas), None, ("mean_flux", "p_hearing"),
            method="series", mc_n=10_000, mc_seed=3))
        assert sizes == [2]  # the series refuses sigma_s = 0.5 and 1 mm
        assert digest == "ef99f79e82bc99b385a47f762762779f410cd0324fcc8122b8dc8f82b1326c6c"
        flux, hearing = records[:len(sigmas)], records[len(sigmas):]
        for record in flux:
            try:
                est = photometry.mean_flux_series(_point(cfg, record))
            except specfun.SeriesConvergenceError as exc:
                assert record["error"] == f"SeriesConvergenceError: {exc}"
            else:
                assert (record["value"], record["method"]) == (est.value, "series")
        assert [bool(r["error"]) for r in hearing] == [False, False, True, True]

    def test_mc_flux_rows_are_lone_estimates(self, monkeypatch, tmp_path):
        cfg = load_preset("default")
        metrics = ("mean_flux", "link_budget", "p_hearing", "p_damage")
        sizes, records, digest = self.counted_sweep(monkeypatch, tmp_path, cfg, SweepSpec(
            SweepAxis("beam.sigma_s_mm", (0.05, 0.1, 0.2)),
            SweepAxis("source.power_mw", (10.0, 20.0)), metrics, method="mc", mc_n=10_000,
            mc_seed=9))
        assert sizes == [6]
        assert digest == "04c5ba240e822f64a52f599685b1a8bd362765b8462abd3ae57e773ad673e985"
        for record in records[:6]:
            est = photometry.mean_flux_mc(_point(cfg, record), n=10_000, seed=9)
            assert (record["value"], record["err_bound"], record["n_samples"], record["seed"]) == (
                est.value, est.err_bound, 10_000, 9)


class TestCsvEmission:
    def test_byte_identical_reruns(self, baseline_cfg, tmp_path):
        spec = SweepSpec.from_dict(
            spec_doc(metric="p_hearing", method="mc", mc={"n": 10_000, "seed": 11})
        )
        write_csv(run_sweep(baseline_cfg, spec), tmp_path / "a.csv")
        write_csv(run_sweep(baseline_cfg, spec), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_rfc4180_shape(self, baseline_cfg, tmp_path):
        spec = SweepSpec.from_dict(spec_doc())
        write_csv(run_sweep(baseline_cfg, spec), tmp_path / "out.csv")
        raw = (tmp_path / "out.csv").read_bytes()
        assert b"\r" not in raw  # LF only
        text = raw.decode("utf-8")
        header = text.splitlines()[0].split(",")
        assert header[0] == "axis1_path" and "config_hash" in header

    def test_values_round_trip_through_csv(self, baseline_cfg, tmp_path):
        import csv as csv_mod

        spec = SweepSpec.from_dict(spec_doc())
        result = run_sweep(baseline_cfg, spec)
        write_csv(result, tmp_path / "out.csv")
        with open(tmp_path / "out.csv", newline="") as fh:
            rows = list(csv_mod.DictReader(fh))
        for row, original in zip(rows, result.rows):
            record = dict(zip(result.columns, original))
            assert float(row["value"]) == record["value"]  # repr round-trip
