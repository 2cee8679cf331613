"""Sweep engine: grids, CSV schema and bytes, failure tolerance."""

import json

import pytest

from aoci.config import ConfigError, LinkConfig
from aoci.sweep import SweepAxis, SweepSpec, run_sweep, write_csv


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

    @pytest.mark.parametrize("metric", ["p_hearing", "p_damage"])
    def test_exceedance_needs_the_estimator_sample_floor(self, metric):
        with pytest.raises(ConfigError, match=r"sweep\.mc\.n"):
            SweepSpec.from_dict(spec_doc(metric=metric, mc={"n": 2000}))
        assert SweepSpec.from_dict(spec_doc(metric=metric, mc={"n": 10_000})).mc_n == 10_000
        assert SweepSpec.from_dict(spec_doc(mc={"n": 2000})).mc_n == 2000  # flux MC: 1000


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
