"""CLI surface: subcommands, exit codes, determinism of emitted artifacts."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aoci
from aoci.cli import main
from aoci.figures import load_preset, preset_path


@pytest.fixture()
def config_path(baseline_doc, tmp_path):
    path = tmp_path / "link.json"
    path.write_text(json.dumps(baseline_doc))
    return str(path)


class TestEval:
    def test_quadrature_report(self, config_path, capsys):
        code = main(["eval", "--config", config_path, "--method", "quadrature",
                     "--samples", "10000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "method    = quadrature" in out
        assert "p_hearing" in out and "dynamic range" in out
        assert "path gain h_l" in out

    def test_rerun_bit_identical(self, config_path, capsys):
        main(["eval", "--config", config_path, "--samples", "10000", "--seed", "42"])
        first = capsys.readouterr().out
        main(["eval", "--config", config_path, "--samples", "10000", "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second

    def test_mc_method_reports_seed(self, config_path, capsys):
        code = main(["eval", "--config", config_path, "--method", "mc",
                     "--samples", "10000", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "monte_carlo" in out and "seed = 7" in out

    def test_default_method_is_quadrature(self, config_path, capsys):
        code = main(["eval", "--config", config_path, "--samples", "10000"])
        assert code == 0
        assert "method    = quadrature" in capsys.readouterr().out

    def test_series_exits_3_on_hard_config(self, baseline_doc, tmp_path, capsys):
        baseline_doc["beam"]["sigma_s_mm"] = 30.0  # defeats the series route
        path = tmp_path / "hard.json"
        path.write_text(json.dumps(baseline_doc))
        code = main(["eval", "--config", str(path), "--method", "series",
                     "--samples", "10000"])
        captured = capsys.readouterr()
        assert code == 3
        assert "rerun with --method quadrature" in captured.err
        assert "average photon flux" not in captured.out

    def test_opaque_skin_reports_empty_range(self, baseline_doc, tmp_path, capsys):
        baseline_doc["skin"]["mu_a_per_mm"] = 124.0  # no photon crosses the skin
        path = tmp_path / "opaque.json"
        path.write_text(json.dumps(baseline_doc))
        code = main(["eval", "--config", str(path), "--samples", "10000"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        assert "dynamic range    = empty" in captured.out

    def test_bad_config_exits_2(self, baseline_doc, tmp_path, capsys):
        baseline_doc["beam"]["sigma_s_mm"] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(baseline_doc))
        code = main(["eval", "--config", str(path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "x", None, True])
    def test_bad_mpe_limit_exits_2_with_one_line(self, baseline_doc, tmp_path, capsys, value):
        baseline_doc["mpe"] = {"neuron_mw_per_mm2": value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(baseline_doc))
        assert main(["eval", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config.mpe") and err.count("\n") == 1

    @pytest.mark.parametrize("path,value", [
        ("skin.mu_a_per_mm", float("nan")),
        ("fiber.n_fbg", float("inf")),
        ("fiber.n_fbg", 1.5),
        ("numerics.series.max_terms_per_index", 400.5),
    ])
    def test_non_finite_or_fractional_leaf_exits_2_with_one_line(
            self, baseline_doc, tmp_path, capsys, path, value):
        baseline_doc["numerics"] = {"series": {}}
        *parents, leaf = path.split(".")
        node = baseline_doc
        for part in parents:
            node = node[part]
        node[leaf] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(baseline_doc))
        assert main(["eval", "--config", str(config), "--samples", "10000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: config.{path}: expected ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.filterwarnings("ignore::UserWarning")  # study-range notices
    @pytest.mark.parametrize("path", ["beam.beta_mm", "skin.delta_mm", "source.lambda_nm"])
    def test_finite_extreme_with_no_channel_state_exits_2(
            self, baseline_doc, tmp_path, capsys, path):
        section, key = path.split(".")
        baseline_doc[section][key] = 1e300
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(baseline_doc))
        assert main(["eval", "--config", str(config), "--samples", "10000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert f"config.{path}" in captured.err and captured.out == ""

    def test_eval_csv_keeps_seed_zero(self, config_path, tmp_path, capsys):
        main(["eval", "--config", config_path, "--method", "mc", "--samples", "10000",
              "--seed", "0", "--out", str(tmp_path)])
        capsys.readouterr()
        with open(tmp_path / "eval.csv", encoding="utf-8", newline="") as fh:
            rows = {row["quantity"]: row for row in csv.DictReader(fh)}
        for quantity in ("mean_flux_per_s", "link_budget_counts", "p_hearing", "p_damage"):
            assert (rows[quantity]["n_samples"], rows[quantity]["seed"]) == ("10000", "0")
        assert rows["p_false_hearing_literal"]["seed"] == ""

    def test_missing_file_exits_2(self, capsys):
        assert main(["eval", "--config", "/nonexistent/link.json"]) == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--seed", "-1"],
        ["eval", "--method", "mc", "--seed", "-1"],
        ["eval", "--seed", "x"],
        ["eval", "--samples", "5000"],  # below kpi.MIN_SAMPLES, which the report needs
        ["figure", "8", "--seed", "-1"],
    ])
    def test_bad_seed_or_sample_count_is_a_usage_error(self, argv, config_path, tmp_path, capsys):
        extra = ["--config", config_path] if argv[0] == "eval" else ["--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"argument {argv[-2]}: " in err.splitlines()[-1]

    def test_eval_csv_written_and_deterministic(self, config_path, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["eval", "--config", config_path, "--samples", "10000",
              "--seed", "5", "--out", str(out_a)])
        main(["eval", "--config", config_path, "--samples", "10000",
              "--seed", "5", "--out", str(out_b)])
        capsys.readouterr()
        a = (out_a / "eval.csv").read_bytes()
        b = (out_b / "eval.csv").read_bytes()
        assert a == b
        assert b"config_hash" in a


class TestSweep:
    def make_sweep(self, tmp_path, **overrides):
        doc = {
            "axis1": {"path": "beam.sigma_s_mm", "values": [0.05, 0.1, 0.2]},
            "metric": "mean_flux",
            "method": "quadrature",
        }
        doc.update(overrides)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_sweep_writes_csv(self, config_path, tmp_path, capsys):
        sweep_path = self.make_sweep(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", config_path, "--sweep", sweep_path,
                     "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "sweep.csv").exists()

    def test_sweep_svg_one_axis(self, config_path, tmp_path, capsys):
        sweep_path = self.make_sweep(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", config_path, "--sweep", sweep_path,
                     "--out", str(out_dir), "--svg"])
        assert code == 0
        svg = (out_dir / "sweep.svg").read_text()
        assert svg.startswith("<?xml") and "<polyline" in svg

    def test_sweep_svg_two_axis_heatmap(self, config_path, tmp_path, capsys):
        sweep_path = self.make_sweep(
            tmp_path, axis2={"path": "skin.delta_mm", "values": [4.0, 6.0]}
        )
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", config_path, "--sweep", sweep_path,
                     "--out", str(out_dir), "--svg"])
        assert code == 0
        assert "<rect" in (out_dir / "sweep.svg").read_text()

    def test_sweep_csv_bytes_reproducible(self, config_path, tmp_path, capsys):
        sweep_path = self.make_sweep(
            tmp_path, metric="p_hearing", method="mc", mc={"n": 10000, "seed": 9}
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", config_path, "--sweep", sweep_path, "--out", str(out_a)])
        main(["sweep", "--config", config_path, "--sweep", sweep_path, "--out", str(out_b)])
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_bad_sweep_spec_exits_2(self, config_path, tmp_path, capsys):
        sweep_path = self.make_sweep(tmp_path, axis1={"path": "beam.sigma_s_mm", "values": []})
        assert main(["sweep", "--config", config_path, "--sweep", sweep_path,
                     "--out", str(tmp_path / "out")]) == 2

    def test_exceedance_sweep_below_sample_floor_exits_2(self, config_path, tmp_path, capsys):
        sweep_path = self.make_sweep(tmp_path, metric="p_hearing", method="mc",
                                     mc={"n": 2000, "seed": 9})
        assert main(["sweep", "--config", config_path, "--sweep", sweep_path,
                     "--out", str(tmp_path / "out")]) == 2
        assert "sweep.mc.n" in capsys.readouterr().err

    @pytest.mark.parametrize("mc", [{"n": "x"}, {"n": None}, {"n": 20000.7}, {"seed": -1},
                                    {"sed": 5}])
    def test_bad_mc_count_or_seed_exits_2_with_one_line(self, config_path, tmp_path, capsys, mc):
        sweep_path = self.make_sweep(tmp_path, method="mc", mc=mc)
        assert main(["sweep", "--config", config_path, "--sweep", sweep_path,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: sweep.mc.{next(iter(mc))}: ")
        assert err.count("\n") == 1


class TestFigure:
    def test_figure6_produces_artifacts_and_passes(self, tmp_path, capsys):
        code = main(["figure", "6", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "fig6.csv").exists()
        assert (tmp_path / "fig6.svg").exists()
        assert "PASS" in out and "FAIL" not in out

    def test_figure_accepts_config_override(self, tmp_path, capsys):
        preset = load_preset("fig6")
        override = preset.with_value("source.power_mw", 25.0)
        path = tmp_path / "override.json"
        path.write_text(json.dumps(override.to_dict()))
        code = main(["figure", "6", "--config", str(path), "--out", str(tmp_path)])
        assert code == 0

    def test_presets_ship_with_calibration_notes(self):
        for n in (3, 4, 5, 6, 7, 8):
            assert preset_path(f"fig{n}.json").exists()
            note = preset_path(f"fig{n}.calibration.md").read_text()
            assert "grid" in note.lower()
        assert preset_path("default.calibration.md").exists()


class TestValidate:
    def test_quick_validation_passes(self, capsys):
        code = main(["validate", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "validation passed" in out
        assert out.count("PASS") == 6

    def test_injected_perturbation_fails(self, capsys, monkeypatch):
        monkeypatch.setenv("AOCI_VALIDATE_PERTURB", "1")
        code = main(["validate", "--quick"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


def test_import_and_core_calls_leave_scipy_unloaded():
    # Start-up cost: no aoci module imports scipy, eagerly or lazily, so importing
    # the package and every command module and running each route must not load it.
    code = "\n".join([
        "import sys",
        "import aoci, aoci.channel, aoci.cli, aoci.config, aoci.figures, aoci.kpi",
        "import aoci.optics, aoci.photometry, aoci.specfun, aoci.stochastics",
        "import aoci.svgplot, aoci.sweep, aoci.validate",
        "from aoci import kpi, optics, photometry",
        "cfg = aoci.figures.load_preset('default')",
        "photometry.mean_flux_quadrature(cfg)",  # builds the coupling kernel
        "photometry.mean_flux_mc(cfg, n=20_000, seed=1)",
        "kpi.p_hearing(cfg, n=10_000, seed=1)",
        "kpi.p_false_hearing(cfg.neural)",
        "optics.peak_coupling()",
        "photometry.mean_flux_series(cfg)",
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
    ])
    src = str(Path(aoci.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
