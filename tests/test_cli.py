"""CLI surface: subcommands, exit codes, determinism of emitted artifacts."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aoci
from aoci import optics
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

    def test_reachable_target_reports_the_dynamic_range(self, tmp_path, capsys):
        # Tight pointing on the default preset: the hearing target is met below the cap.
        path = tmp_path / "tight.json"
        doc = load_preset("default").with_value("beam.sigma_s_mm", 0.02).to_dict()
        path.write_text(json.dumps(doc))
        assert main(["eval", "--config", str(path), "--samples", "10000"]) == 0
        out = capsys.readouterr().out
        assert "  dynamic range    = [34.32 mW, 66.78 mW]\n" in out

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
    ])
    def test_non_finite_or_fractional_leaf_exits_2_with_one_line(
            self, baseline_doc, tmp_path, capsys, path, value):
        section, leaf = path.split(".")
        baseline_doc[section][leaf] = value
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

    @pytest.mark.parametrize("argv, stdout_sha256, csv_sha256", [
        (["--method", "quadrature"],
         "a0c5cc280babcd8d12ee450b46649edf081498b343ae0e616f9eb2ac58dc5497",
         "d75acc3463e442fe88a98d35ac229b8e39a6d28946741a531dbbb609b53cae86"),
        (["--method", "mc", "--samples", "10000", "--seed", "0"],
         "014169836a5d1f03e66378dd83708490d50129a2bd8217b235710eaec80efceb",
         "be864fff689a33426dd418fbfb7b3eda92c3a3c52035ab570b8e95629c7e2459"),
    ])
    def test_default_preset_report_and_csv_are_pinned(self, argv, stdout_sha256, csv_sha256,
                                                      tmp_path, capsys):
        # Irradiances, verdicts, dynamic range and every eval.csv row, byte for byte;
        # the config: and wrote lines name paths, so they are left out of the digest.
        code = main(["eval", "--config", str(preset_path("default.json")), *argv,
                     "--out", str(tmp_path)])
        lines = capsys.readouterr().out.splitlines(keepends=True)
        kept = "".join(line for line in lines if not line.startswith(("config:", "wrote ")))
        assert code == 0
        assert hashlib.sha256(kept.encode()).hexdigest() == stdout_sha256
        assert hashlib.sha256((tmp_path / "eval.csv").read_bytes()).hexdigest() == csv_sha256

    def test_missing_file_exits_2(self, capsys):
        assert main(["eval", "--config", "/nonexistent/link.json"]) == 2

    def test_numerics_section_is_an_unknown_field(self, baseline_doc, tmp_path, capsys):
        # Solver tolerances are not link parameters: a numerics section is refused.
        baseline_doc["numerics"] = {"series": {"rel_tol": 1e-8}}
        path = tmp_path / "numerics.json"
        path.write_text(json.dumps(baseline_doc))
        assert main(["eval", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: config.numerics: unknown field\n"
        assert captured.out == ""

    @pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_unreadable_file_exits_2_with_one_line(self, config_path, tmp_path, capsys,
                                                   kind, command):
        bad = tmp_path / "unreadable.json"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b'{"skin": "\xe9"}')  # Latin-1, not UTF-8
        argv = (["eval", "--config", str(bad)] if command == "eval" else
                ["sweep", "--config", config_path, "--sweep", str(bad), "--out", str(tmp_path)])
        assert main(argv) == 2
        captured = capsys.readouterr()
        where = "config" if command == "eval" else "sweep"
        assert captured.err.startswith(f"config error: {where}: cannot read {bad}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_indicator_numerical_failure_exits_3_with_one_line(
            self, baseline_doc, tmp_path, capsys):
        # A background far beyond the incomplete-gamma series' reach: the flux route
        # succeeds, then p_false_hearing raises SeriesConvergenceError.
        baseline_doc["neural"].update(f0_per_s=1e12, tau_s=1, y_th_photons=1e12,
                                      d_th_photons=1e13)
        path = tmp_path / "background.json"
        path.write_text(json.dumps(baseline_doc))
        assert main(["eval", "--config", str(path), "--samples", "10000"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: SeriesConvergenceError: ")
        assert captured.err.count("\n") == 1
        assert "average photon flux" in captured.out

    @pytest.mark.parametrize("argv", [
        ["eval", "--seed", "-1"],
        ["eval", "--method", "mc", "--seed", "-1"],
        ["eval", "--seed", "x"],
        ["eval", "--samples", "5000"],  # below kpi.MIN_SAMPLES, which the report needs
        ["figure", "8", "--seed", "-1"],
        ["figure", "3", "--samples", "5"],  # below kpi.MIN_SAMPLES, like eval's
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

    def test_out_through_a_plain_file_exits_2_with_one_line(self, config_path, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.write_text("")
        assert main(["eval", "--config", config_path, "--out", str(plain)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: --out {plain}: {plain} is not a directory\n"
        assert captured.out == ""

    def test_coupling_too_weak_for_any_kernel_coefficient_exits_0(self, tmp_path, capsys):
        # F = 1e10 mm gives a = 2.8e-17, where eta ~ 2a has no kernel coefficient over 1e-15.
        doc = json.loads(preset_path("default.json").read_text())
        doc["coupling"]["focal_length_mm"] = 1e10
        path = tmp_path / "weak.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", "--config", str(path), "--samples", "10000"]) == 0
        captured = capsys.readouterr()
        assert "coupling argument a    = 2.79322e-17" in captured.out and captured.err == ""


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

    @pytest.mark.parametrize("axis2", [None, {"path": "skin.delta_mm", "values": [4, 5]}],
                             ids=["one_axis", "two_axis"])
    def test_sweep_svg_with_no_point_to_plot(self, tmp_path, capsys, axis2):
        # the series refuses every point of this grid, so the plot has nothing to draw
        doc = {"axis1": {"path": "beam.sigma_s_mm", "values": [0.5, 1.0]},
               "metric": "mean_flux", "method": "series", **({"axis2": axis2} if axis2 else {})}
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", str(preset_path("fig5.json")), "--sweep",
                     str(sweep_path), "--out", str(out_dir), "--svg"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.DictReader(open(out_dir / "sweep.csv", encoding="utf-8")))
        assert len(rows) == (4 if axis2 else 2)
        assert all(row["error"].startswith("SeriesConvergenceError") for row in rows)
        assert not (out_dir / "sweep.svg").exists()
        notes = [line for line in out.splitlines() if line.startswith("note:")]
        assert len(notes) == 2 and "no grid point has a value to plot" in notes[1]

    def test_sweep_svg_of_zero_flux_on_a_log_heatmap(self, config_path, tmp_path, capsys):
        # at 0 mW every flux is 0.0, which a two-axis flux heatmap's log scale cannot draw
        sweep_path = self.make_sweep(tmp_path, axis1={"path": "source.power_mw", "values": [0]},
                                     axis2={"path": "skin.delta_mm", "values": [4.0, 6.0]})
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", config_path, "--sweep", sweep_path,
                     "--out", str(out_dir), "--svg"])
        assert code == 0 and not (out_dir / "sweep.svg").exists()
        assert "note: no grid point has a value to plot" in capsys.readouterr().out

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

    def test_out_through_a_plain_file_exits_2_with_one_line(self, config_path, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.write_text("")
        assert main(["sweep", "--config", config_path, "--sweep", self.make_sweep(tmp_path),
                     "--out", str(plain / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: --out {plain / 'out'}: {plain} is not a directory\n"
        assert captured.out == ""


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

    def test_exposure_cap_below_the_power_grid_fails_its_checks(self, tmp_path, capsys):
        # A 0.2 mm skin spot caps the power at 63 mW, below figure 8's lowest 100 mW.
        path = tmp_path / "small_spot.json"
        doc = load_preset("fig8").with_value("skin_spot_radius_mm", 0.2).to_dict()
        path.write_text(json.dumps(doc))
        code = main(["figure", "8", "--config", str(path), "--out", str(tmp_path),
                     "--samples", "10000"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert ("  FAIL - skin exposure limit binds before damage at delta=4 mm "
                "(no grid power at or below the cap of 63 mW)\n") in captured.out
        assert (tmp_path / "fig8.csv").is_file() and (tmp_path / "fig8.svg").is_file()

    def test_figure_with_no_point_to_plot_writes_the_csv_and_a_note(self, tmp_path, capsys):
        # at 0 mW every flux is 0.0, which figure 3's log heatmap cannot draw
        path, out_dir = tmp_path / "dark.json", tmp_path / "out"
        path.write_text(json.dumps(load_preset("fig3").with_value("source.power_mw", 0.0)
                                   .to_dict()))
        code = main(["figure", "3", "--config", str(path), "--out", str(out_dir)])
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert code == 0 and captured.err == ""
        assert lines[:2] == [f"wrote fig3.csv in {out_dir}", "note: no grid point has a value "
                             f"to plot; {out_dir / 'fig3.svg'} not written"]
        assert len(lines) > 2 and all(line.startswith("  PASS - ") for line in lines[2:])
        assert (out_dir / "fig3.csv").is_file() and not (out_dir / "fig3.svg").exists()

    def test_out_through_a_plain_file_exits_2_with_one_line(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.write_text("")
        assert main(["figure", "6", "--out", str(plain)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: --out {plain}: {plain} is not a directory\n"
        assert captured.out == ""

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
        closed = optics.coupling_eta_closed  # a 1e-5 relative error in the closed form
        monkeypatch.setattr(optics, "coupling_eta_closed",
                            lambda cp, r: closed(cp, r) * (1.0 + 1e-5))
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
