"""Command-line interface: evaluate, sweep, reproduce figures, validate.

Exit codes: 0 success, 1 validation-suite failure, 2 configuration error
(an ``--out`` path through a plain file included), 3 a numerical route
failed: the requested average-flux route (``eval`` runs exactly the route it
is given and never substitutes another) or an indicator.
All output is deterministic for fixed inputs and seed; no timestamps are
embedded anywhere.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from aoci import kpi, photometry, svgplot
from aoci.config import ConfigError, LinkConfig
from aoci.figures import _LOG_SCALE, FIGURE_NUMBERS, curve, grid_values, run_figure, sweep_heatmap
from aoci.specfun import NumericalError
from aoci.sweep import METRIC_COLUMNS, SweepSpec, _evaluate_point, run_sweep, write_csv
from aoci.validate import run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# eval.csv's rows: the sweep metric each reports -> its quantity label, in row order.
EVAL_ROWS = {"mean_flux": "mean_flux_per_s", "link_budget": "link_budget_counts",
             "p_hearing": "p_hearing", "p_false_hearing": "p_false_hearing_literal",
             "p_damage": "p_damage"}


def _int_from(low: int):
    def integer(text: str) -> int:  # argparse type; int()'s ValueError reads "invalid integer"
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoci",
        description="Transdermal optical link-budget model: evaluation, sweeps, "
        "figure presets, and the validation suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one configuration end to end")
    p_eval.add_argument("--config", required=True, help="link configuration JSON")
    p_eval.add_argument(
        "--method",
        default="quadrature",
        choices=["quadrature", "series", "mc"],
        help="average-flux evaluation route (default: quadrature)",
    )
    p_eval.add_argument("--samples", type=_int_from(kpi.MIN_SAMPLES), default=100_000,
                        help=f"Monte Carlo samples (at least {kpi.MIN_SAMPLES})")
    p_eval.add_argument("--seed", type=_int_from(0), default=1234, help="Monte Carlo seed")
    p_eval.add_argument("--out", default=None, help="directory for eval.csv")

    p_sweep = sub.add_parser("sweep", help="evaluate a metric over a parameter grid")
    p_sweep.add_argument("--config", required=True, help="link configuration JSON")
    p_sweep.add_argument("--sweep", required=True, help="sweep specification JSON")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--svg", action="store_true", help="also render an SVG plot")

    p_fig = sub.add_parser("figure", help="reproduce a bundled figure preset")
    p_fig.add_argument("number", type=int, choices=FIGURE_NUMBERS, help="figure number")
    p_fig.add_argument("--config", default=None, help="override the bundled preset config")
    p_fig.add_argument("--out", required=True, help="output directory")
    p_fig.add_argument("--samples", type=_int_from(kpi.MIN_SAMPLES), default=20_000,
                       help=f"Monte Carlo samples per point (at least {kpi.MIN_SAMPLES})")
    p_fig.add_argument("--seed", type=_int_from(0), default=1234, help="Monte Carlo seed")

    p_val = sub.add_parser("validate", help="run the oracle-equivalence suite")
    p_val.add_argument("--quick", action="store_true", help="reduced grids, ~1 s")

    return parser


def _mm(v: float) -> str:
    return f"{v * 1e3:.6g} mm"


def _mw_per_mm2(v: float) -> str:
    return f"{v * 1e-3:.6g} mW/mm^2"


def _with_interval(est) -> str:
    low, high = est.interval
    return f"{est.value:.4f}  [95% CI {low:.4f}, {high:.4f}]"


def _cmd_eval(args) -> int:
    cfg = LinkConfig.from_file(args.config)
    state = cfg.state

    print(f"config: {args.config} (hash {cfg.config_hash()})")
    print("derived channel state:")
    print(f"  path gain h_l          = {state.h_l:.6g}")
    print(f"  beam radius w_delta    = {_mm(state.w_delta)}")
    print(f"  aperture ratio upsilon = {state.upsilon:.6g}")
    print(f"  equivalent width w_eq  = {_mm(state.w_eq)}")
    print(f"  peak collection A0     = {state.a0:.6g}")
    print(f"  collimation gain G_c   = {state.g_c:.6g}")
    print(f"  fiber efficiency k     = {state.k:.6g}")
    print(f"  coupling argument a    = {state.coupling_argument:.6g}")

    try:
        flux = photometry.mean_flux(cfg, method=args.method, n=args.samples, seed=args.seed)
    except NumericalError as exc:
        print(
            f"numerical failure in method {args.method!r}: {exc}\n"
            "fallback: rerun with --method quadrature",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL

    print("average photon flux:")
    print(f"  method    = {flux.method}")
    print(f"  value     = {flux.value:.6e} photons/s")
    print(f"  err bound = {flux.err_bound:.3e}")
    if flux.n_samples is not None:
        print(f"  samples   = {flux.n_samples}, seed = {flux.seed}")

    gain = photometry.response_window_gain(cfg.neural.tau)
    print("link budget over one response window:")
    print(f"  signal counts    = {flux.value * gain:.6e}")
    print(f"  background counts= {cfg.neural.mean_background:.6g}")
    print(f"  total            = {photometry.link_budget(cfg, flux).value:.6e}")

    report = kpi.kpi_report(cfg, n=args.samples, seed=args.seed)
    literal, cdf = report.p_false_hearing
    print(f"indicators (n={args.samples}, seed={args.seed}):")
    print(f"  p_hearing        = {_with_interval(report.p_hearing)}")
    print(f"  p_false_hearing  = {literal.value:.6g} (survival reading); "
          f"{cdf.value:.6g} (CDF closed form)")
    print(f"  p_damage         = {_with_interval(report.p_damage)}")
    skin_state = "ok" if report.mpe_skin_ok else "EXCEEDED"
    neuron_state = "ok" if report.mpe_neuron_ok else "EXCEEDED"
    print(
        f"  skin irradiance  = {_mw_per_mm2(report.skin_irradiance)} "
        f"(limit {_mw_per_mm2(cfg.mpe_skin)}, {skin_state})"
    )
    print(
        f"  neuron irradiance= {_mw_per_mm2(report.neuron_irradiance)} "
        f"(limit {_mw_per_mm2(cfg.mpe_neuron)}, {neuron_state})"
    )
    if report.dynamic_range_w is None:
        print("  dynamic range    = empty (hearing target unreachable within exposure limits)")
    else:
        lo, hi = report.dynamic_range_w
        print(f"  dynamic range    = [{lo * 1e3:.4g} mW, {hi * 1e3:.4g} mW]")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        rows = _evaluate_point(cfg, tuple(EVAL_ROWS), flux, (report.p_hearing, report.p_damage))
        with open(out / "eval.csv", "w", encoding="utf-8", newline="") as fh_out:
            writer = csv.writer(fh_out, lineterminator="\n")
            writer.writerow(["quantity", *METRIC_COLUMNS[:5], "config_hash"])
            writer.writerows([(EVAL_ROWS[metric], *row[:5], cfg.config_hash())
                              for metric, row in zip(EVAL_ROWS, rows)])
        print(f"wrote {out / 'eval.csv'}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = LinkConfig.from_file(args.config)
    spec = SweepSpec.from_file(args.sweep)
    result = run_sweep(cfg, spec)
    out = Path(args.out)
    csv_path = out / "sweep.csv"
    write_csv(result, csv_path)
    print(f"wrote {csv_path} ({len(result.rows)} rows)")

    failures = sum(1 for row in result.rows if row[-1])
    if failures:
        print(f"note: {failures} grid points recorded errors (see the error column)")

    if args.svg:
        svg_path, values = out / "sweep.svg", grid_values(result)
        log = spec.axis2 is not None and spec.metric in _LOG_SCALE  # as sweep_heatmap draws
        if not any(math.isfinite(v) and (v > 0.0 or not log) for v in values.values()):
            print(f"note: no grid point has a value to plot; {svg_path} not written")
            return EXIT_OK
        provenance = f"config {cfg.config_hash()} seed {spec.mc_seed}"
        if spec.axis2 is None:
            xs, ys = curve(values)
            svgplot.line_plot(
                svg_path, [(spec.metric, xs, ys)], spec.axis1.path, spec.metric,
                title=f"{spec.metric} vs {spec.axis1.path}",
                provenance=provenance,
            )
        else:
            sweep_heatmap(result, values, svg_path, spec.axis1.path,
                          spec.axis2.path, spec.metric, provenance)
        print(f"wrote {svg_path}")
    return EXIT_OK


def _cmd_figure(args) -> int:
    cfg = LinkConfig.from_file(args.config) if args.config else None
    checks = run_figure(args.number, args.out, cfg=cfg, mc_n=args.samples, seed=args.seed)
    print(f"wrote fig{args.number}.csv and fig{args.number}.svg in {args.out}")
    all_ok = True
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        all_ok &= check.passed
        print(f"  {status} - {check.name} ({check.detail})")
    return EXIT_OK if all_ok else EXIT_VALIDATION


def _cmd_validate(args) -> int:
    results = run_validation(quick=args.quick)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{status} - {r.name}: {r.detail}")
    print("validation " + ("passed" if all_ok else "FAILED"))
    return EXIT_OK if all_ok else EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(getattr(args, "out", None) or ".")
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            print(f"config error: --out {out}: {path} is not a directory", file=sys.stderr)
            return EXIT_CONFIG
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "validate":
            return _cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
