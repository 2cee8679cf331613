#!/usr/bin/env python3
"""Build and run a custom parameter sweep programmatically.

Sweeps hearing probability over transmit power for three skin thicknesses,
writes the CSV and an SVG, and shows the reproducibility contract: the same
sweep run twice produces byte-identical output.
"""

from pathlib import Path

from aoci import svgplot
from aoci.figures import curve, grid_values, load_preset
from aoci.sweep import SweepAxis, SweepSpec, run_sweep, write_csv

cfg = load_preset("default").with_value("beam.sigma_s_mm", 0.05)
spec = SweepSpec(
    axis1=SweepAxis("source.power_mw", tuple(float(p) for p in range(10, 101, 10))),
    axis2=SweepAxis("skin.delta_mm", (4.0, 6.0, 8.0)),
    metric="p_hearing",
    mc_n=10_000,
    mc_seed=99,
)

result = run_sweep(cfg, spec)
out = Path("demos/output")
write_csv(result, out / "custom_sweep.csv")
print(f"wrote {out / 'custom_sweep.csv'} ({len(result.rows)} rows)")

values = grid_values(result)
series = [(f"delta = {delta:g} mm", *curve(values, delta)) for delta in spec.axis2.values]
svgplot.line_plot(
    out / "custom_sweep.svg",
    series,
    "transmit power [mW]",
    "hearing probability",
    title="Hearing probability vs power (sigma_s = 0.05 mm)",
)
print(f"wrote {out / 'custom_sweep.svg'}")

again = run_sweep(cfg, spec)
write_csv(again, out / "custom_sweep_rerun.csv")
identical = (out / "custom_sweep.csv").read_bytes() == (out / "custom_sweep_rerun.csv").read_bytes()
print(f"rerun byte-identical: {identical}")
(out / "custom_sweep_rerun.csv").unlink()
