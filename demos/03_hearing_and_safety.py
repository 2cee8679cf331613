#!/usr/bin/env python3
"""Hearing probability, false triggers, damage risk, exposure limits.

Converts the delivered flux into photon counts over one neural response
window and asks the operational questions: does a stimulus excite the
neurons, can the background fluorescence alone excite them, can the light
hurt the tissue, and what transmit-power window is both effective and safe.
"""

from aoci.figures import load_preset
from aoci.kpi import kpi_report, p_false_hearing, p_hearing
from aoci.photometry import link_budget, mean_flux_quadrature, response_window_gain

cfg = load_preset("default").with_value("beam.sigma_s_mm", 0.02)
neural = cfg.neural

print("=" * 70)
print("1. Counts over one response window")
print("=" * 70)
flux = mean_flux_quadrature(cfg)
gain = response_window_gain(neural.tau)
print(f"mean flux                 = {flux.value:.4e} photons/s")
print(f"window integration factor = {gain:.6f} s  (tau = {neural.tau} s)")
print(f"mean background count     = {neural.mean_background:.3g}")
print(f"link budget (total count) = {link_budget(cfg, flux).value:.4e}")
print(f"excitation threshold      = {neural.y_th:.3e} counts")
print(f"damage threshold          = {neural.d_th:.3e} counts")

print()
print("=" * 70)
print("2. Hearing probability vs power (common random numbers)")
print("=" * 70)
for power_mw in (10.0, 20.0, 30.0, 40.0, 60.0):
    est = p_hearing(cfg.with_value("source.power_mw", power_mw), n=40_000, seed=7)
    bar = "#" * round(40 * est.value)
    low, high = est.interval
    print(f"{power_mw:6.1f} mW : {est.value:6.3f} [{low:.3f}, {high:.3f}] {bar}")

print()
print("=" * 70)
print("3. False triggers from background alone")
print("=" * 70)
fh = p_false_hearing(neural)
print(f"survival reading Pr(N >= y_th) = {fh.literal.value:.3e}")
print(f"CDF closed form  Q(y_th+1, B)  = {fh.cdf_closed_form.value:.6f}")
print("(the two readings answer complementary questions; the survival one is")
print(" the false-trigger probability and is ~0 at realistic thresholds)")

print()
print("=" * 70)
print("4. Full indicator report with the safe power window")
print("=" * 70)
report = kpi_report(cfg, n=40_000, seed=7)
low, high = report.p_hearing.interval
print(f"p_hearing         = {report.p_hearing.value:.3f} [{low:.3f}, {high:.3f}]")
print(f"p_damage          = {report.p_damage.value:.3e}")
print(f"skin irradiance   = {report.skin_irradiance * 1e-3:.3f} mW/mm^2 "
      f"(ok: {report.mpe_skin_ok})")
print(f"neuron irradiance = {report.neuron_irradiance * 1e-3:.3f} mW/mm^2 "
      f"(ok: {report.mpe_neuron_ok})")
if report.dynamic_range_w is None:
    print("dynamic range     = empty")
else:
    lo, hi = report.dynamic_range_w
    print(f"dynamic range     = [{lo * 1e3:.2f} mW, {hi * 1e3:.2f} mW]")
    print("(lower edge: hearing probability reaches 90%; upper edge: the")
    print(" binding exposure limit)")
