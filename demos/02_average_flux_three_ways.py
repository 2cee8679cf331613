#!/usr/bin/env python3
"""Average delivered photon flux by three mutually validating routes.

The pointing misalignment between the external emitter and the implant is
random (Rayleigh radial displacement), so the delivered photon flux is a
random variable; the design quantity is its mean. This script evaluates
that mean on the bundled baseline three ways -- hypergeometric closed form,
adaptive quadrature of the Rayleigh-weighted response, and seeded Monte
Carlo -- and shows where the series route gives up. Each route runs only when
asked for: ``mean_flux`` defaults to quadrature, and a series request that
cannot converge raises instead of handing over to quadrature.
"""

import time

import numpy as np

from aoci.figures import load_preset
from aoci.photometry import (
    mean_flux,
    mean_flux_mc,
    mean_flux_quadrature,
    mean_flux_series,
    received_flux_batch,
)
from aoci.specfun import NumericalError

cfg = load_preset("default")
print(f"baseline config hash: {cfg.config_hash()}")
print(f"transmit power {cfg.source.power_tx * 1e3:.0f} mW, "
      f"jitter sigma_s = {cfg.beam.sigma_s * 1e3:.2f} mm")
print()

print("=" * 70)
print("1. Three routes, one number")
print("=" * 70)
t0 = time.perf_counter()
series = mean_flux_series(cfg)
t_series = time.perf_counter() - t0
t0 = time.perf_counter()
quad = mean_flux_quadrature(cfg)
t_quad = time.perf_counter() - t0
t0 = time.perf_counter()
mc = mean_flux_mc(cfg, n=400_000, seed=20260809)
t_mc = time.perf_counter() - t0

print(f"series     : {series.value:.6e} 1/s  (err bound {series.err_bound:.1e}, {t_series * 1e3:.1f} ms)")
print(f"quadrature : {quad.value:.6e} 1/s  (err bound {quad.err_bound:.1e}, {t_quad * 1e3:.1f} ms)")
print(f"monte carlo: {mc.value:.6e} 1/s  (stderr {mc.err_bound:.2e}, {t_mc:.1f} s, "
      f"n={mc.n_samples}, seed={mc.seed})")
print(f"series vs quadrature : {abs(series.value - quad.value) / quad.value:.2e} relative")
print(f"MC vs quadrature     : {(mc.value - quad.value) / mc.err_bound:+.2f} standard errors")

print()
print("=" * 70)
print("2. The degenerate-pointing limit")
print("=" * 70)
tight = cfg.with_value("beam.sigma_s_mm", 1e-4)
print(f"flux at sigma_s -> 0   : {mean_flux_quadrature(tight).value:.6e} 1/s")
print(f"flux at perfect aim    : {received_flux_batch(np.zeros(1), cfg)[0]:.6e} 1/s  (should match)")

print()
print("=" * 70)
print("3. Where the series route gives up")
print("=" * 70)
for sigma_mm in (0.1, 0.5, 2.0, 10.0):
    test = cfg.with_value("beam.sigma_s_mm", sigma_mm)
    try:
        est = mean_flux_series(test)
        status = f"converged: {est.value:.4e} 1/s"
    except NumericalError as exc:
        status = type(exc).__name__
    default = mean_flux(test)
    print(f"sigma_s = {sigma_mm:5.2f} mm : series {status}; "
          f"default ({default.method}) {default.value:.4e} 1/s")
