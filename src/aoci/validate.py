"""Self-contained validation suite: oracle equivalences and invariants.

Runs the cross-route consistency checks that pin the implementation:

1. closed-form vs overlap-integral coupling efficiency over a 1000-point
   parameter grid, and the piecewise kernel vs the integral to r = 200 w0;
2. location and ceiling of the zero-misalignment coupling maximum;
3. three-way average-flux agreement (series / quadrature / Monte Carlo) on
   randomized configurations;
4. the closed-form Rayleigh average of the collection profile;
5. the Poisson tail/CDF identities of the regularized incomplete gamma;
6. the monotonicity suite (flux vs thickness and jitter; hearing and damage
   probabilities under common random numbers).

Each check returns its worst observed error so regressions show up as
numbers, not just booleans. ``quick=True`` shrinks grids and sample counts
to run in seconds. Setting the environment variable AOCI_VALIDATE_PERTURB
injects a deliberate error into the first check; it exists only to prove
the suite can fail and is used by the test suite.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from aoci import channel, kpi, optics, photometry
from aoci.config import LinkConfig
from aoci.specfun import NumericalError, integrate_semi_infinite, regularized_gamma_q

__all__ = ["CheckResult", "run_validation"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_error: float
    detail: str


def _coupling_params_for(a: float, omega0: float, lam: float = 594e-9) -> optics.CouplingParams:
    lens_diameter = omega0
    focal = 3.83 * lens_diameter * omega0 / (1.22 * lam * math.sqrt(a))
    return optics.CouplingParams(
        lens_diameter=lens_diameter, focal_length=focal, omega0=omega0, lam=lam
    )


def check_coupling_routes(quick: bool) -> CheckResult:
    """Criterion: closed form and overlap integral agree to 1e-6 on the grid; the
    kernel matches the integral to rel 1e-8, abs 1e-9 x peak, out to r = 200 w0."""
    n_a, n_r, n_w = (5, 5, 3) if quick else (10, 10, 10)
    a_grid = np.logspace(math.log10(0.05), math.log10(5.0), n_a)
    r_grid = np.linspace(0.0, 3.0, n_r)
    w_grid = np.logspace(math.log10(0.05e-3), math.log10(1.0e-3), n_w)
    perturb = 1e-5 if os.environ.get("AOCI_VALIDATE_PERTURB") else 0.0

    points, closed, skipped = [], [], 0
    for omega0 in w_grid:
        for a in a_grid:
            cp = _coupling_params_for(float(a), float(omega0))
            for rr in r_grid:
                r = float(rr) * cp.omega0
                try:
                    closed.append(optics.coupling_eta_closed(cp, r))
                except NumericalError:
                    skipped += 1
                    continue
                points.append((cp, r))
    integral = np.array(optics.coupling_eta_integrals(*zip(*points)))
    worst = float(np.max(np.abs(np.array(closed) - integral + perturb) / integral))
    total = n_a * n_r * n_w
    s_grid = np.linspace(0.0, 200.0, 21 if quick else 41)
    cps = [_coupling_params_for(float(a), 1e-4) for a in a_grid]
    integrals = np.reshape(optics.coupling_eta_integrals(
        [cp for cp in cps for _ in s_grid], [s * cp.omega0 for cp in cps for s in s_grid]),
        (len(cps), len(s_grid)))
    kernel_worst, kernel_ok = 0.0, True
    for cp, integral in zip(cps, integrals):
        batch = optics.coupling_eta_batch(cp, s_grid * cp.omega0)
        diff = np.abs(batch - integral)
        kernel_ok &= bool(np.all(diff <= 1e-8 * integral + 1e-9 * batch.max()))
        kernel_worst = max(kernel_worst, float(diff.max()))
    return CheckResult(
        name="coupling closed form vs overlap integral",
        passed=worst <= 1e-6 and kernel_ok,
        worst_error=worst,
        detail=f"worst rel diff {worst:.2e} over {total - skipped}/{total} points; kernel "
        f"worst abs diff {kernel_worst:.2e} over {n_a * len(s_grid)} points",
    )


def check_coupling_maximum(quick: bool) -> CheckResult:
    """Criterion: max eta(0) = 0.8145 +- 5e-4 and never exceeded on the grid."""
    a_star, eta_star = optics.peak_coupling()
    n = 50 if quick else 400
    grid_max = 0.0
    for a in np.logspace(math.log10(0.05), math.log10(5.0), n):
        cp = _coupling_params_for(float(a), 1e-4)
        grid_max = max(grid_max, optics.coupling_eta_closed(cp, 0.0))
    err = abs(eta_star - 0.8145)
    passed = err <= 5e-4 and grid_max <= eta_star + 1e-9
    return CheckResult(
        name="coupling maximum location and ceiling",
        passed=passed,
        worst_error=max(err, grid_max - eta_star),
        detail=f"peak {eta_star:.6f} at a*={a_star:.6f}; grid max {grid_max:.6f}",
    )


def _random_config(rng: np.random.Generator) -> LinkConfig:
    """A random valid link instance spanning the modeled parameter ranges."""
    omega0_mm = float(rng.uniform(0.05, 0.3))
    lens_mm = float(rng.uniform(0.05, 0.3))
    a = float(rng.uniform(0.1, 3.0))
    lam_nm = float(rng.uniform(450.0, 650.0))
    focal_mm = 3.83 * lens_mm * omega0_mm / (1.22 * lam_nm * 1e-6 * math.sqrt(a))
    doc = {
        "source": {"power_mw": float(rng.uniform(1.0, 100.0)), "lambda_nm": lam_nm},
        "skin": {
            "delta_mm": float(rng.uniform(4.0, 10.0)),
            "mu_a_per_mm": float(rng.uniform(0.05, 0.3)),
            "mu_s_per_mm": float(rng.uniform(0.2, 1.0)),
        },
        "beam": {
            "theta_deg": float(rng.uniform(5.0, 30.0)),
            "beta_mm": float(rng.uniform(0.5, 3.0)),
            "sigma_s_mm": float(rng.uniform(0.02, 0.5)),
        },
        "mem": {
            "d_in_mm": float(rng.uniform(0.5, 2.0)),
            "f_mm": 1.0,
            "z0_mm": float(rng.uniform(0.5, 2.0)),
        },
        "coupling": {
            "lens_diameter_mm": lens_mm,
            "focal_length_mm": focal_mm,
            "omega0_mm": omega0_mm,
        },
        "fiber": {
            "bend_db_per_90deg": 0.14,
            "n_quarter_turns": float(rng.integers(0, 4)),
            "fbg_fraction_lost": 0.1,
            "n_fbg": int(rng.integers(0, 3)),
        },
        "neural": {
            "f0_per_s": 10.0,
            "tau_s": 0.15,
            "y_th_photons": 2.835e14,
            "d_th_photons": 8e16,
        },
        "skin_spot_radius_mm": 1.066,
    }
    return LinkConfig.from_dict(doc)


def check_flux_three_way(quick: bool) -> CheckResult:
    """Criterion: series agrees with quadrature to 1e-6 where it converges;
    Monte Carlo agrees within 3 standard errors on every config."""
    n_configs = 4 if quick else 20
    mc_n = 200_000 if quick else 1_000_000
    rng = np.random.default_rng(20260809)

    worst_rel = 0.0
    worst_mc_dev = 0.0
    series_converged = 0
    for i in range(n_configs):
        cfg = _random_config(rng)
        quad = photometry.mean_flux_quadrature(cfg)
        try:
            series = photometry.mean_flux_series(cfg)
            worst_rel = max(worst_rel, abs(series.value - quad.value) / quad.value)
            series_converged += 1
        except NumericalError:
            pass
        mc = photometry.mean_flux_mc(cfg, n=mc_n, seed=1000 + i)
        if mc.err_bound > 0.0:
            worst_mc_dev = max(worst_mc_dev, abs(mc.value - quad.value) / mc.err_bound)
    passed = worst_rel <= 1e-6 and worst_mc_dev <= 3.0
    return CheckResult(
        name="average-flux three-way agreement",
        passed=passed,
        worst_error=worst_rel,
        detail=(
            f"series/quad worst rel {worst_rel:.2e} "
            f"({series_converged}/{n_configs} converged); "
            f"MC worst deviation {worst_mc_dev:.2f} sigma"
        ),
    )


def check_pointing_average(quick: bool) -> CheckResult:
    """Criterion: quadrature matches the closed-form Rayleigh-averaged
    collection fraction A0 w_eq^2 / (w_eq^2 + 4 sigma^2) to 1e-8."""
    cases = [
        (20.0, 2.0, 0.1, 6.0),
        (10.0, 1.0, 0.25, 4.0),
        (30.0, 3.0, 0.5, 10.0),
    ]
    if not quick:
        cases += [(15.0, 0.8, 0.05, 8.0), (25.0, 1.5, 1.0, 5.0)]
    worst = 0.0
    for theta_deg, beta_mm, sigma_mm, delta_mm in cases:
        geom = channel.BeamGeometry(
            theta=math.radians(theta_deg), beta=beta_mm * 1e-3, sigma_s=sigma_mm * 1e-3
        )
        stats = channel.beam_stats(geom, delta_mm * 1e-3)
        sigma = geom.sigma_s
        value, _ = integrate_semi_infinite(
            lambda r: (channel.pointing_gain(stats.a0, stats.w_eq, r)
                       * channel.rayleigh_pdf(sigma, r)),
            sigma,
            breakpoints=(sigma,),
        )
        expected = stats.a0 * stats.w_eq**2 / (stats.w_eq**2 + 4.0 * sigma**2)
        worst = max(worst, abs(value - expected) / expected)
    return CheckResult(
        name="closed-form pointing average",
        passed=worst <= 1e-8,
        worst_error=worst,
        detail=f"worst rel diff {worst:.2e} over {len(cases)} geometries",
    )


def check_poisson_identities(quick: bool) -> CheckResult:
    """Criterion: Q(k+1, B) equals the Poisson CDF partial sum to 1e-12 and
    the survival reading equals the CDF complement."""
    ks = range(0, 201, 10) if quick else range(0, 201)
    bs = np.logspace(-6, 2, 9 if quick else 17)
    worst = 0.0
    for k in ks:
        for b in bs:
            b = float(b)
            term = math.exp(-b)
            terms = [term]
            for n in range(1, k + 1):
                term *= b / n
                terms.append(term)
            partial = math.fsum(terms)
            worst = max(worst, abs(regularized_gamma_q(k + 1.0, b) - partial))
            if k >= 1:
                neural = photometry.NeuralParams(f0=b, tau=1.0, y_th=float(k), d_th=math.inf)
                survival = kpi.p_false_hearing(neural).literal
                worst = max(worst, abs(survival + regularized_gamma_q(float(k), b) - 1.0))
    return CheckResult(
        name="Poisson tail identities",
        passed=worst <= 1e-12,
        worst_error=worst,
        detail=f"worst abs diff {worst:.2e}",
    )


def check_monotonicity(quick: bool) -> CheckResult:
    """Criterion: flux decreasing in thickness and jitter; hearing
    nondecreasing in power and nonincreasing in jitter under common random
    numbers; damage never exceeds hearing."""
    from aoci.figures import load_preset

    cfg = load_preset("default")
    n = 10_000 if quick else 20_000
    grid = 3 if quick else 5
    failures: list[str] = []

    deltas = np.linspace(4.0, 10.0, grid)
    flux_delta = [
        photometry.mean_flux_quadrature(cfg.with_value("skin.delta_mm", float(d))).value
        for d in deltas
    ]
    if not all(b < a for a, b in zip(flux_delta, flux_delta[1:])):
        failures.append("flux not strictly decreasing in skin thickness")

    sigmas = np.logspace(math.log10(0.02), math.log10(1.0), grid)
    flux_sigma = [
        photometry.mean_flux_quadrature(cfg.with_value("beam.sigma_s_mm", float(s))).value
        for s in sigmas
    ]
    if not all(b < a for a, b in zip(flux_sigma, flux_sigma[1:])):
        failures.append("flux not strictly decreasing in pointing jitter")

    powers = np.logspace(math.log10(5.0), math.log10(400.0), grid)
    ph_power = [
        kpi.p_hearing(cfg.with_value("source.power_mw", float(p)), n=n, seed=77).value
        for p in powers
    ]
    if not all(b >= a for a, b in zip(ph_power, ph_power[1:])):
        failures.append("hearing probability not nondecreasing in power")

    ph_sigma = [
        kpi.p_hearing(cfg.with_value("beam.sigma_s_mm", float(s)), n=n, seed=77).value
        for s in sigmas
    ]
    if not all(b <= a for a, b in zip(ph_sigma, ph_sigma[1:])):
        failures.append("hearing probability not nonincreasing in jitter")

    for p in (40.0, 2000.0, 20000.0):
        test_cfg = cfg.with_value("source.power_mw", p)
        if kpi.p_damage(test_cfg, n=n, seed=55).value > kpi.p_hearing(
            test_cfg, n=n, seed=55
        ).value:
            failures.append(f"damage exceeds hearing at {p} mW")

    return CheckResult(
        name="monotonicity suite",
        passed=not failures,
        worst_error=float(len(failures)),
        detail="; ".join(failures) if failures else "all orderings hold",
    )


def run_validation(quick: bool = False) -> list[CheckResult]:
    """Run every check; the list order matches the module docstring."""
    return [
        check_coupling_routes(quick),
        check_coupling_maximum(quick),
        check_flux_three_way(quick),
        check_pointing_average(quick),
        check_poisson_identities(quick),
        check_monotonicity(quick),
    ]
