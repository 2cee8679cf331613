"""Flux chain: conversion constants, the three averaging routes, link budget."""

import math

import numpy as np
import pytest

from aoci import kpi, photometry
from aoci.figures import load_preset
from aoci.optics import coupling_eta_batch
from aoci.photometry import (
    MC_BLOCK_SIZE,
    FluxEstimate,
    NeuralParams,
    SourceParams,
    _deterministic_prefactor,
    background_pmf,
    derive_state,
    link_budget,
    mean_flux,
    mean_flux_mc,
    mean_flux_quadrature,
    mean_flux_series,
    received_flux_at,
    received_flux_batch,
    response_window_gain,
)
from aoci.specfun import SeriesConvergenceError
from aoci.stochastics import RngStream, sample_rayleigh


class TestReceivedFlux:
    def test_photon_conversion_constant(self, baseline_cfg):
        # 1 mW of delivered optical power at 594 nm is 2.9903e15 photons/s.
        state = derive_state(baseline_cfg)
        assert state.photons_per_joule * 1e-3 == pytest.approx(2.9903e15, rel=1e-4)

    def test_zero_power(self, baseline_cfg):
        cfg = baseline_cfg.with_value("source.power_mw", 0.0)
        assert received_flux_at(0.0, cfg) == 0.0

    def test_chain_factorization(self, baseline_cfg):
        # Phi(0) = k eta(0) G_c h_l A0 (lambda/hc) x
        from aoci.optics import coupling_eta_closed

        state = derive_state(baseline_cfg)
        eta0 = coupling_eta_closed(baseline_cfg.coupling, 0.0)
        expected = (
            state.k * eta0 * state.g_c * state.h_l * state.a0
            * state.photons_per_joule * baseline_cfg.source.power_tx
        )
        assert received_flux_at(0.0, baseline_cfg) == pytest.approx(expected, rel=1e-12)

    def test_decreasing_within_main_lobe(self, baseline_cfg):
        cp = baseline_cfg.coupling
        r_null = 3.8317 * cp.omega0 / (2.0 * math.sqrt(cp.coupling_argument))
        rs = np.linspace(0.0, 0.9 * r_null, 30)
        vals = [received_flux_at(float(r), baseline_cfg) for r in rs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_scalar_is_batch_bitwise(self, baseline_cfg):
        # One code path for Phi(r), out to r = 50 w0 where the closed-form
        # coupling series no longer converges.
        w0 = baseline_cfg.coupling.omega0
        for r in (0.0, 0.3 * w0, 2.0 * w0, 50.0 * w0):
            batch = received_flux_batch(np.array([r]), baseline_cfg)[0]
            assert received_flux_at(r, baseline_cfg) == batch

    def test_batch_matches_scalar(self, baseline_cfg):
        rs = np.linspace(0.0, 5.0 * baseline_cfg.coupling.omega0, 7)
        batch = received_flux_batch(rs, baseline_cfg)
        for i, r in enumerate(rs):
            scalar = received_flux_at(float(r), baseline_cfg)
            assert batch[i] == pytest.approx(scalar, rel=1e-9)


class TestMeanFluxRoutes:
    def test_series_agrees_with_quadrature(self, baseline_cfg):
        fs = mean_flux_series(baseline_cfg)
        fq = mean_flux_quadrature(baseline_cfg)
        assert fs.method == "series" and fq.method == "quadrature"
        assert abs(fs.value - fq.value) / fq.value <= 1e-6

    def test_mc_agrees_with_quadrature(self, baseline_cfg):
        fq = mean_flux_quadrature(baseline_cfg)
        fm = mean_flux_mc(baseline_cfg, n=200_000, seed=99)
        assert abs(fm.value - fq.value) <= 3.0 * fm.err_bound

    def test_mc_reproducible_and_stderr_scales(self, baseline_cfg):
        a = mean_flux_mc(baseline_cfg, n=50_000, seed=7)
        b = mean_flux_mc(baseline_cfg, n=50_000, seed=7)
        assert a == b
        wide = mean_flux_mc(baseline_cfg, n=25_000, seed=7)
        # doubling n cuts the standard error by ~1/sqrt(2)
        assert wide.err_bound / a.err_bound == pytest.approx(math.sqrt(2.0), rel=0.2)

    @pytest.mark.parametrize("n, seed", [(1e5, 3), (True, 3), (5000, -1), (5000, 1.5),
                                         (5000, False), (500, 3)])
    def test_mc_refuses_bad_n_or_seed_before_drawing(self, n, seed, baseline_cfg, monkeypatch):
        def draw(*args):
            raise AssertionError("drew samples for a bad request")

        monkeypatch.setattr(photometry, "sample_rayleigh", draw)
        with pytest.raises(ValueError):
            mean_flux_mc(baseline_cfg, n=n, seed=seed)

    def test_mc_is_the_block_loop_over_even_streams(self, baseline_cfg):
        # 150,000 samples: two full blocks and a part, block b from stream (seed, 2b)
        n, seed, sigma = 150_000, 6, baseline_cfg.beam.sigma_s
        before = kpi._block_displacements.cache_info()
        est = mean_flux_mc(baseline_cfg, n=n, seed=seed)
        assert kpi._block_displacements.cache_info() == before
        total = mean = sum_sq_dev = 0.0
        produced = 0
        for block, start in enumerate(range(0, n, MC_BLOCK_SIZE)):
            count = min(MC_BLOCK_SIZE, n - start)
            r = sample_rayleigh(RngStream(seed, 2 * block), sigma, count)
            if block == 0:
                cached = kpi._block_displacements(seed, 0, count, sigma, baseline_cfg.coupling)
                assert np.array_equal(r, cached[0])
            phi = received_flux_batch(r, baseline_cfg)
            block_total = float(np.sum(phi))
            total += block_total
            delta = block_total / count - mean
            mean += delta * count / (produced + count)
            sum_sq_dev += float(np.sum((phi - block_total / count) ** 2))
            sum_sq_dev += delta * delta * produced * count / (produced + count)
            produced += count
        assert produced == n and block == 2
        assert (est.value, est.err_bound) == (total / n, math.sqrt(sum_sq_dev / n / n))

    def test_mc_returns_python_numbers_for_numpy_ints(self, baseline_cfg):
        plain = mean_flux_mc(baseline_cfg, n=5000, seed=4)
        est = mean_flux_mc(baseline_cfg, n=np.int64(5000), seed=np.uint32(4))
        assert est == plain
        assert [type(v) for v in (est.value, est.n_samples, est.seed)] == [float, int, int]

    def test_mc_stderr_survives_tiny_spread(self):
        # At sigma_s = 1e-7 mm the flux varies by ~1e-12 of its mean; a
        # sum-of-squares variance cancels to zero there, a centred one does not.
        cfg = load_preset("default").with_value("beam.sigma_s_mm", 1e-7)
        fm = mean_flux_mc(cfg, n=1000, seed=1)
        phi = received_flux_batch(sample_rayleigh(RngStream(1, 0), cfg.beam.sigma_s, 1000), cfg)
        two_pass = math.sqrt(np.sum((phi - np.mean(phi)) ** 2) / 1000) / math.sqrt(1000)
        assert fm.err_bound > 0.0
        assert fm.err_bound == pytest.approx(two_pass, rel=1e-6)

    def test_degenerate_pointing_limit(self, baseline_cfg):
        cfg = baseline_cfg.with_value("beam.sigma_s_mm", 1e-4)  # 0.1 um
        fq = mean_flux_quadrature(cfg)
        phi0 = received_flux_at(0.0, cfg)
        assert abs(fq.value - phi0) / phi0 <= 1e-3

    def test_zero_power_all_routes(self, baseline_cfg):
        cfg = baseline_cfg.with_value("source.power_mw", 0.0)
        assert mean_flux_series(cfg).value == 0.0
        assert mean_flux_quadrature(cfg).value == 0.0
        assert mean_flux_mc(cfg, n=1000, seed=1).value == 0.0

    def test_linearity_in_power(self, baseline_cfg):
        doubled = baseline_cfg.with_value("source.power_mw", 80.0)
        f1 = mean_flux_quadrature(baseline_cfg)
        f2 = mean_flux_quadrature(doubled)
        assert f2.value == pytest.approx(2.0 * f1.value, rel=1e-12)
        s1 = mean_flux_series(baseline_cfg)
        s2 = mean_flux_series(doubled)
        assert s2.value == pytest.approx(2.0 * s1.value, rel=1e-12)

    def test_monotone_in_skin_and_pointing_spread(self, baseline_cfg):
        flux_by_delta = [
            mean_flux_quadrature(baseline_cfg.with_value("skin.delta_mm", d)).value
            for d in [4.0, 5.5, 7.0, 8.5, 10.0]
        ]
        assert all(b < a for a, b in zip(flux_by_delta, flux_by_delta[1:]))
        flux_by_sigma = [
            mean_flux_quadrature(baseline_cfg.with_value("beam.sigma_s_mm", s)).value
            for s in [0.02, 0.05, 0.1, 0.3, 1.0]
        ]
        assert all(b < a for a, b in zip(flux_by_sigma, flux_by_sigma[1:]))

    def test_sigma_slope_in_spread_dominated_regime(self, baseline_cfg):
        # Where the displacement spread dominates every beam scale the average
        # drops as 1/sigma^2: slope -2 on the log-log curve.
        sigmas = [2.0, 4.0]
        vals = [
            mean_flux_quadrature(baseline_cfg.with_value("beam.sigma_s_mm", s)).value
            for s in sigmas
        ]
        slope = math.log(vals[1] / vals[0]) / math.log(sigmas[1] / sigmas[0])
        assert slope == pytest.approx(-2.0, abs=0.1)

    def test_default_method_is_quadrature(self, baseline_cfg):
        assert mean_flux(baseline_cfg).method == "quadrature"
        assert mean_flux(baseline_cfg, method="series").method == "series"
        assert mean_flux(baseline_cfg, method="mc", n=2000, seed=3).method == "monte_carlo"

    def test_named_route_raises_instead_of_falling_back(self, baseline_cfg):
        # sigma_s far beyond the mode-field radius defeats the series route
        hard = baseline_cfg.with_value("beam.sigma_s_mm", 30.0)
        with pytest.raises(SeriesConvergenceError):
            mean_flux(hard, method="series")
        assert mean_flux(hard).method == "quadrature"

    @pytest.mark.parametrize("sigma_mm", [0.1, 0.5499, 0.6613, 0.7953])
    def test_series_near_boundary_within_its_bound(self, sigma_mm):
        # Near its convergence boundary the F4 series must either refuse or
        # land within its own error bound of quadrature.
        cfg = load_preset("fig5").with_value("skin.delta_mm", 4.0)
        cfg = cfg.with_value("beam.sigma_s_mm", sigma_mm)
        quad = mean_flux_quadrature(cfg)
        try:
            series = mean_flux_series(cfg)
        except SeriesConvergenceError:
            return
        assert series.value == pytest.approx(quad.value, rel=1e-6)
        assert abs(series.value - quad.value) <= series.err_bound + 1e-9 * quad.value

    def test_unknown_method_rejected(self, baseline_cfg):
        with pytest.raises(ValueError):
            mean_flux(baseline_cfg, method="fastest")

    @pytest.mark.parametrize("preset, delta_mm, sigma_mm", [
        ("default", None, None),
        ("fig5", 4.0, 0.1),
        ("fig5", 4.0, 1.0),
        ("fig5", 10.0, 1.3),
        ("fig5", 6.0, 2.0),
    ])
    def test_quadrature_matches_quadpack(self, preset, delta_mm, sigma_mm):
        # QUADPACK (scipy.integrate.quad) on the same scalar integrand, cutoff,
        # breakpoints and tolerances is the outside oracle of the numpy rule.
        from scipy import integrate

        cfg = load_preset(preset)
        if delta_mm is not None:
            cfg = cfg.with_value("skin.delta_mm", delta_mm).with_value("beam.sigma_s_mm", sigma_mm)
        state, ctl, sigma = derive_state(cfg), cfg.quad_ctl, cfg.beam.sigma_s
        prefactor = _deterministic_prefactor(cfg, state)
        w0, w_eq = cfg.coupling.omega0, state.w_eq
        core_scale = (2 / w0**2 + 2 / w_eq**2 + 1 / (2 * sigma**2)) ** -0.5

        def integrand(r):
            eta = coupling_eta_batch(cfg.coupling, r)[0]
            return eta * state.a0 * math.exp(-2 * (r / w_eq) ** 2) * r / sigma**2 * math.exp(
                -0.5 * (r / sigma) ** 2)

        value, err = integrate.quad(
            integrand, 0.0, ctl.tail_cutoff_sigmas * sigma, epsabs=ctl.abs_tol,
            epsrel=ctl.rel_tol, limit=ctl.max_subdivisions,
            points=sorted({core_scale, sigma, 2 * sigma}))
        quad = mean_flux_quadrature(cfg)
        assert abs(quad.value - prefactor * value) <= quad.err_bound + prefactor * err
        assert quad.err_bound <= ctl.rel_tol * quad.value


class TestFluxEstimate:
    def test_method_field_discipline(self):
        with pytest.raises(ValueError):
            FluxEstimate(value=1.0, method="series", err_bound=0.0, n_samples=10, seed=1)
        with pytest.raises(ValueError):
            FluxEstimate(value=1.0, method="monte_carlo", err_bound=0.0)
        with pytest.raises(ValueError):
            FluxEstimate(value=-1.0, method="series", err_bound=0.0)
        with pytest.raises(ValueError):
            FluxEstimate(value=1.0, method="magic", err_bound=0.0)


class TestLinkBudget:
    def test_window_gain_value(self):
        # 0.15 s window: 0.15 (e-1)/e = 0.094818
        assert response_window_gain(0.15) == pytest.approx(0.094818, abs=1e-6)

    def test_budget_composition_exact(self, baseline_cfg):
        flux = mean_flux_quadrature(baseline_cfg)
        budget = link_budget(baseline_cfg, flux)
        expected = flux.value * response_window_gain(baseline_cfg.neural.tau) + 1.5
        assert budget == expected  # algebraic identity, bit-exact

    def test_no_signal_leaves_background(self, baseline_cfg):
        cfg = baseline_cfg.with_value("source.power_mw", 0.0)
        flux = mean_flux_quadrature(cfg)
        assert link_budget(cfg, flux) == cfg.neural.mean_background

    def test_spec_numeric_point(self, baseline_cfg):
        est = FluxEstimate(value=1e15, method="series", err_bound=0.0)
        budget = link_budget(baseline_cfg, est)
        assert budget == pytest.approx(9.4818e13 + 1.5, rel=1e-4)


class TestBackgroundPmf:
    def test_zero_background(self):
        neural = NeuralParams(f0=0.0, tau=0.15, y_th=5.0, d_th=10.0)
        assert background_pmf(neural, 0) == 1.0
        assert background_pmf(neural, 3) == 0.0

    def test_spec_point(self):
        neural = NeuralParams(f0=10.0, tau=0.15, y_th=5.0, d_th=10.0)
        assert neural.mean_background == pytest.approx(1.5)
        assert background_pmf(neural, 0) == pytest.approx(0.22313, abs=1e-5)

    def test_normalization(self):
        neural = NeuralParams(f0=10.0, tau=0.15, y_th=5.0, d_th=10.0)
        total = math.fsum(background_pmf(neural, n) for n in range(51))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_count(self):
        neural = NeuralParams(f0=10.0, tau=0.15, y_th=5.0, d_th=10.0)
        with pytest.raises(ValueError):
            background_pmf(neural, -1)


class TestParamValidation:
    def test_source(self):
        with pytest.raises(ValueError):
            SourceParams(power_tx=-1.0, lam=594e-9)
        with pytest.warns(UserWarning):
            SourceParams(power_tx=1.0, lam=1500e-9)

    def test_neural(self):
        with pytest.raises(ValueError):
            NeuralParams(f0=-1.0, tau=0.15, y_th=1.0, d_th=2.0)
        with pytest.raises(ValueError):
            NeuralParams(f0=1.0, tau=0.15, y_th=2.0, d_th=1.0)
        with pytest.raises(ValueError):
            NeuralParams(f0=1.0, tau=0.15, y_th=0.0, d_th=1.0)
