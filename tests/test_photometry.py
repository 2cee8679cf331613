"""Flux chain: conversion constants, the three averaging routes, link budget."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import _oracles as oracles
from aoci import channel, kpi, photometry, specfun, validate
from aoci.config import ConfigError
from aoci.figures import load_preset
from aoci.optics import coupling_eta_batch, coupling_eta_closed
from aoci.photometry import (
    MC_BLOCK_SIZE,
    MC_CHUNK,
    Estimate,
    NeuralParams,
    SourceParams,
    derive_state,
    link_budget,
    mean_flux,
    mean_flux_mc,
    mean_flux_quadrature,
    mean_flux_series,
    received_flux_batch,
    response_window_gain,
)
from aoci.specfun import SeriesConvergenceError


class TestReceivedFlux:
    def test_photon_conversion_constant(self, baseline_cfg):
        # 1 mW of delivered optical power at 594 nm is 2.9903e15 photons/s.
        state = derive_state(baseline_cfg)
        assert state.photons_per_joule * 1e-3 == pytest.approx(2.9903e15, rel=1e-4)

    def test_zero_power(self, baseline_cfg):
        cfg = baseline_cfg.with_value("source.power_mw", 0.0)
        assert received_flux_batch(np.zeros(3), cfg).tolist() == [0.0, 0.0, 0.0]

    def test_chain_factorization(self, baseline_cfg):
        # Phi(0) = k eta(0) G_c h_l A0 (lambda/hc) x
        state = derive_state(baseline_cfg)
        eta0 = coupling_eta_closed(baseline_cfg.coupling, 0.0)
        expected = (
            state.k * eta0 * state.g_c * state.h_l * state.a0
            * state.photons_per_joule * baseline_cfg.source.power_tx
        )
        assert received_flux_batch(np.zeros(1), baseline_cfg)[0] == pytest.approx(
            expected, rel=1e-12)

    def test_decreasing_within_main_lobe(self, baseline_cfg):
        cp = baseline_cfg.coupling
        r_null = 3.8317 * cp.omega0 / (2.0 * math.sqrt(cp.coupling_argument))
        rs = np.linspace(0.0, 0.9 * r_null, 30)
        vals = received_flux_batch(rs, baseline_cfg)
        assert np.all(np.diff(vals) < 0.0)

    def test_scalar_is_batch_bitwise(self, baseline_cfg):
        # A lone displacement gets bitwise its value within a batch, out to r = 50 w0
        # where the closed-form coupling series no longer converges.
        w0 = baseline_cfg.coupling.omega0
        rs = np.array([0.0, 0.3 * w0, 2.0 * w0, 50.0 * w0])
        batch = received_flux_batch(rs, baseline_cfg)
        for r, phi in zip(rs, batch):
            assert received_flux_batch(np.array([r]), baseline_cfg)[0] == phi

    def test_batch_matches_scalar(self, baseline_cfg):
        # The kernel's Phi(r) against the chain with the closed-form coupling.
        cfg, state = baseline_cfg, baseline_cfg.state
        rs = np.linspace(0.0, 5.0 * cfg.coupling.omega0, 7)
        batch = received_flux_batch(rs, cfg)
        for i, r in enumerate(rs):
            scalar = (state.flux_per_watt * cfg.source.power_tx
                      * coupling_eta_closed(cfg.coupling, float(r))
                      * float(channel.pointing_gain(state.a0, state.w_eq, r)))
            assert batch[i] == pytest.approx(scalar, rel=1e-9)


class TestMeanFluxRoutes:
    def test_series_agrees_with_quadrature(self, baseline_cfg):
        fs = mean_flux_series(baseline_cfg)
        fq = mean_flux_quadrature(baseline_cfg)
        assert fs.method == "series" and fq.method == "quadrature"
        assert abs(fs.value - fq.value) / fq.value <= 1e-6

    # derandomize=True's seed for this test before it was pinned: hypothesis's
    # function_digest of its source, read big-endian. Pinned, edits keep its examples.
    @seed(int("325672817961525185007748759031640644356691572161283638927986"
              "31653382685616270640384867571942083980450797648946967410"))
    @settings(max_examples=40, database=None, deadline=None)
    @given(sigma_s=st.floats(0.005, 3.0), delta=st.floats(2.0, 12.0),
           theta=st.floats(2.0, 40.0), beta=st.floats(0.2, 4.0), log10_a=st.floats(-3.0, 3.0),
           w0=st.floats(0.01, 0.5), power=st.floats(0.1, 500.0))
    def test_series_and_quadrature_agree_within_their_bounds(
            self, sigma_s, delta, theta, beta, log10_a, w0, power):
        # Wherever the series converges, the two routes differ by at most the sum of
        # their error bounds (lengths in mm, angles in degrees, power in mW).
        base = load_preset("default")
        lens, lam = base.resolve("coupling.lens_diameter_mm"), base.resolve("source.lambda_nm")
        try:
            cfg = base.with_value({
                "beam.sigma_s_mm": sigma_s, "skin.delta_mm": delta, "beam.theta_deg": theta,
                "beam.beta_mm": beta, "coupling.omega0_mm": w0, "source.power_mw": power,
                "coupling.focal_length_mm":  # the focal length that gives a = 10^log10_a
                    3.83 * lens * w0 / (1.22 * lam * 1e-6 * 10.0 ** (0.5 * log10_a))})
        except ConfigError:  # the beam model refuses an aperture far wider than the beam
            assume(False)
        fq = mean_flux_quadrature(cfg)
        try:
            fs = mean_flux_series(cfg)
        except SeriesConvergenceError:
            return
        assert abs(fs.value - fq.value) <= fs.err_bound + fq.err_bound

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

    @pytest.mark.parametrize("n", [1000, 8193, 65536, 65537, 150_000, 1 << 18])
    def test_mc_is_the_block_loop_over_even_streams(self, baseline_cfg, n):
        # Whole blocks and a part (150,000 is two and a part), block b from stream (seed, 2b)
        seed, sigma = 6, baseline_cfg.beam.sigma_s
        before = kpi._block_displacements.cache_info()
        est = mean_flux_mc(baseline_cfg, n=n, seed=seed)
        assert kpi._block_displacements.cache_info() == before
        total = mean = sum_sq_dev = 0.0
        produced = 0
        for block, start in enumerate(range(0, n, MC_BLOCK_SIZE)):
            count = min(MC_BLOCK_SIZE, n - start)
            r = oracles.sample_rayleigh(seed, 2 * block, sigma, count)
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
        assert produced == n and block == (n - 1) // MC_BLOCK_SIZE
        assert (est.value, est.err_bound) == (total / n, math.sqrt(sum_sq_dev / n / n))

    @pytest.mark.parametrize("count", [1, 8191, 8192, 8193, 10_000, 65536])
    def test_block_chunks_are_the_block_draw(self, baseline_cfg, count):
        sigma, cp = baseline_cfg.beam.sigma_s, baseline_cfg.coupling
        at, r, eta = zip(*photometry._block_chunks(6, 3, count, sigma, cp))
        starts = range(0, count, MC_CHUNK)
        assert at == tuple(slice(i, min(i + MC_CHUNK, count)) for i in starts)
        r, eta = np.concatenate(r), np.concatenate(eta)
        want = oracles.sample_rayleigh(6, 6, sigma, count)
        assert r.tobytes() == want.tobytes()
        assert eta.tobytes() == coupling_eta_batch(cp, want).tobytes()
        drawn = photometry._draw_block(6, 3, count, sigma, cp)
        assert drawn[0].tobytes() == r.tobytes() and drawn[1].tobytes() == eta.tobytes()

    def test_mc_temporaries_stay_small(self):
        # Chunks of 2^13 samples and one 512 KiB block buffer: the peak stays near 1 MiB,
        # where 512 KiB temporaries per block would reach 3.5 MiB.
        cfg = load_preset("default")
        mean_flux_mc(cfg, n=1 << 18, seed=2)  # the kernel is built beforehand
        tracemalloc.start()
        try:
            mean_flux_mc(cfg, n=1 << 18, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (1 << 20)

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
        phi = received_flux_batch(oracles.sample_rayleigh(1, 0, cfg.beam.sigma_s, 1000), cfg)
        two_pass = math.sqrt(np.sum((phi - np.mean(phi)) ** 2) / 1000) / math.sqrt(1000)
        assert fm.err_bound > 0.0
        assert fm.err_bound == pytest.approx(two_pass, rel=1e-6)

    def test_degenerate_pointing_limit(self, baseline_cfg):
        cfg = baseline_cfg.with_value("beam.sigma_s_mm", 1e-4)  # 0.1 um
        fq = mean_flux_quadrature(cfg)
        phi0 = received_flux_batch(np.zeros(1), cfg)[0]
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

    @pytest.mark.parametrize("method", ["monte_carlo", "MC", "quad", ""])
    def test_only_the_three_route_names_are_accepted(self, baseline_cfg, method):
        # The MC route's request name is "mc"; "monte_carlo" is its result's tag only.
        with pytest.raises(ValueError, match="unknown method"):
            mean_flux(baseline_cfg, method=method, n=2000, seed=3)

    def test_series_pinned_on_validate_configs(self):
        # float.hex of (value, err_bound) on configs 0 and 5 of the validate suite's
        # three-way check: bitwise pins, so a rewrite of the sum cannot move them
        rng = np.random.default_rng(20260809)
        cfgs = [validate._random_config(rng) for _ in range(6)]
        pins = {0: ("0x1.0da364507efcbp+42", "0x1.ab3a3b97f53dbp+8"),
                5: ("0x1.2600f883aaf5cp+41", "0x1.c1a9f610b4ce9p+7")}
        for i, pin in pins.items():
            est = mean_flux_series(cfgs[i])
            assert (est.value.hex(), est.err_bound.hex()) == pin

    def test_series_refused_up_front(self, baseline_cfg):
        # 2Y is so near 1 that no shell up to the cap meets the tail bound: the
        # series is refused before it sums anything, so there is no partial value
        hard = baseline_cfg.with_value("beam.sigma_s_mm", 30.0)
        with pytest.raises(SeriesConvergenceError) as info:
            mean_flux_series(hard)
        assert math.isnan(info.value.value) and info.value.err_est > 0.0

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
        state, sigma = derive_state(cfg), cfg.beam.sigma_s
        prefactor = state.flux_per_watt * cfg.source.power_tx
        w0, w_eq = cfg.coupling.omega0, state.w_eq
        core_scale = (2 / w0**2 + 2 / w_eq**2 + 1 / (2 * sigma**2)) ** -0.5

        def integrand(r):
            eta = coupling_eta_batch(cfg.coupling, r)[0]
            return eta * state.a0 * math.exp(-2 * (r / w_eq) ** 2) * r / sigma**2 * math.exp(
                -0.5 * (r / sigma) ** 2)

        value, err = integrate.quad(
            integrand, 0.0, specfun.QUAD_TAIL_CUTOFF * sigma, epsabs=specfun.QUAD_ABS_TOL,
            epsrel=specfun.QUAD_REL_TOL, limit=specfun.QUAD_MAX_SUBDIVISIONS,
            points=sorted({core_scale, sigma, 2 * sigma}))
        quad = mean_flux_quadrature(cfg)
        assert abs(quad.value - prefactor * value) <= quad.err_bound + prefactor * err
        assert quad.err_bound <= specfun.QUAD_REL_TOL * quad.value


class TestEstimate:
    def test_method_field_discipline(self):
        with pytest.raises(ValueError):
            Estimate(value=1.0, err_bound=0.0, method="series", n_samples=10, seed=1)
        with pytest.raises(ValueError):
            Estimate(value=1.0, err_bound=0.0, method="monte_carlo")
        with pytest.raises(ValueError):
            Estimate(value=-1.0, err_bound=0.0, method="series")
        with pytest.raises(ValueError):
            Estimate(value=1.0, err_bound=0.0, method="magic")
        with pytest.raises(ValueError):
            Estimate(value=1.0, err_bound=-1.0, method="closed_form")

    @pytest.mark.parametrize("method", ["series", "quadrature", "closed_form"])
    def test_interval_only_on_monte_carlo(self, method):
        with pytest.raises(ValueError, match="interval"):
            Estimate(value=0.5, err_bound=0.0, method=method, interval=(0.4, 0.6))
        est = Estimate(0.5, 0.1, "monte_carlo", 10_000, 3, (0.4, 0.6))
        assert est.interval == (0.4, 0.6)

    def test_what_the_benchmark_reads(self, baseline_cfg):
        # bench/workloads.py: kpi_safety unpacks its shot-noise p_hearing as a 5-tuple, and
        # mc_flux reads five fields of mean_flux_mc's estimate
        shot = kpi.p_hearing(baseline_cfg, n=10_000, seed=8, signal_shot_noise=True)
        value, _, _, n, seed = tuple(shot)  # the five core fields, the interval left out
        assert tuple(shot) == (shot.value, shot.err_bound, "monte_carlo", 10_000, 8)
        assert (value, n, seed) == (shot.value, 10_000, 8) and 0.0 <= value <= 1.0
        est = mean_flux_mc(baseline_cfg, n=2000, seed=8)
        value, err, method, n, seed = (est.value, est.err_bound, est.method, est.n_samples,
                                       est.seed)
        assert (method, n, seed) == ("monte_carlo", 2000, 8) and value > 0.0 and err > 0.0


class TestLinkBudget:
    def test_window_gain_value(self):
        # 0.15 s window: 0.15 (e-1)/e = 0.094818
        assert response_window_gain(0.15) == pytest.approx(0.094818, abs=1e-6)

    def test_budget_composition_exact(self, baseline_cfg):
        flux = mean_flux_quadrature(baseline_cfg)
        budget = link_budget(baseline_cfg, flux)
        gain = response_window_gain(baseline_cfg.neural.tau)
        assert budget.value == flux.value * gain + 1.5  # algebraic identity, bit-exact
        assert budget.err_bound == flux.err_bound * gain
        assert (budget.method, budget.n_samples, budget.seed) == ("quadrature", None, None)

    def test_monte_carlo_budget_keeps_its_draw(self, baseline_cfg):
        flux = mean_flux_mc(baseline_cfg, n=2000, seed=5)
        budget = link_budget(baseline_cfg, flux)
        gain = response_window_gain(baseline_cfg.neural.tau)
        assert budget == Estimate(flux.value * gain + 1.5, flux.err_bound * gain,
                                  "monte_carlo", 2000, 5)

    def test_no_signal_leaves_background(self, baseline_cfg):
        cfg = baseline_cfg.with_value("source.power_mw", 0.0)
        flux = mean_flux_quadrature(cfg)
        assert link_budget(cfg, flux).value == cfg.neural.mean_background

    def test_spec_numeric_point(self, baseline_cfg):
        est = Estimate(value=1e15, err_bound=0.0, method="series")
        budget = link_budget(baseline_cfg, est)
        assert budget.value == pytest.approx(9.4818e13 + 1.5, rel=1e-4)
        neural = NeuralParams(f0=10.0, tau=0.15, y_th=5.0, d_th=10.0)
        assert neural.mean_background == pytest.approx(1.5)


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
