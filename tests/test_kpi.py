"""Hearing/safety indicators: estimator laws, CRN monotonicity, exposure."""

import math
import warnings

import numpy as np
import pytest

import _oracles as oracles
from aoci import channel, kpi
from aoci.config import LinkConfig
from aoci.figures import (
    DELTA_CURVES_MM,
    POWER_GRID_FIG8_MW,
    SIGMA_GRID_FIG7_MM,
    load_preset,
    run_figure,
)
from aoci.kpi import (
    DRAW_CACHE_ENTRIES,
    MIN_SAMPLES,
    kpi_report,
    p_damage,
    p_false_hearing,
    p_hearing,
    p_hearing_and_damage,
    p_hearing_and_damage_batch,
    safety_check,
    wilson_interval,
)
from aoci.photometry import MC_BLOCK_SIZE, NeuralParams, received_flux_batch, response_window_gain
from aoci.stochastics import RngStream, sample_poisson, sample_rayleigh
from aoci.sweep import SweepAxis, SweepSpec, run_sweep

NEURAL_SMALL = NeuralParams(f0=10.0, tau=0.15, y_th=5.0, d_th=50.0)


class TestWilsonInterval:
    def test_contains_proportion(self):
        lo, hi = wilson_interval(40, 1000)
        assert lo < 0.04 < hi
        assert 0.0 <= lo < hi <= 1.0

    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0 and hi < 0.01
        lo, hi = wilson_interval(1000, 1000)
        assert lo > 0.99 and hi == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestHearingProbability:
    def test_zero_threshold_always_heard(self, baseline_cfg):
        # The least positive threshold a config admits: every positive total is heard.
        cfg = baseline_cfg.with_value("neural.y_th_photons", 5e-324)
        assert p_hearing(cfg, n=10_000, seed=1).value == 1.0

    def test_strong_signal_tight_pointing(self, baseline_doc):
        baseline_doc["beam"]["sigma_s_mm"] = 0.01
        baseline_doc["source"]["power_mw"] = 200.0
        from aoci.config import LinkConfig

        cfg = LinkConfig.from_dict(baseline_doc)
        est = p_hearing(cfg, n=10_000, seed=5)
        assert est.value == pytest.approx(1.0, abs=1e-3)

    def test_noise_only_matches_poisson_tail(self, baseline_doc):
        # x = 0, B = 1.5, y_th = 5: Pr(N >= 5) = 1 - Q(5, 1.5) = 0.018576
        baseline_doc["source"]["power_mw"] = 0.0
        baseline_doc["neural"]["y_th_photons"] = 5.0
        baseline_doc["neural"]["d_th_photons"] = 50.0
        from aoci.config import LinkConfig

        cfg = LinkConfig.from_dict(baseline_doc)
        est = p_hearing(cfg, n=200_000, seed=11)
        assert est.ci_low <= 0.018576 <= est.ci_high
        assert est.value == pytest.approx(0.018576, abs=2e-3)

    def test_nondecreasing_in_power_under_crn(self, baseline_cfg):
        values = [
            p_hearing(baseline_cfg.with_value("source.power_mw", p), n=10_000, seed=3).value
            for p in [5.0, 15.0, 40.0, 120.0, 400.0]
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_spread_under_crn(self, baseline_cfg):
        values = [
            p_hearing(baseline_cfg.with_value("beam.sigma_s_mm", s), n=10_000, seed=3).value
            for s in [0.02, 0.05, 0.1, 0.2, 0.5]
        ]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_reproducible(self, baseline_cfg):
        a = p_hearing(baseline_cfg, n=10_000, seed=21)
        b = p_hearing(baseline_cfg, n=10_000, seed=21)
        assert a == b

    def test_sample_floor_enforced(self, baseline_cfg):
        with pytest.raises(ValueError):
            p_hearing(baseline_cfg, n=500, seed=1)

    def test_signal_shot_noise_extension(self, baseline_cfg):
        # The optional fully-Poisson reading should stay statistically close
        # to the additive model when counts are huge (relative noise ~1e-7).
        base = p_hearing(baseline_cfg, n=10_000, seed=9)
        poissonized = p_hearing(baseline_cfg, n=10_000, seed=9, signal_shot_noise=True)
        assert abs(poissonized.value - base.value) < 0.02


class TestFalseHearing:
    def test_spec_values(self):
        fh = p_false_hearing(NEURAL_SMALL)
        assert fh.literal == pytest.approx(0.018576, abs=1e-5)
        assert fh.cdf_closed_form == pytest.approx(0.995544, abs=1e-5)

    def test_survival_cdf_complement(self):
        from aoci.specfun import regularized_gamma_q

        for y_th in [1.0, 3.0, 7.0, 20.0]:
            neural = NeuralParams(f0=10.0, tau=0.15, y_th=y_th, d_th=1e6)
            fh = p_false_hearing(neural)
            cdf_below = regularized_gamma_q(y_th, neural.mean_background)
            assert fh.literal + cdf_below == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("y_th, approx_value", [(20.0, 3.2834e-16), (30.0, 1.6949e-28)])
    def test_far_tail_keeps_relative_precision(self, y_th, approx_value):
        # At B = 1.5 these tails lie at or below the roundoff of 1 - Q(y_th, B).
        neural = NeuralParams(f0=10.0, tau=0.15, y_th=y_th, d_th=1e6)
        expected = float(oracles.gamma_p_reference(y_th, neural.mean_background))
        assert expected == pytest.approx(approx_value, rel=1e-4)
        assert p_false_hearing(neural).literal == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_no_background(self):
        neural = NeuralParams(f0=0.0, tau=0.15, y_th=2.0, d_th=10.0)
        fh = p_false_hearing(neural)
        assert fh.literal == 0.0
        assert fh.cdf_closed_form == 1.0

    def test_rejects_fractional_threshold(self):
        neural = NeuralParams(f0=10.0, tau=0.15, y_th=2.5, d_th=10.0)
        with pytest.raises(ValueError):
            p_false_hearing(neural)


class TestDamageProbability:
    def test_disabled_threshold(self, baseline_doc):
        baseline_doc["neural"]["d_th_photons"] = None
        from aoci.config import LinkConfig

        cfg = LinkConfig.from_dict(baseline_doc)
        assert p_damage(cfg, n=10_000, seed=1).value == 0.0

    def test_no_signal_no_damage(self, baseline_cfg):
        cfg = baseline_cfg.with_value("source.power_mw", 0.0)
        assert p_damage(cfg, n=10_000, seed=1).value == 0.0

    def test_never_exceeds_hearing(self, baseline_cfg):
        # shared randomness + higher threshold => pathwise dominance
        for power in [10.0, 40.0, 2000.0, 20000.0]:
            cfg = baseline_cfg.with_value("source.power_mw", power)
            ph = p_hearing(cfg, n=10_000, seed=17)
            pd = p_damage(cfg, n=10_000, seed=17)
            assert pd.value <= ph.value

    def test_nondecreasing_in_power_under_crn(self, baseline_cfg):
        values = [
            p_damage(baseline_cfg.with_value("source.power_mw", p), n=10_000, seed=13).value
            for p in [1e3, 1e4, 3e4, 1e5]
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestSafetyCheck:
    def test_zero_power_passes(self, baseline_cfg):
        cfg = baseline_cfg.with_value("source.power_mw", 0.0)
        skin_irr, neuron_irr, skin_ok, neuron_ok, _ = safety_check(cfg, n=10_000)
        assert skin_irr == 0.0 and neuron_irr == 0.0
        assert skin_ok and neuron_ok

    def test_irradiance_linear_in_power(self, baseline_cfg):
        s1, n1, *_ = safety_check(baseline_cfg, n=10_000)
        doubled = baseline_cfg.with_value("source.power_mw", 80.0)
        s2, n2, *_ = safety_check(doubled, n=10_000)
        assert s2 == pytest.approx(2.0 * s1, rel=1e-12)
        assert n2 == pytest.approx(2.0 * n1, rel=1e-12)

    def test_verdicts_flip_at_limits(self, baseline_cfg):
        # skin MPE 500 mW/mm^2 over pi (1.066 mm)^2 -> ~1.785 W transmit cap
        cap_w = 500e3 * math.pi * (1.066e-3) ** 2
        below = baseline_cfg.with_value("source.power_mw", 0.99 * cap_w * 1e3)
        above = baseline_cfg.with_value("source.power_mw", 1.01 * cap_w * 1e3)
        assert safety_check(below, n=10_000)[2] is True
        assert safety_check(above, n=10_000)[2] is False

    def test_dynamic_range_found_for_favorable_geometry(self, baseline_doc):
        baseline_doc["beam"]["sigma_s_mm"] = 0.02
        from aoci.config import LinkConfig

        cfg = LinkConfig.from_dict(baseline_doc)
        *_, dyn = safety_check(cfg, n=10_000, seed=2)
        assert dyn is not None
        lo, hi = dyn
        assert 0.0 < lo < hi
        # hearing actually meets the target at the lower edge
        at_lo = p_hearing(cfg.with_value("source.power_mw", lo * 1e3), n=10_000, seed=2)
        assert at_lo.value >= 0.9

    def test_dynamic_range_empty_when_threshold_unreachable(self, baseline_doc):
        baseline_doc["neural"]["y_th_photons"] = 1e20
        baseline_doc["neural"]["d_th_photons"] = 1e22
        from aoci.config import LinkConfig

        cfg = LinkConfig.from_dict(baseline_doc)
        *_, dyn = safety_check(cfg, n=10_000, seed=2)
        assert dyn is None

    @pytest.mark.parametrize("sigma_mm", [0.01, 0.02, 0.03, 0.05])
    def test_edge_matches_bisection_and_is_tight(self, baseline_cfg, sigma_mm):
        cfg = baseline_cfg.with_value("beam.sigma_s_mm", sigma_mm)
        for n in (10_000, 50_000):
            for seed in (1, 2):
                skin_irr, neuron_irr, _, _, dyn = safety_check(cfg, n=n, seed=seed)
                x = cfg.source.power_tx  # irradiances are linear in power
                x_max = min(cfg.mpe_skin / (skin_irr / x), cfg.mpe_neuron / (neuron_irr / x))
                want = bisection_edge(cfg, 0.9, n, seed, x_max)
                if want is None:
                    assert dyn is None
                    continue
                lo, hi = dyn
                assert hi == pytest.approx(x_max, rel=1e-12)
                assert abs(lo - want) <= x_max * 2.0**-39
                heard = {f: p_hearing(cfg.with_value("source.power_mw", lo * f * 1e3), n=n,
                                      seed=seed).value >= 0.9 for f in (1.0, 1.0 - 1e-9)}
                assert heard == {1.0: True, 1.0 - 1e-9: False}

    def test_one_pass_over_the_draws(self, baseline_cfg, monkeypatch):
        def no_hearing(*args, **kwargs):
            raise AssertionError("safety_check ran p_hearing")

        monkeypatch.setattr(kpi, "p_hearing", no_hearing)
        cfg = baseline_cfg.with_value("beam.sigma_s_mm", 0.02)
        clear_draw_caches()
        *_, dyn = safety_check(cfg, n=150_000, seed=3)
        assert dyn is not None
        assert kpi._block_displacements.cache_info().misses == 3
        assert kpi._block_background.cache_info().misses == 3

    def test_background_alone_gives_zero_edge(self, baseline_cfg):
        # B = 1.5: Pr(N >= 1) = 1 - exp(-1.5) = 0.777 meets a 0.7 target at no power
        cfg = baseline_cfg.with_value("neural.y_th_photons", 1.0)
        *_, dyn = safety_check(cfg, hearing_target=0.7, n=10_000, seed=2)
        assert dyn is not None and dyn[0] == 0.0
        assert p_hearing(cfg.with_value("source.power_mw", 0.0), n=10_000, seed=2).value >= 0.7

    def test_flux_underflow_runs_without_warnings(self, baseline_cfg):
        # w_eq = 0.18 mm against sigma_s = 1 mm: h_p underflows to 0 beyond r ~ 5 mm
        cfg = baseline_cfg.with_value({"skin.delta_mm": 1.0, "beam.beta_mm": 0.05,
                                       "beam.sigma_s_mm": 1.0, "neural.y_th_photons": 2.0})
        r, eta = kpi._block_displacements(1, 0, 10_000, cfg.beam.sigma_s, cfg.coupling)
        assert np.count_nonzero(received_flux_batch(r, cfg, eta=eta) == 0.0) > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            *_, dyn = safety_check(cfg, hearing_target=0.5, n=10_000, seed=1)
        assert dyn is not None and dyn[0] > 0.0
        at_lo = cfg.with_value("source.power_mw", dyn[0] * 1e3)
        assert p_hearing(at_lo, n=10_000, seed=1).value >= 0.5

    @pytest.mark.parametrize("target, n", [(0.0, 10_000), (-0.1, 10_000), (1.1, 10_000),
                                           (math.nan, 10_000), (0.9, MIN_SAMPLES - 1)])
    def test_refuses_bad_target_or_sample_count(self, baseline_cfg, target, n):
        with pytest.raises(ValueError):
            safety_check(baseline_cfg, hearing_target=target, n=n)

    def test_opaque_skin_leaves_neuron_limit_unbound(self, baseline_cfg):
        # mu_a = 124/mm over 6 mm of skin: the neuron irradiance at 1 W underflows to 0
        cfg = baseline_cfg.with_value("skin.mu_a_per_mm", 124.0)
        skin_irr, neuron_irr, skin_ok, neuron_ok, dyn = safety_check(cfg, n=10_000)
        assert skin_irr > 0.0 and neuron_irr == 0.0
        assert skin_ok and neuron_ok
        assert dyn is None

    def test_large_coupling_argument(self, baseline_cfg):
        # a 3.0513 mm coupling focal length puts the coupling argument at 300
        cfg = baseline_cfg.with_value("coupling.focal_length_mm", 3.0513)
        assert cfg.coupling.coupling_argument == pytest.approx(300.0, rel=1e-4)
        _, neuron_irr, *_ = safety_check(cfg, n=10_000)
        assert math.isfinite(neuron_irr) and neuron_irr > 0.0


class TestKpiReport:
    def test_assembly(self, baseline_cfg):
        report = kpi_report(baseline_cfg, n=10_000, seed=4)
        assert 0.0 <= report.p_hearing.value <= 1.0
        assert report.p_damage.value <= report.p_hearing.value
        assert report.skin_irradiance > 0.0
        assert report.mpe_skin_ok and report.mpe_neuron_ok
        assert report.dynamic_range_w is None

    def test_report_with_dynamic_range(self, baseline_doc):
        baseline_doc["beam"]["sigma_s_mm"] = 0.02
        from aoci.config import LinkConfig

        cfg = LinkConfig.from_dict(baseline_doc)
        report = kpi_report(cfg, n=20_000, seed=4)
        assert report.dynamic_range_w is not None
        assert report.dynamic_range_w == safety_check(cfg, n=20_000, seed=4)[4]  # same draws

    @pytest.mark.parametrize("shot", [False, True])
    @pytest.mark.parametrize("d_th", [3.2e17, None])
    def test_both_probabilities_from_one_pass(self, baseline_doc, monkeypatch, shot, d_th):
        baseline_doc["beam"]["sigma_s_mm"] = 0.02
        baseline_doc["neural"]["d_th_photons"] = d_th
        cfg = LinkConfig.from_dict(baseline_doc)
        hearing = p_hearing(cfg, n=10_000, seed=4, signal_shot_noise=shot)
        damage = p_damage(cfg, n=10_000, seed=4, signal_shot_noise=shot)
        assert 0.0 < hearing.value < 1.0

        def refuse(*args, **kwargs):
            raise AssertionError("kpi_report ran a lone exceedance")

        monkeypatch.setattr(kpi, "p_hearing", refuse)
        monkeypatch.setattr(kpi, "p_damage", refuse)
        report = kpi_report(cfg, n=10_000, seed=4, signal_shot_noise=shot)
        assert (report.p_hearing, report.p_damage) == (hearing, damage)

    def test_reads_the_config_state(self, baseline_doc, monkeypatch):
        # The built config holds its checked state; kpi derives none of its own.
        # Expected values: the estimator before it read cfg.state, same (n, seed).
        baseline_doc["beam"]["sigma_s_mm"] = 0.02
        cfg = LinkConfig.from_dict(baseline_doc)

        def refuse(cfg):
            raise AssertionError("kpi called derive_state")

        monkeypatch.setattr(kpi, "derive_state", refuse)
        irradiances = (11204.583288469128, 44923.66261003034, True, True)
        assert safety_check(cfg, n=10_000, seed=2) == (
            *irradiances, (0.03405542673791258, 0.06677995127071797))
        report = kpi_report(cfg, n=10_000, seed=4)
        assert report.p_hearing == (0.9838, 0.9811333929583878, 0.9860950502181455, 10_000, 4)
        assert report.p_damage == (0.0, 0.0, 0.00038399837067659573, 10_000, 4)
        assert report.p_false_hearing == (0.0, 1.0)
        assert (report.skin_irradiance, report.neuron_irradiance, report.mpe_skin_ok,
                report.mpe_neuron_ok, report.dynamic_range_w) == (
            *irradiances, (0.03406464275174843, 0.06677995127071797))


def bisection_edge(cfg, target, n, seed, x_max):
    """The lowest power meeting the target by 40 halvings of [0, x_max], None if x_max misses."""
    def heard(power_w):
        cfg_at = cfg.with_value("source.power_mw", power_w * 1e3)
        return p_hearing(cfg_at, n=n, seed=seed).value >= target

    if not heard(x_max):
        return None
    lo, hi = 0.0, x_max
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if heard(mid) else (mid, hi)
    return hi


def clear_draw_caches():
    kpi._block_displacements.cache_clear()
    kpi._block_background.cache_clear()


@pytest.fixture
def pointing_calls(monkeypatch):
    """The (A0, w_eq) of every ``channel.pointing_gain`` call the test makes."""
    calls, pointing_gain = [], channel.pointing_gain

    def counted(a0, w_eq, r):
        calls.append((a0, w_eq))
        return pointing_gain(a0, w_eq, r)

    monkeypatch.setattr(channel, "pointing_gain", counted)
    return calls


def uncached_exceedance(cfg, threshold, n, seed, signal_shot_noise):
    """The block loop of the estimator, drawing every block afresh."""
    gain = response_window_gain(cfg.neural.tau)
    b_mean = cfg.neural.mean_background
    hits = produced = block = 0
    while produced < n:
        count = min(MC_BLOCK_SIZE, n - produced)
        r = sample_rayleigh(RngStream(seed, 2 * block), cfg.beam.sigma_s, count)
        signal_counts = received_flux_batch(r, cfg) * gain
        noise_stream = RngStream(seed, 2 * block + 1)
        if signal_shot_noise:
            totals = sample_poisson(noise_stream, signal_counts + b_mean, count)
        else:
            totals = signal_counts + sample_poisson(noise_stream, b_mean, count)
        hits += int(np.count_nonzero(totals >= threshold))
        produced += count
        block += 1
    return hits / n


# "dim": a few photons per window, so signal, background and shot noise all
# move the counts across both thresholds; "bright": the baseline link.
LINKS = {
    "dim": {"source": {"power_mw": 1e-12}, "neural": {"y_th_photons": 5.0, "d_th_photons": 8.0}},
    "bright": {"source": {"power_mw": 3000.0}, "neural": {"d_th_photons": 1e16}},
}


class TestDrawCache:
    @pytest.mark.parametrize("link", sorted(LINKS))
    @pytest.mark.parametrize("shot", [False, True])
    @pytest.mark.parametrize("n", [10_000, 150_000])  # 150,000: two full blocks and a part
    def test_bit_identical_to_fresh_draws(self, baseline_doc, link, shot, n):
        for section, values in LINKS[link].items():
            baseline_doc[section].update(values)
        cfg = LinkConfig.from_dict(baseline_doc)
        expected = {
            p_hearing: uncached_exceedance(cfg, cfg.neural.y_th, n, 7, shot),
            p_damage: uncached_exceedance(cfg, cfg.neural.d_th, n, 7, shot),
        }
        assert 0.0 < expected[p_damage] < expected[p_hearing] < 1.0
        clear_draw_caches()
        for state in ("cold", "warm"):
            for fn, value in expected.items():
                est = fn(cfg, n=n, seed=7, signal_shot_noise=shot)
                assert est.value == value, (state, fn.__name__)
                assert (est.ci_low, est.ci_high) == kpi.wilson_interval(round(value * n), n)
        blocks = -(-n // MC_BLOCK_SIZE)
        assert kpi._block_displacements.cache_info().misses == blocks
        assert kpi._block_background.cache_info().misses == (0 if shot else blocks)

    def test_power_sweep_draws_once(self, baseline_cfg):
        spec = SweepSpec(SweepAxis("source.power_mw", POWER_GRID_FIG8_MW), None, "p_hearing",
                         mc_n=10_000)
        clear_draw_caches()
        result = run_sweep(baseline_cfg, spec)
        assert len(result.rows) == 17
        assert kpi._block_displacements.cache_info().misses == 1
        assert kpi._block_background.cache_info().misses == 1

    def test_keys_never_alias(self, baseline_cfg):
        variants = {
            "base": baseline_cfg,
            "seed": baseline_cfg,
            "sigma": baseline_cfg.with_value("beam.sigma_s_mm", 0.2),
            "coupling": baseline_cfg.with_value("coupling.focal_length_mm", 30.0),
            "background": baseline_cfg.with_value("neural.f0_per_s", 20.0),
        }
        seeds = {name: 8 if name == "seed" else 5 for name in variants}
        clear_draw_caches()
        for name, cfg in variants.items():
            p_hearing(cfg, n=10_000, seed=seeds[name])
        assert kpi._block_displacements.cache_info().misses == 4  # background shares base's
        assert kpi._block_background.cache_info().misses == 3  # sigma, coupling share base's
        draws = {
            name: kpi._block_displacements(seeds[name], 0, 10_000, cfg.beam.sigma_s, cfg.coupling)
            for name, cfg in variants.items()
        }
        counts = {
            name: kpi._block_background(seeds[name], 0, 10_000, cfg.neural.mean_background)
            for name, cfg in variants.items()
        }
        (r, eta), base_counts = draws["base"], counts["base"]
        assert not np.array_equal(draws["seed"][0], r)
        assert not np.array_equal(draws["sigma"][0], r)
        assert np.array_equal(draws["coupling"][0], r)
        assert not np.array_equal(draws["coupling"][1], eta)
        assert not np.array_equal(counts["seed"], base_counts)
        assert not np.array_equal(counts["background"], base_counts)
        assert kpi._block_displacements.cache_info().misses == 4
        assert kpi._block_background.cache_info().misses == 3

    def test_cached_arrays_are_read_only(self, baseline_cfg):
        clear_draw_caches()
        p_hearing(baseline_cfg, n=10_000, seed=5)
        beam = baseline_cfg.beam.sigma_s, baseline_cfg.coupling
        r, eta = kpi._block_displacements(5, 0, 10_000, *beam)
        counts = kpi._block_background(5, 0, 10_000, baseline_cfg.neural.mean_background)
        assert kpi._block_displacements.cache_info().misses == 1  # the calls above were hits
        assert kpi._block_background.cache_info().misses == 1
        for array in (r, eta, counts):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_bounded(self, baseline_cfg):
        cp, sigma, b_mean = baseline_cfg.coupling, baseline_cfg.beam.sigma_s, 1.5
        clear_draw_caches()
        for seed in range(DRAW_CACHE_ENTRIES + 5):
            kpi._block_displacements(seed, 0, 16, sigma, cp)
            kpi._block_background(seed, 0, 16, b_mean)
        for cache in (kpi._block_displacements, kpi._block_background):
            info = cache.cache_info()
            assert info.maxsize == DRAW_CACHE_ENTRIES
            assert info.currsize == DRAW_CACHE_ENTRIES
        # the per-entry sizes the stated byte bound (96 MiB) rests on
        r, eta = kpi._block_displacements(1, 0, MC_BLOCK_SIZE, sigma, cp)
        assert r.nbytes + eta.nbytes == 1 << 20
        assert kpi._block_background(1, 0, MC_BLOCK_SIZE, b_mean).nbytes == 1 << 19
        assert DRAW_CACHE_ENTRIES * ((1 << 20) + (1 << 19)) == 96 << 20
        clear_draw_caches()

    def test_figure7_sweep_stays_warm(self, baseline_cfg):
        # Figure 7's 10 sigma_s values at 300,000 samples need 5 blocks each: one
        # batch reads each of the 50 keys once, for every power value at that sigma_s.
        spec = SweepSpec(SweepAxis("beam.sigma_s_mm", SIGMA_GRID_FIG7_MM),
                         SweepAxis("source.power_mw", (20.0, 30.0)), "p_hearing", mc_n=300_000)
        clear_draw_caches()
        run_sweep(baseline_cfg, spec)
        info = kpi._block_displacements.cache_info()
        assert (info.misses, info.hits) == (50, 0)
        clear_draw_caches()


class TestPointingCache:
    """h_p(r) is computed once per (block, A0, w_eq) within a batch: once per beam
    geometry, not per power."""

    def test_figure8_grid_is_bitwise_fresh(self, pointing_calls):
        fig8 = load_preset("fig8")
        cfgs = [fig8.with_value("skin.delta_mm", delta).with_value("source.power_mw", power)
                for delta in DELTA_CURVES_MM for power in POWER_GRID_FIG8_MW]
        expected = [(uncached_exceedance(c, c.neural.y_th, 10_000, 9, False),
                     uncached_exceedance(c, c.neural.d_th, 10_000, 9, False)) for c in cfgs]
        assert len({hearing for hearing, _ in expected}) > 10  # the grid crosses the threshold
        assert any(damage > 0.0 for _, damage in expected)
        clear_draw_caches()
        pointing_calls.clear()
        for state in ("cold", "warm"):
            got = p_hearing_and_damage_batch(cfgs, n=10_000, seed=9)
            assert [(h.value, d.value) for h, d in got] == expected, state
        assert len(pointing_calls) == 2 * len(DELTA_CURVES_MM)
        assert kpi._block_displacements.cache_info().misses == 1
        lone = [(p_hearing(c, n=10_000, seed=9).value, p_damage(c, n=10_000, seed=9).value)
                for c in cfgs]
        assert lone == expected

    def test_power_sweep_computes_pointing_once(self, baseline_cfg, pointing_calls):
        spec = SweepSpec(SweepAxis("source.power_mw", POWER_GRID_FIG8_MW), None, "p_hearing",
                         mc_n=10_000)
        clear_draw_caches()
        run_sweep(baseline_cfg, spec)
        assert pointing_calls == [(baseline_cfg.state.a0, baseline_cfg.state.w_eq)]
        assert kpi._block_displacements.cache_info().misses == 1

    @pytest.mark.filterwarnings("ignore::UserWarning")  # 12 mm of skin: a study-range notice
    def test_a_new_geometry_is_a_new_entry(self, baseline_cfg, pointing_calls):
        # Twice the skin and twice the aperture keep upsilon, so A0 is bitwise the
        # same and only w_eq tells the two geometries apart.
        scaled = baseline_cfg.with_value("skin.delta_mm", 12.0).with_value("beam.beta_mm", 4.0)
        assert scaled.state.a0 == baseline_cfg.state.a0
        assert scaled.state.w_eq != baseline_cfg.state.w_eq
        variants = [baseline_cfg, baseline_cfg.with_value("skin.delta_mm", 8.0),
                    baseline_cfg.with_value("beam.theta_deg", 25.0), scaled]
        clear_draw_caches()
        got = p_hearing_and_damage_batch(variants, n=10_000, seed=5)
        assert pointing_calls == [(cfg.state.a0, cfg.state.w_eq) for cfg in variants]
        assert kpi._block_displacements.cache_info().misses == 1
        assert [hearing.value for hearing, _ in got] == [
            uncached_exceedance(cfg, cfg.neural.y_th, 10_000, 5, False) for cfg in variants]

    def test_seed_and_sigma_never_alias(self, baseline_cfg, pointing_calls):
        base, sigma = baseline_cfg, baseline_cfg.with_value("beam.sigma_s_mm", 0.2)
        assert (sigma.state.a0, sigma.state.w_eq) == (base.state.a0, base.state.w_eq)
        clear_draw_caches()
        got = {seed: p_hearing_and_damage_batch([base, sigma], n=10_000, seed=seed)
               for seed in (5, 8)}
        # one h_p per (draw group, block): a shared (A0, w_eq) does not merge two sigma_s
        assert len(pointing_calls) == 4
        assert kpi._block_displacements.cache_info().misses == 4
        assert got[5][0] != got[8][0] and got[5][0] != got[5][1]
        for seed, pairs in got.items():
            for cfg, (hearing, _) in zip((base, sigma), pairs):
                assert hearing.value == uncached_exceedance(cfg, cfg.neural.y_th, 10_000, seed,
                                                            False)

    def test_figure8_sweep_is_one_batch(self, pointing_calls, monkeypatch):
        fig8 = load_preset("fig8")
        spec = SweepSpec(SweepAxis("source.power_mw", POWER_GRID_FIG8_MW),
                         SweepAxis("skin.delta_mm", DELTA_CURVES_MM), ("p_hearing", "p_damage"),
                         mc_n=10_000, mc_seed=9)
        batches, batch = [], kpi.p_hearing_and_damage_batch

        def counted(cfgs, *args, **kwargs):
            batches.append(len(cfgs))
            return batch(cfgs, *args, **kwargs)

        monkeypatch.setattr(kpi, "p_hearing_and_damage_batch", counted)
        rows = run_sweep(fig8, spec).rows
        points = len(DELTA_CURVES_MM) * len(POWER_GRID_FIG8_MW)
        assert batches == [points]
        assert len(pointing_calls) == len(DELTA_CURVES_MM)  # one block, one h_p per thickness
        cfgs = [fig8.with_value({"skin.delta_mm": delta, "source.power_mw": power})
                for delta in DELTA_CURVES_MM for power in POWER_GRID_FIG8_MW]
        expected = [uncached_exceedance(c, getattr(c.neural, threshold), 10_000, 9, False)
                    for threshold in ("y_th", "d_th") for c in cfgs]
        assert [row[5] for row in rows] == expected


class TestSharedPass:
    """p_hearing and p_damage from one pass over the draws, each bitwise its lone estimate."""

    @pytest.mark.parametrize("shot", [False, True])
    def test_figure8_grid_equals_fresh_draws_at_both_thresholds(self, shot):
        fig8 = load_preset("fig8")
        cfgs = [fig8.with_value({"skin.delta_mm": delta, "source.power_mw": power})
                for delta in DELTA_CURVES_MM for power in POWER_GRID_FIG8_MW]
        clear_draw_caches()
        got = [p_hearing_and_damage(c, n=10_000, seed=9, signal_shot_noise=shot) for c in cfgs]
        expected = [(uncached_exceedance(c, c.neural.y_th, 10_000, 9, shot),
                     uncached_exceedance(c, c.neural.d_th, 10_000, 9, shot)) for c in cfgs]
        assert [(h.value, d.value) for h, d in got] == expected
        assert len({hearing for hearing, _ in expected}) > 10  # the grid crosses both thresholds
        assert any(damage > 0.0 for _, damage in expected)
        for cfg, pair in zip(cfgs, got):
            assert pair == (p_hearing(cfg, n=10_000, seed=9, signal_shot_noise=shot),
                            p_damage(cfg, n=10_000, seed=9, signal_shot_noise=shot))

    def test_disabled_damage_threshold_is_never_reached(self, baseline_doc):
        baseline_doc["neural"]["d_th_photons"] = None
        cfg = LinkConfig.from_dict(baseline_doc)
        hearing, damage = p_hearing_and_damage(cfg, n=10_000, seed=1)
        assert damage == (0.0, 0.0, 0.0, 10_000, 1) == p_damage(cfg, n=10_000, seed=1)
        assert hearing == p_hearing(cfg, n=10_000, seed=1)
        # as before, no draw and so no sample floor for a disabled threshold alone
        assert p_damage(cfg, n=500, seed=1) == (0.0, 0.0, 0.0, 500, 1)
        with pytest.raises(ValueError):
            p_hearing_and_damage(cfg, n=500, seed=1)

    def test_figure8_builds_and_passes_each_point_once(self, tmp_path, monkeypatch):
        calls = {"with_value": 0, "pass": 0}
        with_value, batch = LinkConfig.with_value, kpi.p_hearing_and_damage_batch

        def counted_with_value(self, *args, **kwargs):
            calls["with_value"] += 1
            return with_value(self, *args, **kwargs)

        def counted_batch(cfgs, *args, **kwargs):
            calls["pass"] += len(cfgs)
            return batch(cfgs, *args, **kwargs)

        monkeypatch.setattr(LinkConfig, "with_value", counted_with_value)
        monkeypatch.setattr(kpi, "p_hearing_and_damage_batch", counted_batch)
        run_figure(8, tmp_path, mc_n=10_000)
        points = len(DELTA_CURVES_MM) * len(POWER_GRID_FIG8_MW)
        assert points == 68
        assert calls == {"with_value": points, "pass": points}
