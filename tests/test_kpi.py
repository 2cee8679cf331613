"""Hearing/safety indicators: estimator laws, CRN monotonicity, exposure."""

import math

import pytest

import _oracles as oracles
from aoci.kpi import (
    _exceedance,
    kpi_report,
    p_damage,
    p_false_hearing,
    p_hearing,
    safety_check,
    wilson_interval,
)
from aoci.photometry import NeuralParams

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
        est = _exceedance(baseline_cfg, 0.0, 10_000, seed=1, signal_shot_noise=False)
        assert est.value == 1.0

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

    def test_large_coupling_argument(self, baseline_cfg):
        # a 3.0513 mm coupling focal length puts the coupling argument at 300
        cfg = baseline_cfg.with_value("coupling.focal_length_mm", 3.0513)
        assert cfg.coupling.coupling_argument == pytest.approx(300.0, rel=1e-4)
        _, neuron_irr, *_ = safety_check(cfg, n=10_000)
        assert math.isfinite(neuron_irr) and neuron_irr > 0.0


class TestKpiReport:
    def test_assembly(self, baseline_cfg):
        report = kpi_report(baseline_cfg, n=10_000, seed=4, with_dynamic_range=False)
        assert 0.0 <= report.p_hearing.value <= 1.0
        assert report.p_damage.value <= report.p_hearing.value
        assert report.skin_irradiance > 0.0
        assert report.mpe_skin_ok and report.mpe_neuron_ok
        assert report.dynamic_range_w is None

    def test_report_with_dynamic_range(self, baseline_doc):
        baseline_doc["beam"]["sigma_s_mm"] = 0.02
        from aoci.config import LinkConfig

        cfg = LinkConfig.from_dict(baseline_doc)
        report = kpi_report(cfg, n=10_000, seed=4)
        assert report.dynamic_range_w is not None
