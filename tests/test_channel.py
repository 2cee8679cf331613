"""Channel layer: path gain, beam geometry, pointing statistics."""

import math

import numpy as np
import pytest
from scipy import integrate

from aoci.channel import (
    BeamGeometry,
    SkinParams,
    beam_stats,
    path_gain,
    pointing_gain,
    rayleigh_pdf,
)


def make_geom(theta_deg=20.0, beta_mm=2.0, sigma_s_mm=0.1) -> BeamGeometry:
    return BeamGeometry(
        theta=math.radians(theta_deg), beta=beta_mm * 1e-3, sigma_s=sigma_s_mm * 1e-3
    )


class TestSkinParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SkinParams(delta=0.0, mu_a=100.0, mu_s=100.0)
        with pytest.raises(ValueError):
            SkinParams(delta=6e-3, mu_a=-1.0, mu_s=0.0)

    def test_warns_outside_study_range(self):
        with pytest.warns(UserWarning):
            SkinParams(delta=5e-2, mu_a=100.0, mu_s=100.0)


class TestPathGain:
    def test_lossless(self):
        assert path_gain(SkinParams(delta=4e-3, mu_a=0.0, mu_s=0.0)) == 1.0

    def test_spec_point(self):
        # (mu_a + mu_s) = 1000 /m, delta = 4 mm -> e^-4
        skin = SkinParams(delta=4e-3, mu_a=600.0, mu_s=400.0)
        assert path_gain(skin) == pytest.approx(math.exp(-4.0), rel=1e-15)
        assert path_gain(skin) == pytest.approx(0.018316, abs=1e-6)

    def test_exponential_composition(self):
        mu_a, mu_s = 230.0, 410.0
        h1 = path_gain(SkinParams(delta=4e-3, mu_a=mu_a, mu_s=mu_s))
        h2 = path_gain(SkinParams(delta=3e-3, mu_a=mu_a, mu_s=mu_s))
        h_total = path_gain(SkinParams(delta=7e-3, mu_a=mu_a, mu_s=mu_s))
        assert h1 * h2 == pytest.approx(h_total, rel=1e-14)

    def test_strictly_decreasing_in_each_parameter(self):
        base = dict(delta=6e-3, mu_a=100.0, mu_s=400.0)
        h0 = path_gain(SkinParams(**base))
        for key, bump in [("delta", 1e-3), ("mu_a", 50.0), ("mu_s", 50.0)]:
            upd = dict(base)
            upd[key] += bump
            assert path_gain(SkinParams(**upd)) < h0

    def test_unit_scale_consistency(self):
        # mu in 1/mm with delta in mm gives the identical product as SI.
        mu_per_mm, delta_mm = 0.5, 6.0
        si = path_gain(SkinParams(delta=delta_mm * 1e-3, mu_a=mu_per_mm * 1e3, mu_s=0.0))
        assert si == math.exp(-mu_per_mm * delta_mm)


class TestBeamStats:
    def test_spec_values(self):
        # delta=6mm, theta=20 deg -> w_delta = 6 tan(10 deg) mm = 1.0579 mm
        stats = beam_stats(make_geom(), 6e-3)
        assert stats.w_delta == pytest.approx(1.0579e-3, abs=1e-7)
        # beta=2mm -> upsilon = sqrt(pi) beta / (sqrt2 w_delta)
        assert stats.upsilon == pytest.approx(2.3696, abs=1e-3)
        assert stats.a0 == pytest.approx(0.99839, abs=1e-4)

    def test_wide_aperture_limit(self):
        geom = BeamGeometry(theta=math.radians(20.0), beta=2e-2, sigma_s=1e-4)
        stats = beam_stats(geom, 6e-3)
        assert stats.a0 == pytest.approx(1.0, abs=1e-12)

    def test_narrow_aperture_limit(self):
        # upsilon -> 0: w_eq -> w_delta
        geom = BeamGeometry(theta=math.radians(20.0), beta=1e-6, sigma_s=1e-4)
        stats = beam_stats(geom, 6e-3)
        assert stats.w_eq == pytest.approx(stats.w_delta, rel=1e-6)

    def test_algebraic_identity(self):
        # w_eq^2 * 2 upsilon e^{-upsilon^2} = w_delta^2 sqrt(pi) erf(upsilon)
        for beta_mm in [0.3, 1.0, 2.0, 3.0]:
            stats = beam_stats(make_geom(beta_mm=beta_mm), 6e-3)
            lhs = stats.w_eq**2 * 2.0 * stats.upsilon * math.exp(-stats.upsilon**2)
            rhs = stats.w_delta**2 * math.sqrt(math.pi) * math.erf(stats.upsilon)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_degenerate_aperture_ratio_raises(self):
        geom = BeamGeometry(theta=math.radians(0.05), beta=0.5, sigma_s=1e-4)
        with pytest.raises(ValueError):
            beam_stats(geom, 4e-3)

    @pytest.mark.parametrize("beta_mm, delta, cause, not_cause", [
        # upsilon^2 dominates log(w_eq^2)
        (1e300, 6e-3, "the aperture is far wider than the beam", "w_delta="),
        # log(w_delta^2) dominates: upsilon = 1.42e-299, the beam is the wide one
        (2.0, 1e297, "the beam radius w_delta=1.76e+296 m is far too wide", "aperture"),
    ])
    def test_overflow_names_the_dominant_term(self, beta_mm, delta, cause, not_cause):
        with pytest.raises(ValueError, match="equivalent beamwidth overflows") as err:
            beam_stats(make_geom(beta_mm=beta_mm), delta)
        assert cause in str(err.value) and not_cause not in str(err.value)

    def test_outputs_finite(self):
        stats = beam_stats(make_geom(beta_mm=3.0, theta_deg=5.0), 1e-2)
        assert all(math.isfinite(v) for v in stats)


class TestPointingGain:
    def test_peak_at_zero(self):
        geom = make_geom()
        stats = beam_stats(geom, 6e-3)
        assert pointing_gain(stats.a0, stats.w_eq, 0.0) == stats.a0

    def test_equivalent_beamwidth_point(self):
        geom = make_geom()
        stats = beam_stats(geom, 6e-3)
        got = pointing_gain(stats.a0, stats.w_eq, stats.w_eq / math.sqrt(2.0))
        assert got == pytest.approx(stats.a0 / math.e, rel=1e-12)

    def test_spec_numeric_point(self):
        # Geometry reverse-engineered to give w_eq ~ 1.2 mm, A0 ~ 0.998;
        # then gain(1 mm) ~ 0.998 e^{-2/1.44} ~ 0.2489.
        target_a0, target_weq = 0.998, 1.2e-3
        upsilon = 2.3263  # erf(upsilon)^2 = 0.998
        w_delta = target_weq * math.sqrt(
            2.0 * upsilon * math.exp(-(upsilon**2)) / (math.sqrt(math.pi) * math.erf(upsilon))
        )
        beta = upsilon * math.sqrt(2.0) * w_delta / math.sqrt(math.pi)
        delta = 6e-3
        geom = BeamGeometry(theta=2.0 * math.atan(w_delta / delta), beta=beta, sigma_s=1e-4)
        stats = beam_stats(geom, delta)
        assert stats.a0 == pytest.approx(target_a0, abs=1e-4)
        assert stats.w_eq == pytest.approx(target_weq, rel=1e-4)
        assert pointing_gain(stats.a0, stats.w_eq, 1e-3) == pytest.approx(0.2489, abs=1e-3)

    def test_monotone_decreasing(self):
        stats = beam_stats(make_geom(), 6e-3)
        rs = np.linspace(0.0, 5e-3, 50)
        gains = [pointing_gain(stats.a0, stats.w_eq, float(r)) for r in rs]
        assert all(b < a for a, b in zip(gains, gains[1:]))

    def test_rejects_negative_displacement(self):
        with pytest.raises(ValueError):
            pointing_gain(1.0, 1e-3, -1e-4)


class TestRayleighPdf:
    def test_vanishes_at_origin(self):
        assert rayleigh_pdf(1e-4, 0.0) == 0.0

    def test_mode_at_sigma(self):
        sigma = 2.5e-4
        rs = np.linspace(1e-6, 1.5e-3, 2001)
        vals = [rayleigh_pdf(sigma, float(r)) for r in rs]
        assert rs[int(np.argmax(vals))] == pytest.approx(sigma, rel=1e-2)

    def test_normalization(self):
        sigma = 3e-4
        total, _ = integrate.quad(lambda r: rayleigh_pdf(sigma, r), 0.0, 20.0 * sigma)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rayleigh_pdf(1e-4, -1e-5)
        with pytest.raises(ValueError):
            rayleigh_pdf(0.0, 1e-5)


class TestPointingRayleighIdentity:
    def test_closed_form_average(self):
        # int h_p f_r dr = A0 w_eq^2 / (w_eq^2 + 4 sigma^2), an independent
        # Gaussian-integral identity validating both pieces together.
        geom = make_geom(sigma_s_mm=0.25)
        delta = 6e-3
        stats = beam_stats(geom, delta)
        sigma = geom.sigma_s
        value, _ = integrate.quad(
            lambda r: pointing_gain(stats.a0, stats.w_eq, r) * rayleigh_pdf(sigma, r),
            0.0,
            12.0 * sigma,
        )
        expected = stats.a0 * stats.w_eq**2 / (stats.w_eq**2 + 4.0 * sigma**2)
        assert value == pytest.approx(expected, rel=1e-8)
