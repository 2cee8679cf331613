"""Special-function layer: oracle agreement, identities, and failure modes.

Frozen expected values in this file were computed with the extended-precision
oracles in ``_oracles.py`` (mpmath, 50 digits); regeneration commands are
noted next to each constant.
"""

import math

import numpy as np
import pytest

import _oracles as oracles
from aoci import specfun
from aoci.specfun import (
    QuadratureExhaustedError,
    SeriesConvergenceError,
    _NODES,
    _f4_eval,
    _gk21,
    bessel_i0e,
    bessel_j1,
    humbert_psi2,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
    regularized_gamma_p,
    regularized_gamma_q,
)


class TestControls:
    def test_series_control_defaults(self):
        # The tolerances every pinned output was made with.
        assert (specfun.SERIES_REL_TOL, specfun.SERIES_ABS_TOL, specfun.SERIES_MAX_INDEX) == (
            1e-10, 1e-300, 400)
        assert (specfun.QUAD_REL_TOL, specfun.QUAD_ABS_TOL, specfun.QUAD_MAX_SUBDIVISIONS,
                specfun.QUAD_TAIL_CUTOFF) == (1e-9, 1e-300, 2000, 10.0)

    @pytest.mark.parametrize(
        "name, value",
        [pytest.param(name, value, id=name) for name, value in [
            ("SERIES_REL_TOL", 1e-3), ("SERIES_ABS_TOL", 1e-3), ("SERIES_MAX_INDEX", 8),
            ("QUAD_REL_TOL", 1e-3), ("QUAD_ABS_TOL", 1.0), ("QUAD_MAX_SUBDIVISIONS", 4),
            ("QUAD_TAIL_CUTOFF", 40.0)]],
    )
    def test_engine_reads_constant_at_call_time(self, monkeypatch, name, value):
        # Every engine of the constant's family must see a patched value: one that bound
        # it at import (say, as a default argument) would give the same outcome twice.
        f = lambda r: np.sin(40.0 * r) ** 2 * np.exp(-r)
        engines = {
            "SERIES": [lambda: humbert_psi2(-1.0, 6.0), lambda: _f4_eval(-0.3, 0.2)],
            "QUAD": [lambda: integrate_semi_infinite(f, 1.0),
                     lambda: integrate_semi_infinite_batch(lambda r, owner: f(r), [1.0], [()])[0]],
        }[name.split("_")[0]]

        def outcome(engine):
            try:
                result = engine()
            except specfun.NumericalError as exc:
                return type(exc).__name__, exc.value, exc.err_est
            return result if not isinstance(result, Exception) else (
                type(result).__name__, result.value, result.err_est)

        before = [outcome(engine) for engine in engines]
        monkeypatch.setattr(specfun, name, value)
        after = [outcome(engine) for engine in engines]
        for old, new in zip(before, after):
            assert new != old


class TestBesselKernels:
    def test_j1_matches_mpmath(self):
        # Both sides of the series/Miller seam at 4 and the Miller/Hankel seam at 25,
        # out to 3000, and negative x (J1 is odd). Worst 4.5e-16; a Miller start only
        # 22 orders above 25 is 4.5e-10 off near 25.
        seams = [np.nextafter(v, v + d) for v in (4.0, 25.0) for d in (-1.0, 0.0, 1.0)]
        x = np.concatenate([np.linspace(0.0, 30.0, 1201), seams, np.linspace(30.0, 3000.0, 300),
                            -np.linspace(0.01, 60.0, 120)])
        ref = np.array([float(oracles.bessel_j1_reference(v)) for v in x])
        assert np.max(np.abs(bessel_j1(x) - ref)) <= 1e-15

    def test_j1_elementwise(self):
        # Each value is independent of its array, which keeps batched quadratures
        # bitwise equal to lone ones.
        x = np.array([[0.5, 4.5, 24.9], [30.0, -7.0, 1e3]])
        lone = np.array([[bessel_j1(v)[()] for v in row] for row in x])
        assert np.array_equal(bessel_j1(x), lone)
        assert bessel_j1(x).shape == x.shape

    def test_i0e_matches_scipy(self):
        from scipy import special

        z = np.concatenate([np.linspace(0.0, 20.0, 2001), np.geomspace(1e-8, 1e7, 3000),
                            [8.0, np.nextafter(8.0, 9.0)]])
        # one range only, and no values at all, take the same kernels
        for zs in (z, z[z <= 8.0], z[z > 8.0], z[:0]):
            ref = special.i0e(zs)
            assert np.all(np.abs(bessel_i0e(zs) - ref) <= 2.0 * np.spacing(ref))
            assert np.array_equal(bessel_i0e(-zs), bessel_i0e(zs))


class TestRegularizedGammaP:
    # P and Q each against the mpmath series / continued fraction. The last two
    # points: the default preset's count threshold at its background, where Q
    # is 1 and P underflows to 0, and s = x = 1e6, where the series needs about
    # 9000 terms and the prefix needs Stirling's series to keep relative precision.
    POINTS = [(s, x) for s in (1.0, 2.5, 9.5, 10.0, 30.0, 201.0)
              for x in (1e-3, 1.5, 9.0, 11.0, 60.0, 250.0)] + [(2.835e14 + 1.0, 1.5), (1e6, 1e6)]

    @pytest.mark.parametrize("s, x", POINTS)
    def test_p_and_q_match_oracles(self, s, x):
        terms = 20_000 if s == 1e6 else 2_000
        p_ref = float(oracles.gamma_p_reference(s, x, terms))
        q_ref = float(oracles.gamma_q_reference(s, x, terms))
        assert abs(regularized_gamma_p(s, x) - p_ref) <= 1e-13 * p_ref
        assert abs(regularized_gamma_q(s, x) - q_ref) <= 1e-13 * q_ref

    def test_unconverged_is_a_typed_error(self):
        # Near x = s the series needs about 9 sqrt(s) terms, past the cap at s = 1e12.
        with pytest.raises(SeriesConvergenceError):
            regularized_gamma_p(1e12, 1e12)


class TestRegularizedGammaQ:
    def test_exponential_closed_form(self):
        for x in [0.0, 0.3, 1.5, 10.0]:
            assert regularized_gamma_q(1.0, x) == pytest.approx(math.exp(-x), rel=1e-13)

    def test_empty_tail(self):
        assert regularized_gamma_q(3.0, 0.0) == 1.0

    def test_spec_point(self):
        # Poisson partial sum: sum_{n<=4} e^-1.5 1.5^n / n! = 0.9814240637778593
        assert regularized_gamma_q(5.0, 1.5) == pytest.approx(0.9814240637778593, abs=1e-12)

    def test_decreasing_in_x(self):
        xs = np.linspace(0.0, 20.0, 40)
        vals = [regularized_gamma_q(4.0, float(x)) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            regularized_gamma_q(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_q(-2.0, 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_q(2.0, -1.0)
        for s, x in [(math.inf, 1.0), (2.0, math.nan), (-2.0, 1.0), (2.0, -1.0)]:
            with pytest.raises(ValueError):
                regularized_gamma_p(s, x)

    def test_oracle_grid(self):
        for s in np.logspace(0, math.log10(201.0), 10):
            for x in np.logspace(-6, 2, 10):
                ref = float(oracles.gamma_q_reference(s, x))
                got = regularized_gamma_q(float(s), float(x))
                assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-30)

    def test_poisson_partial_sum_identity(self):
        # Q(k+1, x) is the Poisson CDF Pr(N <= k); direct float recursion.
        for k in range(0, 201, 7):
            for x in np.logspace(-6, 2, 9):
                term = math.exp(-x)
                terms = [term]
                for n in range(1, k + 1):
                    term *= x / n
                    terms.append(term)
                ref = math.fsum(terms)
                assert abs(regularized_gamma_q(k + 1.0, float(x)) - ref) <= 1e-12


class TestHumbertPsi2:
    def test_origin(self):
        assert humbert_psi2(0.0, 0.0) == 1.0

    def test_single_series_reduction(self):
        # Psi2(1;2,1;-a,0) = (1 - e^-a) / a
        got = humbert_psi2(-1.0, 0.0)
        assert got == pytest.approx(0.6321205588285577, abs=1e-6)

    def test_single_series_reduction_grid(self):
        for a in np.logspace(-3, math.log10(30.0), 60):
            ref = (1.0 - math.exp(-a)) / a
            got = humbert_psi2(float(-a), 0.0)
            assert abs(got - ref) <= 1e-9 * abs(ref)

    def test_bruteforce_oracle_frozen(self):
        # _oracles.psi2_bruteforce(2, 1, -0.5, 0.25, terms=60)
        #   = 0.95368013764214665625738954841...
        got = humbert_psi2(-0.5, 0.25)
        assert got == pytest.approx(0.9536801376421467, rel=1e-10)

    def test_bruteforce_oracle_live(self):
        ref = float(oracles.psi2_bruteforce(2.0, 1.0, -2.3, 0.7, terms=60))
        got = humbert_psi2(-2.3, 0.7)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_deterministic(self):
        a = humbert_psi2(-1.7, 0.4)
        b = humbert_psi2(-1.7, 0.4)
        assert a == b

    def test_generic_parameters_refused(self):
        # Only x <= 0, y >= 0 is summed, the quadrant the coupling closed form uses.
        for x, y in [(0.5, 0.2), (-1.0, -0.2), (1e-300, 0.0)]:
            with pytest.raises(ValueError):
                humbert_psi2(x, y)

    def test_non_convergence_raised(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(specfun, "SERIES_MAX_INDEX", 8)
            with pytest.raises(SeriesConvergenceError) as info:
                humbert_psi2(-1.0, 6.0)
        assert math.isfinite(info.value.value) and info.value.err_est > 0.0
        # a y-weight peak far beyond the index cap is refused upfront
        with pytest.raises(SeriesConvergenceError):
            humbert_psi2(-1.2, 2500.0)

    def test_invalid_parameters(self):
        for x, y in [(math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.5), (-1.0, math.inf)]:
            with pytest.raises(ValueError):
                humbert_psi2(x, y)


class TestF4General:
    # F4(x, x, y, y), the one form of the quadruple series the average flux sums.
    def test_origin(self):
        assert _f4_eval(0.0, 0.0)[0] == 1.0

    def test_collapses_to_psi2(self):
        # at y = 0 only the n = l = 0 term is left: g_0(x)^2 = Psi2(1; 2, 1; x, 0)^2
        got, _ = _f4_eval(-1.0, 0.0)
        assert got == pytest.approx(0.6321205588285577**2, abs=1e-6)
        for x in [-0.1, -0.7, -2.0, -4.5]:
            assert _f4_eval(x, 0.0)[0] == pytest.approx(
                humbert_psi2(x, 0.0) ** 2, rel=1e-9
            )

    def test_geometric_closed_form_at_x_zero(self):
        # x = 0 collapses the sum to sum C(n+l,n) y^(n+l) = 1/(1-2y)
        for y in [0.25, 0.45, 0.3]:
            assert _f4_eval(0.0, y)[0] == pytest.approx(
                1.0 / (1.0 - 2.0 * y), rel=1e-9
            )

    def test_bruteforce_oracle_frozen(self):
        # _oracles.f4_bruteforce(-0.3, -0.3, 0.2, 0.2, terms=30)
        #   = 1.13464487143932078724838764701...
        got, _ = _f4_eval(-0.3, 0.2)
        assert got == pytest.approx(1.1346448714393208, rel=1e-9)

    def test_bruteforce_oracle_live(self):
        # the oracle's own truncation at 16 terms per index is about 2e-13 here
        ref = float(oracles.f4_bruteforce(-0.8, -0.8, 0.15, 0.15, terms=16))
        value, err = _f4_eval(-0.8, 0.15)
        assert abs(value - ref) <= err
        assert value == pytest.approx(ref, rel=1e-10)

    def test_domain_validation(self):
        # the truncation bound needs a finite x <= 0 and 0 <= y < 1/2
        cases = [(0.0, 0.5), (0.0, -0.1), (0.1, 0.2), (-math.inf, 0.2), (math.nan, 0.2),
                 (-1.0, 0.5), (-1.0, 0.65), (-1.0, math.nan)]
        for x, y in cases:
            with pytest.raises(ValueError):
                _f4_eval(x, y)

    def test_tiny_argument(self):
        # g_0(x) = (e^x - 1)/x computed naively is 0 for |x| below ~1e-16
        assert _f4_eval(-1e-310, 0.125)[0] == pytest.approx(1.0 / 0.75, rel=1e-9)
        assert _f4_eval(-1e-20, 0.25)[0] == pytest.approx(2.0, rel=1e-9)

    def test_underflowing_exponential(self):
        # e^x = 0: g_n = 0 past g_0 = -1/x, though L_k^(1)(2000) overflows from k = 236
        value, err = _f4_eval(-2000.0, 0.1)
        assert value == pytest.approx(0.0005**2, rel=1e-15) and 0.0 < err < 1e-16
        assert humbert_psi2(-1e7, 0.5) == pytest.approx(1e-7, rel=1e-15)

    def test_error_bound_covers_oracle(self):
        # the frozen oracle of test_bruteforce_oracle_frozen
        value, err = _f4_eval(-0.3, 0.2)
        assert 0.0 < err < 1e-9
        assert abs(value - 1.1346448714393208) <= err

    def test_non_convergence_near_boundary(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_MAX_INDEX", 32)
        with pytest.raises(SeriesConvergenceError):
            _f4_eval(0.0, 0.4999)

    def test_refused_before_summing(self):
        # 0.9998^401 / 2e-4 > 2 rel_tol / 2e-4: no shell up to the cap can stop the
        # sum, so none is summed and there is no partial value to report
        with pytest.raises(SeriesConvergenceError) as info:
            _f4_eval(-1.0, 0.4999)
        assert math.isnan(info.value.value)
        y2 = 0.4999 + 0.4999
        assert info.value.err_est == y2**401 / (1.0 - y2)

    def test_deterministic(self):
        assert _f4_eval(-0.3, 0.2) == _f4_eval(-0.3, 0.2)


class TestIntegrateSemiInfinite:
    def test_gaussian_moment(self):
        value, err = integrate_semi_infinite(lambda r: r * np.exp(-r * r / 2), 1.0)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert err <= 1e-9

    def test_exponential(self, monkeypatch):
        monkeypatch.setattr(specfun, "QUAD_TAIL_CUTOFF", 40.0)
        value, _ = integrate_semi_infinite(lambda r: np.exp(-r), 1.0)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_gamma_moment(self):
        # int r^3 e^{-r^2} dr = Gamma(2)/2 = 1/2
        value, _ = integrate_semi_infinite(lambda r: r**3 * np.exp(-(r * r)), 1.0)
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_breakpoints_capture_narrow_feature(self):
        # A bump of width 1e-3 at r = 5 on a cutoff interval of 10: the plain
        # initial rule would step over it.
        width, center = 1e-3, 5.0
        f = lambda r: np.exp(-((r - center) / width) ** 2)
        value, _ = integrate_semi_infinite(f, 1.0, breakpoints=(center,))
        assert value == pytest.approx(math.sqrt(math.pi) * width, rel=1e-8)

    def test_exhaustion_reported_with_estimate(self, monkeypatch):
        monkeypatch.setattr(specfun, "QUAD_REL_TOL", 1e-13)
        monkeypatch.setattr(specfun, "QUAD_MAX_SUBDIVISIONS", 4)
        f = lambda r: np.sin(40.0 * r) ** 2 * np.exp(-r)
        with pytest.raises(QuadratureExhaustedError) as info:
            integrate_semi_infinite(f, 1.0)
        assert math.isfinite(info.value.value) and math.isfinite(info.value.err_est)
        assert info.value.err_est > 1e-13 * abs(info.value.value)

    def test_initial_partition_counts_against_budget(self, monkeypatch):
        # Five breakpoints give six segments, halved into twelve initial
        # intervals: more than four, however easy the integrand.
        monkeypatch.setattr(specfun, "QUAD_MAX_SUBDIVISIONS", 4)
        with pytest.raises(QuadratureExhaustedError) as info:
            integrate_semi_infinite(lambda r: np.exp(-r), 1.0, breakpoints=(1, 2, 3, 4, 5))
        assert info.value.value == pytest.approx(1.0 - math.exp(-10.0), rel=1e-12)
        assert math.isfinite(info.value.err_est)

    def test_integrand_called_once_per_pass_on_arrays(self):
        calls = []

        def f(r):
            calls.append(r.shape)
            return r * np.exp(-r * r / 2)

        integrate_semi_infinite(f, 1.0, breakpoints=(1.0,))
        assert calls[0] == (4 * 21,)  # two segments, each halved
        assert all(len(shape) == 1 and shape[0] % 42 == 0 for shape in calls[1:])

    def test_gk21_interval_independent_of_its_batch(self):
        f = lambda r: np.sin(3.0 * r) * np.exp(-0.3 * r) + 1.0 / (1.0 + r * r)
        lo = np.linspace(0.0, 12.0, 41)[:-1]
        hi = lo + 0.3
        res, err = _gk21(f, lo, hi)
        for i in range(lo.size):
            one_res, one_err = _gk21(f, lo[i:i + 1], hi[i:i + 1])
            assert (one_res[0], one_err[0]) == (res[i], err[i])

    def test_batch_equals_lone_integrals(self, monkeypatch):
        # Scales far apart: any sum shared across integrals would swamp the small ones.
        rates, scales = np.array([1.0, 3.0, 0.5]), np.array([1e12, 1.0, 1e-6])
        f = lambda r, owner: scales[owner] * np.sin(40.0 * r) ** 2 * np.exp(-rates[owner] * r)
        decay, marks = [1.0, 2.0, 4.0], [(), (1.0,), (0.5, 2.0)]
        exhausted = []
        for rel_tol, cap in ((1e-9, 2000), (1e-13, 6), (1e-6, 2000)):
            monkeypatch.setattr(specfun, "QUAD_REL_TOL", rel_tol)
            monkeypatch.setattr(specfun, "QUAD_MAX_SUBDIVISIONS", cap)
            batch = integrate_semi_infinite_batch(f, decay, marks)
            for i in range(3):
                lone = lambda r, i=i: f(r, np.full(r.size, i))
                try:
                    assert batch[i] == integrate_semi_infinite(lone, decay[i], marks[i])
                except QuadratureExhaustedError as exc:
                    assert isinstance(batch[i], QuadratureExhaustedError)
                    assert str(batch[i]) == str(exc)
                    assert (batch[i].value, batch[i].err_est) == (exc.value, exc.err_est)
            exhausted.append([isinstance(result, QuadratureExhaustedError) for result in batch])
        assert exhausted[1][1] and not exhausted[0][0]

    def test_the_first_partition_is_the_sorted_list_construction(self, monkeypatch):
        # The per-integral loop the batch's array construction replaced, as the reference:
        # 0, the breakpoints inside (0, cutoff) once each, the cutoff and every midpoint.
        def reference(scale, cutoff_scales, marks):
            cutoff = cutoff_scales * scale
            points = [0.0, *sorted({p for p in marks if 0.0 < p < cutoff}), cutoff]
            return sorted(points + [0.5 * (a + b) for a, b in zip(points, points[1:])])

        scales = [1.0, 2e-3, 5.0, 1e-6, 0.25]
        cutoffs = [10.0, 6.0, 8, 10.0, 40.0]
        marks = [(), (2e-3, 4e-3, 2e-3, 0.0, -1.0, 0.012, 1.0), (3, 1.5, 3.0, math.nan, 40.0),
                 (1e-6,), (0.5, 0.25, 0.125, 10.0, 9.9999)]
        rng = np.random.default_rng(5)
        for _ in range(40):
            scale = float(rng.choice([1e-6, 3e-4, 1.0, 7.0])) * float(rng.uniform(0.5, 2.0))
            pool = [scale, 2.0 * scale, 0.5 * scale, 0.0, -scale, 20.0 * scale, math.nan]
            scales.append(scale)
            cutoffs.append(float(rng.choice([6.0, 10.0, 20.0])))
            marks.append(tuple(pool[i] for i in rng.integers(0, len(pool), rng.integers(0, 6))))
        for cutoff in dict.fromkeys(cutoffs):  # one batch per cutoff
            monkeypatch.setattr(specfun, "QUAD_TAIL_CUTOFF", cutoff)
            at = [i for i, c in enumerate(cutoffs) if c == cutoff]
            calls = []
            integrate_semi_infinite_batch(lambda x, owner: calls.append(x) or np.zeros_like(x),
                                          [scales[i] for i in at], [marks[i] for i in at])
            edges = [reference(scales[i], cutoff, marks[i]) for i in at]
            lo = np.concatenate([e[:-1] for e in edges])
            hi = np.concatenate([e[1:] for e in edges])
            center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            assert (calls[0].tobytes()
                    == (center[:, None] + half[:, None] * _NODES).ravel().tobytes())

    def test_invalid_decay_scale(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(math.exp, 0.0)
