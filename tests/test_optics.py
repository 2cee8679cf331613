"""Optics layer: collimation, the coupling routes and kernel, fiber losses."""

import math
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from aoci import kpi, optics
from aoci.figures import POWER_GRID_FIG8_MW, load_preset
from aoci.sweep import SweepAxis, SweepSpec, run_sweep
from aoci.optics import (
    CouplingParams,
    FiberLoss,
    MemParams,
    collimation_gain,
    coupling_eta_batch,
    coupling_eta_closed,
    coupling_eta_integrals,
    fiber_efficiency,
    peak_coupling,
)

LAMBDA = 594e-9


def cp_for(a: float, omega0: float = 1e-4, lens_diameter: float = 1e-4) -> CouplingParams:
    """Coupling parameters with the focal length solved for a given argument a."""
    focal = 3.83 * lens_diameter * omega0 / (1.22 * LAMBDA * math.sqrt(a))
    return CouplingParams(
        lens_diameter=lens_diameter, focal_length=focal, omega0=omega0, lam=LAMBDA
    )


class TestCollimationGain:
    def test_maximum_at_matched_distance(self):
        mem = MemParams(d_in=1.5e-3, f=1.5e-3, z0=0.5e-3)
        assert collimation_gain(mem) == pytest.approx(mem.f / mem.z0, rel=1e-15)
        for d_in in [0.0, 0.5e-3, 1.0e-3, 2.0e-3, 5.0e-3]:
            other = MemParams(d_in=d_in, f=1.5e-3, z0=0.5e-3)
            assert collimation_gain(other) <= collimation_gain(mem) + 1e-15

    def test_zero_distance_matched_rayleigh(self):
        mem = MemParams(d_in=0.0, f=1.0e-3, z0=1.0e-3)
        assert collimation_gain(mem) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)

    def test_long_rayleigh_range_limit(self):
        mem = MemParams(d_in=1.0e-3, f=1.0e-3, z0=1.0e3)
        assert 0.0 < collimation_gain(mem) < 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            MemParams(d_in=0.0, f=-1.0, z0=1.0)
        with pytest.raises(ValueError):
            MemParams(d_in=-1.0, f=1.0, z0=1.0)


class TestPeakCoupling:
    def test_location_and_value(self):
        # d/da [2 (1-e^-a)^2 / a] = 0  <=>  (1 + 2a) e^-a = 1; root a* = 1.2564312,
        # eta* = 2 (1 - e^-a*)^2 / a* = 0.8145288 (mpmath root-solve at 40 digits).
        with mp.workdps(40):
            a_ref = mp.findroot(lambda a: (1 + 2 * a) * mp.exp(-a) - 1, 1.25)
            eta_ref = float(2 * (1 - mp.exp(-a_ref)) ** 2 / a_ref)
        a_star, eta_star = peak_coupling()
        assert a_star == pytest.approx(float(a_ref), abs=1e-13)
        assert eta_star == pytest.approx(eta_ref, abs=1e-13)


class TestCouplingClosedForm:
    def test_peak_value_at_optimum(self):
        a_star, eta_star = peak_coupling()
        cp = cp_for(a_star)
        assert coupling_eta_closed(cp, 0.0) == pytest.approx(eta_star, abs=1e-12)
        assert coupling_eta_closed(cp, 0.0) == pytest.approx(0.8145, abs=5e-4)

    def test_zero_misalignment_reduction(self):
        # eta(0) = 2 (1 - e^-a)^2 / a
        for a in [0.05, 0.5, 1.0, 3.0]:
            cp = cp_for(a)
            expected = 2.0 * (1.0 - math.exp(-a)) ** 2 / a
            assert coupling_eta_closed(cp, 0.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("a", [300.0, 1e3, 1e5])
    def test_zero_misalignment_large_argument(self, a):
        # Psi2(1; 2, 1; -a, 0) = -expm1(-a) / a holds for every a; a = 300
        # is the default preset with a 3.05 mm coupling focal length.
        cp = cp_for(a)
        a = cp.coupling_argument
        expected = 2.0 * math.expm1(-a) ** 2 / a
        assert coupling_eta_closed(cp, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_large_misalignment_vanishes(self):
        # Beyond the main lobe the residual ring amplitude decays like r^-3,
        # not like the bare Gaussian factor, so the approach to zero is slow.
        cp = cp_for(1.2564)
        peak = coupling_eta_closed(cp, 0.0)
        assert coupling_eta_closed(cp, 15 * cp.omega0) < 1e-4 * peak
        assert coupling_eta_integrals([cp], [80 * cp.omega0])[0] < 1e-6 * peak

    def test_decreasing_within_main_lobe(self):
        # Monotone up to the first ring null of the focused field, located
        # where 2 sqrt(a) r / w0 reaches the first Bessel-J1 root.
        cp = cp_for(1.2564)
        r_null = 3.8317 * cp.omega0 / (2.0 * math.sqrt(cp.coupling_argument))
        rs = np.linspace(0.0, 0.95 * r_null, 40)
        vals = [coupling_eta_closed(cp, float(r)) for r in rs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_never_exceeds_overlap_ceiling(self):
        _, eta_star = peak_coupling()
        for a in np.logspace(math.log10(0.05), math.log10(5.0), 12):
            cp = cp_for(float(a))
            for rr in np.linspace(0.0, 3.0, 12):
                eta = coupling_eta_closed(cp, float(rr) * cp.omega0)
                assert 0.0 <= eta <= eta_star + 1e-9

    def test_rejects_negative_misalignment(self):
        with pytest.raises(ValueError):
            coupling_eta_closed(cp_for(1.0), -1e-5)


class TestCouplingIntegralOracle:
    def test_matches_closed_form_on_grid(self):
        worst = 0.0
        for a in np.logspace(math.log10(0.05), math.log10(5.0), 8):
            cp = cp_for(float(a))
            for rr in np.linspace(0.0, 3.0, 8):
                ec = coupling_eta_closed(cp, float(rr) * cp.omega0)
                ei = coupling_eta_integrals([cp], [float(rr) * cp.omega0])[0]
                worst = max(worst, abs(ec - ei) / ei)
        assert worst <= 1e-6

    def test_lens_shrinks_to_nothing(self):
        cp = CouplingParams(lens_diameter=1e-9, focal_length=4.7e-2, omega0=1e-4, lam=LAMBDA)
        assert coupling_eta_integrals([cp], [0.0])[0] < 1e-8

    def test_datasheet_component_values_at_optimum(self):
        # D = 0.1 mm, w0 = 0.1 mm, lambda = 594 nm, F solved for a*.
        a_star, eta_star = peak_coupling()
        cp = cp_for(a_star, omega0=1e-4, lens_diameter=1e-4)
        assert coupling_eta_integrals([cp], [0.0])[0] == pytest.approx(0.8145, abs=1e-3)
        assert coupling_eta_integrals([cp], [0.0])[0] == pytest.approx(eta_star, rel=1e-9)

    def test_points_in_one_batch_equal_lone_integrals(self):
        # Two couplings, on-axis to deep in the rings: the batch is bitwise the lone calls.
        cps = [cp_for(0.05), cp_for(5.0, omega0=5e-5)]
        points = [(cp, k * cp.omega0) for cp in cps for k in (0.0, 0.7, 3.0, 40.0, 200.0)]
        lone = [coupling_eta_integrals([cp], [r])[0] for cp, r in points]
        assert optics.coupling_eta_integrals(*zip(*points)) == lone
        with pytest.raises(ValueError):
            optics.coupling_eta_integrals(cps, [0.0, -1e-6])

    def test_batch_evaluator_agrees_with_adaptive(self):
        # Out to r = 200 w0, the reach of the figure-5 flux quadrature
        # (10 sigma_s at sigma_s = 2 mm, w0 = 0.1 mm).
        for a in [0.05, 1.2564, 5.0, 25.0]:
            cp = cp_for(a)
            rs = np.concatenate([np.linspace(0.0, 40.0, 25), np.linspace(48.0, 200.0, 20)])
            rs = rs * cp.omega0
            batch = coupling_eta_batch(cp, rs)
            scale = batch.max()
            for i, r in enumerate(rs):
                adaptive = coupling_eta_integrals([cp], [float(r)])[0]
                assert batch[i] == pytest.approx(adaptive, rel=1e-8, abs=1e-9 * scale)


class TestCouplingKernel:
    """The cached piecewise kernel behind coupling_eta_batch."""

    KERNEL_ARGS = [0.05, 1.2566, 5.0, 25.0]
    ORACLE_ARGS = [0.05, 0.2, 0.5, peak_coupling()[0], 2.0, 5.0, 50.0, 300.0]

    @pytest.mark.parametrize("a", ORACLE_ARGS)
    def test_matches_its_quadrature_and_the_adaptive_integral(self, a):
        # Seeded points fall off the interpolation nodes, out to s = 200; the kernel's
        # own quadrature is the reference to roundoff, the adaptive integral to the
        # tolerances of `aoci validate`.
        cp = cp_for(a)
        s = np.random.default_rng(2026).uniform(0.0, 200.0, 2000)
        batch = coupling_eta_batch(cp, s * cp.omega0)
        kernel = optics._coupling_kernel(cp.coupling_argument)
        own = np.concatenate([kernel._eta(part) for part in np.array_split(s, 20)])
        assert np.max(np.abs(batch - own)) <= 1e-14
        integral = np.array(optics.coupling_eta_integrals([cp] * 20, s[:20] * cp.omega0))
        assert np.all(np.abs(batch[:20] - integral) <= 1e-8 * integral + 1e-9 * batch.max())

    # derandomize=True's seed for this test before it was pinned: hypothesis's
    # function_digest of its source, read big-endian. Pinned, edits keep its examples.
    @seed(int("274051917261139627751620683126289950487057666095393361972566"
              "35182478742501622507351684205433699328485827334884212437"))
    @settings(max_examples=12, database=None, deadline=None)
    @example(log10_a=-8.0, s=[20.0, 40.0])  # an absolute 1e-15 floor kept degree 0 here
    @given(log10_a=st.floats(-13.0, 3.0),
           s=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=8))
    def test_matches_the_adaptive_integral_at_any_argument(self, log10_a, s):
        # the tolerance of `aoci validate`: relative 1e-8 plus 1e-9 of the largest value
        cp = cp_for(10.0**log10_a)
        s = np.array([0.0, *s])
        batch = coupling_eta_batch(cp, s * cp.omega0)
        integral = np.array(coupling_eta_integrals([cp] * s.size, s * cp.omega0))
        assert np.all(np.abs(batch - integral) <= 1e-8 * integral + 1e-9 * batch.max())

    @pytest.mark.parametrize("a", ORACLE_ARGS)
    def test_both_sides_of_every_sub_panel_edge_match_its_quadrature(self, a):
        # s = j / 16 opens sub-panel j at x = -1; the float below it closes sub-panel
        # j - 1 at x just under 1.
        cp = cp_for(a, omega0=2.0**-13)  # r = s w0 and s = r / w0 are exact
        edges = np.arange(641) / optics.SUB
        s = np.concatenate([edges, np.nextafter(edges[1:], 0.0)])
        batch = coupling_eta_batch(cp, s * cp.omega0)
        kernel = optics._coupling_kernel(cp.coupling_argument)
        own = np.concatenate([kernel._eta(part) for part in np.array_split(s, 20)])
        assert np.max(np.abs(batch - own)) <= 1e-14

    @pytest.mark.parametrize("a", [0.05, 1.2566, 5.0, 300.0])
    def test_horner_on_each_panel_equals_its_chebyshev_series(self, a):
        # Each 1/16-wide sub-panel's Horner against the series of the unit panel holding it.
        cp = cp_for(a, omega0=2.0**-13)  # r = s w0 and s = r / w0 are exact
        kernel = optics._coupling_kernel(cp.coupling_argument)
        panels = kernel.cover(40.0).shape[1] // optics.SUB
        chebyshev = kernel._chebyshev(np.arange(panels), kernel.degree)
        x = np.linspace(-1.0, 1.0, 16 * optics.SUB + 1)[:-1]  # x = 1 is the next panel's x = -1
        for k in range(panels):
            horner = coupling_eta_batch(cp, (k + 0.5 + 0.5 * x) * cp.omega0)
            series = np.polynomial.chebyshev.chebval(x, chebyshev[k])
            assert np.max(np.abs(horner - series)) <= 1e-15

    @pytest.mark.parametrize("a", [0.05, 0.2, peak_coupling()[0], 2.0, 5.0, 50.0, 300.0])
    def test_a_sample_pays_at_most_nine_horner_rows(self, a):
        # Unit panels need degree 9-18 here; their 1/16-wide sub-panels need 5-8.
        assert optics._CouplingKernel(a).table.shape[0] <= 9

    @pytest.mark.parametrize("a", [1e-12, 1e-9])
    def test_a_near_zero_keeps_its_few_rows(self, a):
        # eta ~ 2a varies by a relative a s^2: unit degree 2, measured against the probe's
        # own roundoff level, not the absolute 1e-15 that eta itself nearly is.
        cp = cp_for(a)
        s = np.linspace(0.0, 20.0, 401)
        kernel = optics._coupling_kernel(cp.coupling_argument)
        assert np.max(np.abs(coupling_eta_batch(cp, s * cp.omega0) - kernel._eta(s))) <= 1e-14
        assert kernel.table.shape[0] <= kernel.degree + 1

    @pytest.mark.parametrize("a", [1e-16, 1e-20])
    def test_a_below_every_coefficient_floor_keeps_one_row(self, a):
        # eta ~ 2a varies by less than roundoff, so both degrees floor at 0.
        cp = cp_for(a)
        s = np.linspace(0.0, 20.0, 41)
        batch = coupling_eta_batch(cp, s * cp.omega0)
        integral = np.array(coupling_eta_integrals([cp] * s.size, s * cp.omega0))
        assert np.all(np.abs(batch - integral) <= 1e-8 * integral + 1e-9 * batch.max())
        assert optics._coupling_kernel(cp.coupling_argument).table.shape[0] == 1

    def test_build_peak_memory_is_the_table_plus_one_chunk(self):
        # Each 4-panel chunk is re-expanded into the grown table in place, so a build
        # from empty peaks at the table plus one chunk's quadrature (0.61 MB at most
        # here); re-expanding every panel in one broadcast peaks at 3.5 MB.
        kernel = optics._CouplingKernel(peak_coupling()[0])
        tracemalloc.start()
        try:
            table = kernel.cover(200.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape[1] == 201 * optics.SUB
        assert peak <= table.nbytes + 768 * 1024

    @pytest.mark.parametrize("a", KERNEL_ARGS)
    def test_same_argument_any_mode_radius_is_bitwise_equal(self, a):
        # Doubling w0 and F together leaves a unchanged bit for bit; the table depends
        # on a alone, not on which configuration built it or in what order.
        small = cp_for(a)
        large = CouplingParams(
            lens_diameter=small.lens_diameter,
            focal_length=2.0 * small.focal_length,
            omega0=2.0 * small.omega0,
            lam=small.lam,
        )
        assert large.coupling_argument == small.coupling_argument
        s = np.linspace(0.0, 90.0, 1801)
        optics._coupling_kernel.cache_clear()
        eta_small = coupling_eta_batch(small, s * small.omega0)
        optics._coupling_kernel.cache_clear()
        coupling_eta_batch(large, s[:10] * large.omega0)  # grow the table in two steps
        eta_large = coupling_eta_batch(large, s * large.omega0)
        assert np.array_equal(eta_small, eta_large)

    @pytest.mark.parametrize("a", KERNEL_ARGS)
    def test_scalar_and_array_paths_agree(self, a):
        cp = cp_for(a)
        rs = np.linspace(0.0, 90.0, 901) * cp.omega0
        array = coupling_eta_batch(cp, rs)
        scalar = np.array([coupling_eta_batch(cp, float(r))[0] for r in rs])
        assert np.max(np.abs(scalar - array)) <= 1e-15

    @pytest.mark.parametrize("rs", [[math.nan], [0.1, math.nan], [math.inf], [0.1, -math.inf],
                                    [-1e-300], [0.2, -0.5, 1.0]])
    def test_refuses_nan_inf_and_negative_misalignments(self, rs):
        cp = cp_for(1.2566)
        with pytest.raises(ValueError, match="radial misalignments must be finite and >= 0"):
            coupling_eta_batch(cp, np.array(rs) * cp.omega0)

    def test_empty_input_gives_an_empty_array(self):
        eta = coupling_eta_batch(cp_for(1.2566), np.empty(0))
        assert eta.shape == (0,) and eta.dtype == np.float64

    def test_power_sweep_builds_one_table(self):
        cfg = load_preset("default")
        spec = SweepSpec(
            axis1=SweepAxis("source.power_mw", POWER_GRID_FIG8_MW),
            axis2=None,
            metric="p_hearing",
            mc_n=10_000,
        )
        assert len(spec.axis1.values) == 17
        kpi._block_displacements.cache_clear()  # else an earlier test's draws would serve it
        optics._coupling_kernel.cache_clear()
        result = run_sweep(cfg, spec)
        assert len(result.rows) == 17
        assert optics._coupling_kernel.cache_info().misses == 1

    def test_concurrent_growth_gives_the_sequential_values(self):
        cp = cp_for(1.2566)
        reaches = [4.0 * (i + 1) for i in range(8)]  # each thread grows the table further
        optics._coupling_kernel.cache_clear()
        expected = [coupling_eta_batch(cp, np.linspace(0.0, r, 301) * cp.omega0) for r in reaches]
        results = [None] * len(reaches)
        barrier = threading.Barrier(len(reaches), timeout=60.0)

        def work(i):
            barrier.wait()
            results[i] = coupling_eta_batch(cp, np.linspace(0.0, reaches[i], 301) * cp.omega0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):  # a racy growth shows only on some interleavings
                optics._coupling_kernel.cache_clear()
                threads = [threading.Thread(target=work, args=(i,)) for i in range(len(reaches))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                    assert not t.is_alive()
                for got, want in zip(results, expected):
                    assert np.array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("a", [1.2566, 300.0])
    def test_kernels_share_one_read_only_gauss_legendre_rule(self, a):
        # Arguments with one floor(sqrt(a)) share the rule; it is leggauss's, bit for bit.
        optics._coupling_kernel.cache_clear()
        first, second = optics._CouplingKernel(a), optics._CouplingKernel(a + 0.1)
        xi, wi = np.polynomial.legendre.leggauss(64 + 24 * int(math.sqrt(a)))
        assert first.xi is second.xi and first.wi is second.wi
        assert np.array_equal(first.xi, xi) and np.array_equal(first.wi, wi)
        assert not first.xi.flags.writeable and not first.wi.flags.writeable

    def test_rejects_negative_misalignment(self):
        cp = cp_for(1.2566)
        with pytest.raises(ValueError):
            coupling_eta_batch(cp, np.array([0.0, -1e-6]))
        with pytest.raises(ValueError):
            coupling_eta_batch(cp, -1e-6)


class TestFiberEfficiency:
    def test_lossless(self):
        assert fiber_efficiency(FiberLoss()) == 1.0

    def test_spec_point(self):
        # one 90-degree bend at 0.14 dB plus one 10% grating
        fl = FiberLoss(bend_db_per_90deg=0.14, n_quarter_turns=1.0,
                       fbg_fraction_lost=0.1, n_fbg=1)
        assert fiber_efficiency(fl) == pytest.approx(0.8714, abs=1e-4)

    def test_gratings_multiply(self):
        one = FiberLoss(fbg_fraction_lost=0.1, n_fbg=1)
        two = FiberLoss(fbg_fraction_lost=0.1, n_fbg=2)
        assert fiber_efficiency(two) == pytest.approx(0.81 * fiber_efficiency(FiberLoss()), rel=1e-12)
        assert fiber_efficiency(two) == pytest.approx(0.9 * fiber_efficiency(one), rel=1e-12)

    def test_monotone_decreasing_in_each_loss(self):
        base = fiber_efficiency(FiberLoss(0.14, 1.0, 0.1, 1))
        assert fiber_efficiency(FiberLoss(0.2, 1.0, 0.1, 1)) < base
        assert fiber_efficiency(FiberLoss(0.14, 2.0, 0.1, 1)) < base
        assert fiber_efficiency(FiberLoss(0.14, 1.0, 0.2, 1)) < base
        assert fiber_efficiency(FiberLoss(0.14, 1.0, 0.1, 2)) < base

    def test_validation(self):
        with pytest.raises(ValueError):
            FiberLoss(bend_db_per_90deg=-0.1)
        with pytest.raises(ValueError):
            FiberLoss(fbg_fraction_lost=1.0)
        with pytest.raises(ValueError):
            FiberLoss(n_fbg=-1)


class TestCouplingParamsValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CouplingParams(lens_diameter=0.0, focal_length=1.0, omega0=1e-4, lam=LAMBDA)
        with pytest.raises(ValueError):
            CouplingParams(lens_diameter=1e-4, focal_length=1.0, omega0=1e-4, lam=-1.0)

    def test_coupling_argument_value(self):
        cp = CouplingParams(lens_diameter=1e-4, focal_length=4.7147e-2, omega0=1e-4, lam=LAMBDA)
        expected = (3.83 * 1e-4 * 1e-4 / (1.22 * LAMBDA * 4.7147e-2)) ** 2
        assert cp.coupling_argument == pytest.approx(expected, rel=1e-15)
