"""Random-variate layer: laws, reproducibility, stream independence."""

import math

import numpy as np
import pytest

import _oracles as oracles
from aoci.stochastics import RngStream, rayleigh_chunks, sample_poisson


def draw_rayleigh(stream, sigma_s, n):
    """The package's first n Rayleigh displacements of ``stream``, drawn as one chunk."""
    return next(rayleigh_chunks(stream, sigma_s, n, n))


class TestReproducibility:
    def test_identical_streams_identical_sequences(self):
        a = draw_rayleigh(RngStream(20240901, 5), 1e-4, n=10_000)
        b = draw_rayleigh(RngStream(20240901, 5), 1e-4, n=10_000)
        assert np.array_equal(a, b)

    def test_prefix_stability(self):
        # The first k samples do not depend on how many were requested.
        a = draw_rayleigh(RngStream(7, 0), 2.0, n=100)
        b = draw_rayleigh(RngStream(7, 0), 2.0, n=10_000)
        assert np.array_equal(a, b[:100])

    def test_distinct_streams_differ(self):
        a = draw_rayleigh(RngStream(7, 0), 2.0, n=100)
        b = draw_rayleigh(RngStream(7, 1), 2.0, n=100)
        assert not np.array_equal(a, b)

    def test_scalar_draw_is_first_of_sequence(self):
        s = RngStream(99, 3)
        assert draw_rayleigh(s, 1.5, 1)[0] == draw_rayleigh(s, 1.5, n=4)[0]
        assert sample_poisson(s, 3.5, 1)[0] == sample_poisson(s, 3.5, n=4)[0]


class TestStreamIndependence:
    def test_cross_correlation_small(self):
        n = 100_000
        a = RngStream(1, 0).uniforms(n)
        b = RngStream(1, 1).uniforms(n)
        for lag in [0, 1, 7]:
            if lag:
                corr = np.corrcoef(a[:-lag], b[lag:])[0, 1]
            else:
                corr = np.corrcoef(a, b)[0, 1]
            assert abs(corr) < 0.01


class TestRayleigh:
    def test_mean_matches_moment_identity(self):
        sigma = 2.0
        r = draw_rayleigh(RngStream(42, 0), sigma, n=1_000_000)
        expected = sigma * math.sqrt(math.pi / 2.0)
        stderr = sigma * math.sqrt((4.0 - math.pi) / 2.0) / math.sqrt(r.size)
        assert abs(r.mean() - expected) < 3.0 * stderr

    def test_kolmogorov_smirnov_against_analytic_cdf(self):
        sigma = 1.3
        r = np.sort(draw_rayleigh(RngStream(11, 2), sigma, n=1_000_000))
        cdf = 1.0 - np.exp(-(r * r) / (2.0 * sigma * sigma))
        grid = (np.arange(1, r.size + 1)) / r.size
        ks = np.max(np.abs(cdf - grid))
        assert ks < 0.002

    def test_strictly_positive_support(self):
        r = draw_rayleigh(RngStream(0, 0), 1e-4, n=1_000_000)
        assert np.all(r > 0.0)

    def test_rejects_bad_sigma(self):
        for sigma in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                next(rayleigh_chunks(RngStream(0, 0), sigma, 10, 4))

    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 10_000, 65536])
    def test_chunks_from_one_generator_are_the_whole_draw(self, n):
        chunks = list(rayleigh_chunks(RngStream(3, 4), 0.7, n, 8192))
        assert [c.size for c in chunks] == [min(8192, n - i) for i in range(0, n, 8192)]
        assert np.concatenate(chunks).tobytes() == oracles.sample_rayleigh(3, 4, 0.7, n).tobytes()

    @pytest.mark.parametrize("seed, stream_id", [(0, 0), (1, 0), (1, 1), (20240901, 5),
                                                 (2**63, 2**40)])
    def test_streams_are_keyed_by_seed_and_id_through_philox(self, seed, stream_id):
        got = draw_rayleigh(RngStream(seed, stream_id), 1.3, 1000)
        assert got.tobytes() == oracles.sample_rayleigh(seed, stream_id, 1.3, 1000).tobytes()


class TestPoisson:
    def test_zero_mean_always_zero(self):
        assert np.all(sample_poisson(RngStream(5, 0), 0.0, n=1000) == 0)

    def test_pmf_at_zero(self):
        counts = sample_poisson(RngStream(123, 0), 1.5, n=1_000_000)
        p0 = float(np.mean(counts == 0))
        assert p0 == pytest.approx(math.exp(-1.5), abs=0.002)

    def test_moments_small_mean(self):
        mean = 4.2
        counts = sample_poisson(RngStream(9, 1), mean, n=1_000_000)
        stderr = math.sqrt(mean / counts.size)
        assert abs(counts.mean() - mean) < 3.0 * stderr
        assert counts.var() / counts.mean() == pytest.approx(1.0, abs=0.01)

    def test_dispersion_large_mean(self):
        # mean 100 exercises the transformed-rejection branch
        counts = sample_poisson(RngStream(77, 0), 100.0, n=1_000_000)
        assert counts.var() / counts.mean() == pytest.approx(1.0, abs=0.03)
        stderr = math.sqrt(100.0 / counts.size)
        assert abs(counts.mean() - 100.0) < 3.0 * stderr

    def test_branch_boundary_consistency(self):
        # Laws on both sides of numpy's switch from multiplication to
        # transformed rejection (mean 10) are the same; compare tail mass
        # around the mean against the analytic value.
        from scipy.stats import poisson as scipy_poisson

        for mean in [9.5, 10.5, 29.5, 30.5]:
            counts = sample_poisson(RngStream(31, 0), mean, n=400_000)
            for q in [0.25, 0.5, 0.75]:
                k = int(scipy_poisson.ppf(q, mean))
                empirical = float(np.mean(counts <= k))
                analytic = float(scipy_poisson.cdf(k, mean))
                assert empirical == pytest.approx(analytic, abs=0.005)

    def test_reproducible(self):
        a = sample_poisson(RngStream(3, 2), 55.5, n=5000)
        b = sample_poisson(RngStream(3, 2), 55.5, n=5000)
        assert np.array_equal(a, b)

    def test_array_of_means(self):
        means = np.array([0.0, 1.5, 40.0, 2.0e14])
        counts = sample_poisson(RngStream(4, 1), np.tile(means, 50_000), n=4 * 50_000)
        counts = counts.reshape(-1, 4)
        assert np.all(counts[:, 0] == 0)
        stderr = np.sqrt(means / counts.shape[0])
        assert np.all(np.abs(counts.mean(axis=0) - means) <= 4.0 * stderr)

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            sample_poisson(RngStream(0, 0), -1.0, 1)
        with pytest.raises(ValueError):
            sample_poisson(RngStream(0, 0), math.inf, 1)
        with pytest.raises(ValueError):
            sample_poisson(RngStream(0, 0), np.array([1.0, math.nan]), n=2)
