"""Seeded, splittable random variates for the Monte Carlo estimators.

Streams are identified by ``(seed, stream_id)`` on top of a counter-based
generator (Philox keyed through SeedSequence), so any worker can regenerate
any block of samples independently: results never depend on how the sample
budget was partitioned across workers. Streams are value-like; drawing from
the same stream twice yields the same sequence by design. Use distinct
stream ids for independent draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream", "sample_rayleigh", "sample_poisson"]


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream fully determined by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))

    def uniforms(self, n: int) -> np.ndarray:
        """n uniforms on the half-open interval (0, 1]."""
        return 1.0 - self.generator().random(n)


def sample_rayleigh(stream: RngStream, sigma_s: float, n: int | None = None):
    """Rayleigh radial displacements ``r = sigma_s sqrt(-2 ln u)``, u ~ U(0, 1].

    Scalar when ``n`` is None, else an array of the stream's first n samples.
    Every sample is finite and >= 0: u never equals 0, and u = 1 gives r = 0.
    """
    if not (sigma_s > 0.0):
        raise ValueError(f"sigma_s must be > 0, got {sigma_s}")
    u = stream.uniforms(1 if n is None else n)
    r = sigma_s * np.sqrt(-2.0 * np.log(u))
    return float(r[0]) if n is None else r


def _poisson_cdf_table(mean: float) -> np.ndarray:
    """Cumulative Poisson probabilities out to a negligible tail."""
    k_max = int(mean + 40.0 * math.sqrt(mean + 1.0) + 25.0)
    pmf = np.empty(k_max + 1)
    pmf[0] = math.exp(-mean)
    for k in range(1, k_max + 1):
        pmf[k] = pmf[k - 1] * (mean / k)
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0  # absorb the truncated tail
    return cdf


def _poisson_inversion(u: np.ndarray, mean: float) -> np.ndarray:
    cdf = _poisson_cdf_table(mean)
    return np.searchsorted(cdf, u, side="left").astype(np.int64)


def _poisson_ptrs(stream_gen: np.random.Generator, mean: float, n: int) -> np.ndarray:
    """Transformed-rejection Poisson sampling for large means (Hormann's PTRS).

    Exact for any mean; each round draws two uniforms per undecided sample
    and the acceptance rate is ~90%, so the loop terminates quickly. The
    batched retries are deterministic for a fixed generator state.
    """
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mean = math.log(mean)

    out = np.empty(n, dtype=np.int64)
    pending = np.arange(n)
    while pending.size:
        u = stream_gen.random(pending.size) - 0.5
        v = stream_gen.random(pending.size)
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a / us + b) * u + mean + 0.43)

        accept = (us >= 0.07) & (v <= v_r)
        reject = (k < 0.0) | ((us < 0.013) & (v > us))
        undecided = ~(accept | reject)
        if np.any(undecided):
            ku = k[undecided]
            log_accept = np.log(
                v[undecided] * inv_alpha / (a / us[undecided] ** 2 + b)
            )
            ok = log_accept <= ku * log_mean - mean - _lgamma(ku + 1.0)
            accept_idx = np.zeros_like(accept)
            accept_idx[np.flatnonzero(undecided)[ok]] = True
            accept = accept | accept_idx

        out[pending[accept]] = k[accept].astype(np.int64)
        pending = pending[~accept]
    return out


def _lgamma(x: np.ndarray) -> np.ndarray:
    from scipy.special import gammaln

    return gammaln(x)


def sample_poisson(stream: RngStream, mean: float, n: int | None = None):
    """Poisson counts at the given mean: CDF inversion below mean 30, PTRS above.

    Scalar when ``n`` is None. Deterministic for fixed (stream, mean, n).
    """
    if mean < 0.0 or not math.isfinite(mean):
        raise ValueError(f"mean must be finite and >= 0, got {mean}")
    size = 1 if n is None else n
    if mean == 0.0:
        counts = np.zeros(size, dtype=np.int64)
    elif mean <= 30.0:
        counts = _poisson_inversion(stream.uniforms(size), mean)
    else:
        counts = _poisson_ptrs(stream.generator(), mean, size)
    return int(counts[0]) if n is None else counts
