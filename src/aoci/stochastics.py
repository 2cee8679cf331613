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

__all__ = ["RngStream", "rayleigh_chunks", "sample_poisson"]


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


def rayleigh_chunks(stream: RngStream, sigma_s: float, n: int, size: int):
    """The stream's first n Rayleigh radial displacements ``r = sigma_s sqrt(-2 ln u)``,
    u ~ U(0, 1], as successive arrays of at most ``size`` samples from one generator: a
    prefix does not depend on n or size. Every sample is finite and >= 0: u never equals
    0, and u = 1 gives r = 0. A bad sigma_s is refused as the first chunk is drawn."""
    if not (sigma_s > 0.0):
        raise ValueError(f"sigma_s must be > 0, got {sigma_s}")
    generator = stream.generator()
    for start in range(0, n, size):
        yield sigma_s * np.sqrt(-2.0 * np.log(1.0 - generator.random(min(size, n - start))))


def sample_poisson(stream: RngStream, mean, n: int) -> np.ndarray:
    """n Poisson counts at the given mean, or elementwise at an array of n means.

    Drawn by numpy's generator on the stream (multiplication of uniforms
    below mean 10, Hormann's PTRS transformed rejection above). Deterministic for
    fixed (stream, mean, n).
    """
    lam = np.asarray(mean, dtype=np.float64)
    if not np.all((lam >= 0.0) & (lam < math.inf)):
        raise ValueError(f"means must be finite and >= 0, got {mean}")
    return stream.generator().poisson(lam, n)
