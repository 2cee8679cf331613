"""Hearing and safety indicators.

All threshold logic runs in the photon-count domain over one neural response
window: the deterministic signal count is ``Phi(r) * tau (e-1)/e`` for the
sampled pointing displacement r, and the background is a Poisson count with
mean ``B = f0 tau``. A stimulus is perceived when the total count reaches
the excitation threshold ``y_th``; it is harmful when it reaches the damage
threshold ``d_th``.

The exceedance probabilities are Monte Carlo estimates with Wilson 95%
intervals. One estimator serves both thresholds and all parameter
comparisons are run under common random numbers (same seed, same block
structure), which makes the monotonicity relations exact per seed:
``p_damage <= p_hearing`` whenever ``d_th >= y_th``, and ``p_hearing`` is
nondecreasing in transmit power.

Common random numbers also make the draws reusable. A block's displacements
r, their coupling efficiencies eta(r) and its background counts depend only
on (seed, block, block size) and on sigma_s and the coupling geometry, or on
the mean background B; power, skin, threshold and gain enter afterwards, as
factors of eta(r) and the comparison. So every exceedance call keeps them in
two least-recently-used caches, ``(seed, block, count, sigma_s, coupling) ->
(r, eta(r))`` and ``(seed, block, count, B) -> counts``, of
``DRAW_CACHE_ENTRIES`` = 64 entries each: at most 1 MiB per (r, eta) entry
and 0.5 MiB per counts entry, 96 MiB in all. A power sweep, figure 7 (10
sigma_s x up to 6 blocks) or the dynamic-range bisection then draws and
evaluates the coupling kernel once per block, bit-identical to drawing afresh.

``p_false_hearing`` exposes two numbers on purpose: the survival probability
``Pr(N >= y_th)`` that matches the verbal definition of a false trigger, and
the closed form ``Q(y_th + 1, B)``, which is the Poisson CDF
``Pr(N <= y_th)`` -- the complementary reading of the same definition. Both
are returned so the discrepancy stays visible instead of being silently
resolved; downstream reporting uses the survival reading, which also agrees
with false triggers being vanishingly rare at realistic thresholds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from aoci import optics
from aoci.photometry import (
    NeuralParams,
    derive_state,
    received_flux_batch,
    response_window_gain,
)
from aoci.specfun import regularized_gamma_p, regularized_gamma_q
from aoci.stochastics import RngStream, sample_poisson, sample_rayleigh

if TYPE_CHECKING:
    from aoci.config import LinkConfig

__all__ = [
    "ProbabilityEstimate",
    "FalseHearing",
    "KpiReport",
    "wilson_interval",
    "p_hearing",
    "p_false_hearing",
    "p_damage",
    "safety_check",
    "kpi_report",
]

KPI_BLOCK_SIZE = 1 << 16
MIN_SAMPLES = 10_000
DRAW_CACHE_ENTRIES = 64  # per cache; an entry holds one block of at most KPI_BLOCK_SIZE

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


class ProbabilityEstimate(NamedTuple):
    """A Monte Carlo probability with its Wilson 95% interval."""

    value: float
    ci_low: float
    ci_high: float
    n_samples: int
    seed: int


class FalseHearing(NamedTuple):
    """Both readings of the false-hearing probability (see module docstring)."""

    literal: float
    cdf_closed_form: float


def wilson_interval(successes: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need at least one sample")
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == n else min(center + half, 1.0)
    return lo, hi


@functools.lru_cache(maxsize=DRAW_CACHE_ENTRIES)
def _block_displacements(
    seed: int, block: int, count: int, sigma_s: float, coupling: optics.CouplingParams
) -> tuple[np.ndarray, np.ndarray]:
    """Block ``block``'s displacements r (stream (seed, 2 block)) and eta(r), read-only."""
    r = sample_rayleigh(RngStream(seed, 2 * block), sigma_s, count)
    eta = optics.coupling_eta_batch(coupling, r)
    r.flags.writeable = eta.flags.writeable = False
    return r, eta


@functools.lru_cache(maxsize=DRAW_CACHE_ENTRIES)
def _block_background(seed: int, block: int, count: int, b_mean: float) -> np.ndarray:
    """Block ``block``'s background counts (stream (seed, 2 block + 1)), read-only."""
    counts = sample_poisson(RngStream(seed, 2 * block + 1), b_mean, count)
    counts.flags.writeable = False
    return counts


def _exceedance(
    cfg: "LinkConfig",
    threshold: float,
    n: int,
    seed: int,
    signal_shot_noise: bool,
) -> ProbabilityEstimate:
    """Pr(total count over one window >= threshold), common-random-number MC.

    Block b draws its displacements from stream (seed, 2b) and its background
    counts from stream (seed, 2b+1), so two calls with the same (n, seed) see
    identical randomness regardless of threshold or transmit power: estimates
    are pathwise comparable across parameter values.

    The draws come from the per-block caches of the module docstring: (r,
    eta(r)) under (seed, block, count, sigma_s, coupling), the counts under
    (seed, block, count, B), each bounded at ``DRAW_CACHE_ENTRIES`` entries.
    A stream is a pure function of its (seed, id), so a cached block is the
    block a fresh draw would give, and each call still evaluates
    ``(prefactor eta) h_p gain + N >= threshold`` in the same order. With
    ``signal_shot_noise`` the count's Poisson mean holds the signal, so its
    draw is made per call; only (r, eta) come from the cache.
    """
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    if threshold < 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")

    gain = response_window_gain(cfg.neural.tau)
    b_mean = cfg.neural.mean_background
    sigma = cfg.beam.sigma_s

    hits = 0
    for block, start in enumerate(range(0, n, KPI_BLOCK_SIZE)):
        count = min(KPI_BLOCK_SIZE, n - start)
        r, eta = _block_displacements(seed, block, count, sigma, cfg.coupling)
        signal_counts = received_flux_batch(r, cfg, eta=eta) * gain
        if signal_shot_noise:
            # Extension beyond the additive model: the whole count is Poisson
            # with the signal folded into the mean.
            totals = sample_poisson(RngStream(seed, 2 * block + 1), signal_counts + b_mean, count)
        else:
            totals = signal_counts + _block_background(seed, block, count, b_mean)
        hits += int(np.count_nonzero(totals >= threshold))

    lo, hi = wilson_interval(hits, n)
    return ProbabilityEstimate(value=hits / n, ci_low=lo, ci_high=hi, n_samples=n, seed=seed)


def p_hearing(
    cfg: "LinkConfig",
    n: int = 100_000,
    seed: int = 1234,
    signal_shot_noise: bool = False,
) -> ProbabilityEstimate:
    """Probability that a transmitted stimulus excites the neurons."""
    return _exceedance(cfg, cfg.neural.y_th, n, seed, signal_shot_noise)


def p_damage(
    cfg: "LinkConfig",
    n: int = 100_000,
    seed: int = 1234,
    signal_shot_noise: bool = False,
) -> ProbabilityEstimate:
    """Probability that the delivered count reaches the damage threshold.

    Same estimator and randomness as ``p_hearing`` with the higher threshold;
    the background-only branch is dropped since the background count is
    negligible against any damage threshold.
    """
    if math.isinf(cfg.neural.d_th):
        return ProbabilityEstimate(0.0, 0.0, 0.0, n, seed)
    return _exceedance(cfg, cfg.neural.d_th, n, seed, signal_shot_noise)


def p_false_hearing(neural: NeuralParams) -> FalseHearing:
    """Probability of excitation by background alone, both readings.

    literal: ``Pr(N >= y_th) = P(y_th, B)`` for integer y_th >= 1 (1 when
    y_th = 0), the lower regularized gamma, free of the cancellation in
    ``1 - Q(y_th, B)``. cdf_closed_form: ``Q(y_th + 1, B)``, the Poisson CDF
    ``Pr(N <= y_th)``.
    """
    y_th = neural.y_th
    if not (y_th >= 0 and float(y_th).is_integer()):
        raise ValueError(
            f"count-domain false-hearing needs an integer threshold, got {y_th}"
        )
    b = neural.mean_background
    closed_form = regularized_gamma_q(y_th + 1.0, b)
    if y_th == 0:
        literal = 1.0
    else:
        literal = regularized_gamma_p(float(y_th), b)
    return FalseHearing(literal=literal, cdf_closed_form=closed_form)


@dataclass(frozen=True)
class KpiReport:
    """Full indicator set for one configuration."""

    p_hearing: ProbabilityEstimate
    p_false_hearing: FalseHearing
    p_damage: ProbabilityEstimate
    skin_irradiance: float  # W/m^2 at the emission spot
    neuron_irradiance: float  # W/m^2 over the fiber mode-field disc
    mpe_skin_ok: bool
    mpe_neuron_ok: bool
    dynamic_range_w: tuple[float, float] | None  # None when empty


def _fiber_output_power(cfg: "LinkConfig") -> float:
    """Optical power leaving the fiber at perfect alignment (worst case)."""
    state = derive_state(cfg)
    eta0 = optics.coupling_eta_closed(cfg.coupling, 0.0, cfg.series_ctl)
    return cfg.source.power_tx * state.h_l * state.a0 * state.g_c * eta0 * state.k


def _irradiances(cfg: "LinkConfig") -> tuple[float, float, bool, bool]:
    """Skin and neuron irradiance [W/m^2] and whether each is within its limit.

    Skin: transmit power over the emission spot ``pi w_spot^2``; neuron: peak
    fiber output power over the mode-field disc ``pi w0^2``.
    """
    skin_irr = cfg.source.power_tx / (math.pi * cfg.skin_spot_radius**2)
    neuron_irr = _fiber_output_power(cfg) / (math.pi * cfg.coupling.omega0**2)
    return skin_irr, neuron_irr, skin_irr <= cfg.mpe_skin, neuron_irr <= cfg.mpe_neuron


def safety_check(
    cfg: "LinkConfig",
    hearing_target: float = 0.9,
    n: int = 50_000,
    seed: int = 1234,
) -> tuple[float, float, bool, bool, tuple[float, float] | None]:
    """Irradiances, exposure verdicts, and the usable transmit-power range.

    The irradiances and verdicts are those of ``_irradiances``. The dynamic
    range is the power interval where hearing probability meets the target
    while both exposure verdicts hold; it is found by bisection on the
    common-random-number estimator (monotone in power per seed) and is None
    when empty.
    """
    skin_irr, neuron_irr, mpe_skin_ok, mpe_neuron_ok = _irradiances(cfg)

    # Both irradiances are linear in transmit power, so the exposure-limited
    # maximum power is their limit over their value per watt.
    x = cfg.source.power_tx
    if x > 0.0:
        per_watt = (skin_irr / x, neuron_irr / x)
    else:
        per_watt = _irradiances(cfg.with_value("source.power_mw", 1e3))[:2]
    x_max = min(cfg.mpe_skin / per_watt[0], cfg.mpe_neuron / per_watt[1])

    def hearing_at(power_w: float) -> float:
        test_cfg = cfg.with_value("source.power_mw", power_w * 1e3)
        return p_hearing(test_cfg, n=n, seed=seed).value

    dynamic_range: tuple[float, float] | None
    if hearing_at(x_max) < hearing_target:
        dynamic_range = None
    else:
        lo, hi = 0.0, x_max
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if mid <= 0.0 or hearing_at(mid) >= hearing_target:
                hi = mid
            else:
                lo = mid
        dynamic_range = (hi, x_max)

    return skin_irr, neuron_irr, mpe_skin_ok, mpe_neuron_ok, dynamic_range


def kpi_report(
    cfg: "LinkConfig",
    n: int = 100_000,
    seed: int = 1234,
    signal_shot_noise: bool = False,
    hearing_target: float = 0.9,
    with_dynamic_range: bool = True,
) -> KpiReport:
    """Assemble every indicator for one configuration."""
    skin_irr, neuron_irr, skin_ok, neuron_ok, dyn = safety_check(
        cfg,
        hearing_target=hearing_target,
        n=max(n // 2, MIN_SAMPLES),
        seed=seed,
    ) if with_dynamic_range else (*_irradiances(cfg), None)
    return KpiReport(
        p_hearing=p_hearing(cfg, n=n, seed=seed, signal_shot_noise=signal_shot_noise),
        p_false_hearing=p_false_hearing(cfg.neural),
        p_damage=p_damage(cfg, n=n, seed=seed, signal_shot_noise=signal_shot_noise),
        skin_irradiance=skin_irr,
        neuron_irradiance=neuron_irr,
        mpe_skin_ok=skin_ok,
        mpe_neuron_ok=neuron_ok,
        dynamic_range_w=dyn,
    )
