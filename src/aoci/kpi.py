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
nondecreasing in transmit power. Since both thresholds meet the same totals,
``p_hearing_and_damage`` counts one pass's totals against both: figure 8's
sweep and ``kpi_report`` form each block's totals once, and each estimate is
bitwise the one ``p_hearing`` or ``p_damage`` alone gives.

Common random numbers also make the draws reusable. A block's displacements
r, their coupling efficiencies eta(r) and its background counts depend only
on (seed, block, block size) and on sigma_s and the coupling geometry, or on
the mean background B; its pointing gains h_p(r) = A0 exp(-2 r^2 / w_eq^2)
depend on r and the beam geometry's (A0, w_eq) alone. Power, threshold and
gain enter afterwards, as factors of eta(r) h_p(r) and the comparison. So
every exceedance call keeps them in three least-recently-used caches,
``(seed, block, count, sigma_s, coupling) -> (r, eta(r))``, ``(seed, block,
count, sigma_s, coupling, A0, w_eq) -> h_p(r)`` and ``(seed, block, count, B)
-> counts``, of ``DRAW_CACHE_ENTRIES`` = 64 entries each: at most 1 MiB per
(r, eta) entry and 0.5 MiB per h_p or counts entry, 128 MiB in all. A power
sweep, figure 7 (10 sigma_s x up to 6 blocks), figure 8 (one h_p per skin
thickness, one pass per grid point) or the dynamic range of ``safety_check``
then draws, evaluates the coupling kernel and the pointing gain once per
block and geometry, bit-identical to drawing afresh. A cached (r, eta) block is filled from the
chunks of 2^13 samples that ``mean_flux_mc`` streams through, drawn from one
generator on the block's stream, so a block is the same drawn either way.

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

from aoci import channel, optics
from aoci.photometry import (  # derive_state stays importable for bench/tracing.py
    MC_BLOCK_SIZE,
    NeuralParams,
    _draw_block,
    derive_state,
    received_flux_batch,
    response_window_gain,
)
from aoci.specfun import regularized_gamma_p, regularized_gamma_q
from aoci.stochastics import RngStream, sample_poisson

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
    "p_hearing_and_damage",
    "safety_check",
    "kpi_report",
]

MIN_SAMPLES = 10_000
DRAW_CACHE_ENTRIES = 64  # per cache; an entry holds one block of at most MC_BLOCK_SIZE


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


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need at least one sample")
    z = 1.959963984540054  # two-sided 95% normal quantile
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == n else min(center + half, 1.0)
    return lo, hi


_block_displacements = functools.lru_cache(maxsize=DRAW_CACHE_ENTRIES)(_draw_block)


@functools.lru_cache(maxsize=DRAW_CACHE_ENTRIES)
def _block_background(seed: int, block: int, count: int, b_mean: float) -> np.ndarray:
    """Block ``block``'s background counts (stream (seed, 2 block + 1)), read-only."""
    counts = sample_poisson(RngStream(seed, 2 * block + 1), b_mean, count)
    counts.flags.writeable = False
    return counts


@functools.lru_cache(maxsize=DRAW_CACHE_ENTRIES)
def _block_pointing(seed: int, block: int, count: int, sigma_s: float,
                    coupling: optics.CouplingParams, a0: float, w_eq: float) -> np.ndarray:
    """Block ``block``'s h_p(r) at (a0, w_eq), read-only, on ``_block_displacements``' r."""
    r, _ = _block_displacements(seed, block, count, sigma_s, coupling)
    h_p = channel.pointing_gain(a0, w_eq, r)
    h_p.flags.writeable = False
    return h_p


def _blocks(cfg: "LinkConfig", n: int, seed: int):
    """Each block's (index, r, eta(r), h_p(r)) for n samples at ``cfg``'s geometry, cached."""
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    drawn, pointing = (cfg.beam.sigma_s, cfg.coupling), (cfg.state.a0, cfg.state.w_eq)
    counts = [min(MC_BLOCK_SIZE, n - start) for start in range(0, n, MC_BLOCK_SIZE)]
    return ((block, *_block_displacements(seed, block, count, *drawn),
             _block_pointing(seed, block, count, *drawn, *pointing))
            for block, count in enumerate(counts))


def _exceedance(
    cfg: "LinkConfig",
    thresholds: tuple[float, ...],
    n: int,
    seed: int,
    signal_shot_noise: bool,
) -> tuple[ProbabilityEstimate, ...]:
    """Pr(total count over one window >= t) for each threshold t, common-random-number MC.

    Block b draws its displacements from stream (seed, 2b) and its background
    counts from stream (seed, 2b+1), so two calls with the same (n, seed) see
    identical randomness regardless of threshold or transmit power: estimates
    are pathwise comparable across parameter values, and one pass counted
    against several thresholds gives each the estimate of a pass of its own.

    The draws come from the per-block caches of the module docstring: (r,
    eta(r)) under (seed, block, count, sigma_s, coupling), h_p(r) under those
    and (A0, w_eq), the counts under (seed, block, count, B), each bounded at
    ``DRAW_CACHE_ENTRIES`` entries. A stream is a pure function of its (seed,
    id), so a cached block is the block a fresh draw would give. Each block's
    totals ``(prefactor eta) h_p gain + N`` are formed once, in that order, in
    the array ``received_flux_batch`` returns. With ``signal_shot_noise`` the
    count's Poisson mean holds the signal, so its draw is made per call; only
    (r, eta, h_p) come from the cache. An infinite threshold (damage
    disabled) is never reached: (0, 0, 0), with no pass for it.
    """
    never = ProbabilityEstimate(0.0, 0.0, 0.0, n, seed)
    hits = dict.fromkeys((t for t in thresholds if t < math.inf), 0)
    if not hits:
        return (never,) * len(thresholds)
    blocks = _blocks(cfg, n, seed)
    if min(hits) < 0.0:
        raise ValueError(f"threshold must be >= 0, got {min(hits)}")

    gain = response_window_gain(cfg.neural.tau)
    b_mean = cfg.neural.mean_background

    for block, r, eta, h_p in blocks:
        totals = received_flux_batch(r, cfg, eta=eta, h_p=h_p)
        totals *= gain
        if signal_shot_noise:
            # Extension beyond the additive model: the whole count is Poisson
            # with the signal folded into the mean.
            totals += b_mean
            totals = sample_poisson(RngStream(seed, 2 * block + 1), totals, r.size)
        else:
            totals += _block_background(seed, block, r.size, b_mean)
        for threshold in hits:
            hits[threshold] += int(np.count_nonzero(totals >= threshold))

    return tuple(ProbabilityEstimate(hits[t] / n, *wilson_interval(hits[t], n), n, seed)
                 if t in hits else never for t in thresholds)


def p_hearing(
    cfg: "LinkConfig",
    n: int = 100_000,
    seed: int = 1234,
    signal_shot_noise: bool = False,
) -> ProbabilityEstimate:
    """Probability that a transmitted stimulus excites the neurons."""
    return _exceedance(cfg, (cfg.neural.y_th,), n, seed, signal_shot_noise)[0]


def p_damage(
    cfg: "LinkConfig",
    n: int = 100_000,
    seed: int = 1234,
    signal_shot_noise: bool = False,
) -> ProbabilityEstimate:
    """Probability that the delivered count reaches the damage threshold.

    Same estimator and randomness as ``p_hearing`` with the higher threshold;
    the background-only branch is dropped since the background count is
    negligible against any damage threshold. A disabled threshold (d_th =
    inf) gives (0, 0, 0) without drawing.
    """
    return _exceedance(cfg, (cfg.neural.d_th,), n, seed, signal_shot_noise)[0]


def p_hearing_and_damage(
    cfg: "LinkConfig",
    n: int = 100_000,
    seed: int = 1234,
    signal_shot_noise: bool = False,
) -> tuple[ProbabilityEstimate, ProbabilityEstimate]:
    """``(p_hearing, p_damage)`` from one pass over the draws, each bitwise its own call's."""
    return _exceedance(cfg, (cfg.neural.y_th, cfg.neural.d_th), n, seed, signal_shot_noise)


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


def _irradiances(cfg: "LinkConfig", power: float) -> tuple[float, float]:
    """Skin and neuron irradiance [W/m^2] at transmit power ``power`` [W].

    Skin: ``power`` over the emission spot ``pi w_spot^2``; neuron: the power
    leaving the fiber at perfect alignment (the worst case) over the
    mode-field disc ``pi w0^2``.
    """
    state = cfg.state
    eta0 = optics.coupling_eta_closed(cfg.coupling, 0.0)
    fiber_out = power * state.h_l * state.a0 * state.g_c * eta0 * state.k
    return (power / (math.pi * cfg.skin_spot_radius**2),
            fiber_out / (math.pi * cfg.coupling.omega0**2))


def safety_check(
    cfg: "LinkConfig",
    hearing_target: float = 0.9,
    n: int = 50_000,
    seed: int = 1234,
) -> tuple[float, float, bool, bool, tuple[float, float] | None]:
    """Irradiances, exposure verdicts, and the usable transmit-power range.

    The irradiances are ``_irradiances`` at the transmit power. The dynamic
    range is the power interval where ``p_hearing(n, seed)`` meets
    ``hearing_target`` while both exposure verdicts hold, None when empty.
    Sample i is heard from power x_i = (y_th - N_i) / (g Phi_1(r_i)) up (Phi_1
    the flux at 1 W, N_i the background count), so the lower edge is the
    ceil(target n)-th smallest x_i, 0.0 when the background alone suffices,
    raised by ulps until ``p_hearing``'s own arithmetic meets the target.
    """
    if not 0.0 < hearing_target <= 1.0:
        raise ValueError(f"hearing_target must be in (0, 1], got {hearing_target}")
    blocks = _blocks(cfg, n, seed)
    skin_irr, neuron_irr = _irradiances(cfg, cfg.source.power_tx)
    skin_1w, neuron_1w = _irradiances(cfg, 1.0)
    # A limit whose irradiance is 0 at 1 W (the skin absorbs every photon) never binds.
    x_max = min(cfg.mpe_skin / skin_1w, cfg.mpe_neuron / neuron_1w if neuron_1w else math.inf)

    y_th, b_mean = cfg.neural.y_th, cfg.neural.mean_background
    gain = response_window_gain(cfg.neural.tau)
    powers = []
    for block, r, eta, h_p in blocks:
        short = y_th - _block_background(seed, block, r.size, b_mean)  # count the signal must add
        per_watt = cfg.state.flux_per_watt * eta * h_p * gain
        x = np.where(short > 0.0, np.inf, 0.0)  # a zero flux needs infinite power
        with np.errstate(over="ignore"):  # and a near-zero flux overflows to the same verdict
            np.divide(short, per_watt, out=x, where=(short > 0.0) & (per_watt > 0.0))
        powers.append(x)
    k = math.ceil(hearing_target * n)
    edge = float(np.partition(np.concatenate(powers), k - 1)[k - 1])
    while edge <= x_max and _exceedance(
        cfg.with_value("source.power_mw", edge * 1e3), (y_th,), n, seed, False
    )[0].value < hearing_target:
        edge = math.nextafter(edge, math.inf)
    dynamic_range = (edge, x_max) if edge <= x_max else None
    return (skin_irr, neuron_irr, skin_irr <= cfg.mpe_skin, neuron_irr <= cfg.mpe_neuron,
            dynamic_range)


def kpi_report(
    cfg: "LinkConfig",
    n: int = 100_000,
    seed: int = 1234,
    signal_shot_noise: bool = False,
) -> KpiReport:
    """Every indicator for one configuration: p_hearing and p_damage from one pass, and
    the dynamic range, on the same (n, seed) draws."""
    skin_irr, neuron_irr, skin_ok, neuron_ok, dyn = safety_check(cfg, n=n, seed=seed)
    hearing, damage = p_hearing_and_damage(cfg, n=n, seed=seed,
                                           signal_shot_noise=signal_shot_noise)
    return KpiReport(
        p_hearing=hearing,
        p_false_hearing=p_false_hearing(cfg.neural),
        p_damage=damage,
        skin_irradiance=skin_irr,
        neuron_irradiance=neuron_irr,
        mpe_skin_ok=skin_ok,
        mpe_neuron_ok=neuron_ok,
        dynamic_range_w=dyn,
    )
