"""Hearing and safety indicators.

All threshold logic runs in the photon-count domain over one neural response
window: the deterministic signal count is ``Phi(r) * tau (e-1)/e`` for the
sampled pointing displacement r, and the background is a Poisson count with
mean ``B = f0 tau``. A stimulus is perceived when the total count reaches
the excitation threshold ``y_th``; it is harmful when it reaches the damage
threshold ``d_th``.

The exceedance probabilities are Monte Carlo estimates with Wilson 95%
intervals from one estimator, ``p_hearing_and_damage_batch``, which takes a
sweep's configs; ``p_hearing``, ``p_damage`` and ``p_hearing_and_damage`` are
its batch of one. Block b draws its displacements from stream (seed, 2b) and
its background counts from stream (seed, 2b + 1), so every comparison runs
under common random numbers, which makes the monotonicity relations exact per
seed: ``p_damage <= p_hearing`` whenever ``d_th >= y_th``, and ``p_hearing``
is nondecreasing in transmit power.

The draws are reusable across calls: a block's displacements r and their
coupling efficiencies eta(r) depend only on (seed, block, block size, sigma_s,
coupling), and its background counts on (seed, block, block size, mean
background). Two least-recently-used caches keep them, of
``DRAW_CACHE_ENTRIES`` = 64 entries each: at most 1 MiB per (r, eta) entry and
0.5 MiB per counts entry, 96 MiB in all. A stream is a pure function of its
(seed, id), so every estimate is bit-identical to drawing afresh.

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
    "p_hearing_and_damage_batch",
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


def _block_counts(n: int) -> list[int]:
    """The sizes of the blocks of n samples; n below ``MIN_SAMPLES`` is refused."""
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    return [min(MC_BLOCK_SIZE, n - start) for start in range(0, n, MC_BLOCK_SIZE)]


def p_hearing_and_damage_batch(
    cfgs: list["LinkConfig"],
    n: int = 100_000,
    seed: int = 1234,
    signal_shot_noise: bool = False,
) -> list[tuple[ProbabilityEstimate, ProbabilityEstimate]]:
    """Each config's ``(p_hearing, p_damage)``: Pr(count over one window >= y_th, d_th).

    Configs are grouped by (sigma_s, coupling), whose blocks' (r, eta(r)) come from
    the draw cache, then by (A0, w_eq), whose h_p(r) is computed once per block.
    Each config's totals ``((prefactor eta) h_p) gain + N`` are formed once per
    block, in that order, by ``received_flux_batch``, and counted against both
    thresholds: its pair is bitwise that of a batch of it alone. With
    ``signal_shot_noise`` the Poisson mean holds the signal, drawn per config. An
    infinite d_th (damage disabled) gives (0, 0, 0).
    """
    counts = _block_counts(n)
    groups: dict = {}  # (sigma_s, coupling) -> (a0, w_eq) -> indices into cfgs
    for i, cfg in enumerate(cfgs):
        if cfg.neural.y_th < 0.0:  # and so d_th, which NeuralParams holds above y_th
            raise ValueError(f"threshold must be >= 0, got {cfg.neural.y_th}")
        drawn, pointing = (cfg.beam.sigma_s, cfg.coupling), (cfg.state.a0, cfg.state.w_eq)
        groups.setdefault(drawn, {}).setdefault(pointing, []).append(i)

    hits = [[0, 0] for _ in cfgs]
    for drawn, pointings in groups.items():
        for block, count in enumerate(counts):
            r, eta = _block_displacements(seed, block, count, *drawn)
            for (a0, w_eq), members in pointings.items():
                h_p = channel.pointing_gain(a0, w_eq, r)
                for i in members:
                    neural = cfgs[i].neural
                    totals = received_flux_batch(r, cfgs[i], eta=eta, h_p=h_p)
                    totals *= response_window_gain(neural.tau)
                    if signal_shot_noise:
                        # Beyond the additive model: the whole count is Poisson, signal and all.
                        totals += neural.mean_background
                        totals = sample_poisson(RngStream(seed, 2 * block + 1), totals, count)
                    else:
                        totals += _block_background(seed, block, count, neural.mean_background)
                    hits[i][0] += int(np.count_nonzero(totals >= neural.y_th))
                    hits[i][1] += int(np.count_nonzero(totals >= neural.d_th))

    return [tuple(ProbabilityEstimate(k / n, *wilson_interval(k, n), n, seed)
                  if threshold < math.inf else ProbabilityEstimate(0.0, 0.0, 0.0, n, seed)
                  for k, threshold in zip(counted, (cfg.neural.y_th, cfg.neural.d_th)))
            for cfg, counted in zip(cfgs, hits)]


def p_hearing(
    cfg: "LinkConfig",
    n: int = 100_000,
    seed: int = 1234,
    signal_shot_noise: bool = False,
) -> ProbabilityEstimate:
    """Probability that a transmitted stimulus excites the neurons."""
    return p_hearing_and_damage_batch([cfg], n, seed, signal_shot_noise)[0][0]


def p_damage(
    cfg: "LinkConfig",
    n: int = 100_000,
    seed: int = 1234,
    signal_shot_noise: bool = False,
) -> ProbabilityEstimate:
    """Probability that the delivered count reaches the damage threshold, by
    ``p_hearing``'s estimator; (0, 0, 0) without drawing if d_th = inf (disabled)."""
    if cfg.neural.d_th == math.inf:
        return ProbabilityEstimate(0.0, 0.0, 0.0, n, seed)
    return p_hearing_and_damage_batch([cfg], n, seed, signal_shot_noise)[0][1]


def p_hearing_and_damage(
    cfg: "LinkConfig",
    n: int = 100_000,
    seed: int = 1234,
    signal_shot_noise: bool = False,
) -> tuple[ProbabilityEstimate, ProbabilityEstimate]:
    """``(p_hearing, p_damage)`` from one pass over the draws, each bitwise its own call's."""
    return p_hearing_and_damage_batch([cfg], n, seed, signal_shot_noise)[0]


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
    counts = _block_counts(n)
    skin_irr, neuron_irr = _irradiances(cfg, cfg.source.power_tx)
    skin_1w, neuron_1w = _irradiances(cfg, 1.0)
    # A limit whose irradiance is 0 at 1 W (the skin absorbs every photon) never binds.
    x_max = min(cfg.mpe_skin / skin_1w, cfg.mpe_neuron / neuron_1w if neuron_1w else math.inf)

    state, y_th, b_mean = cfg.state, cfg.neural.y_th, cfg.neural.mean_background
    gain = response_window_gain(cfg.neural.tau)
    powers = []
    for block, count in enumerate(counts):
        r, eta = _block_displacements(seed, block, count, cfg.beam.sigma_s, cfg.coupling)
        short = y_th - _block_background(seed, block, count, b_mean)  # count the signal must add
        per_watt = state.flux_per_watt * eta * channel.pointing_gain(state.a0, state.w_eq, r) * gain
        x = np.where(short > 0.0, np.inf, 0.0)  # a zero flux needs infinite power
        with np.errstate(over="ignore"):  # and a near-zero flux overflows to the same verdict
            np.divide(short, per_watt, out=x, where=(short > 0.0) & (per_watt > 0.0))
        powers.append(x)
    k = math.ceil(hearing_target * n)
    edge = float(np.partition(np.concatenate(powers), k - 1)[k - 1])
    while edge <= x_max and p_hearing_and_damage_batch(
        [cfg.with_value("source.power_mw", edge * 1e3)], n, seed
    )[0][0].value < hearing_target:
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
