"""Hearing and safety indicators.

All threshold logic runs in the photon-count domain over one neural response
window: the deterministic signal count is ``Phi(r) * tau (e-1)/e`` for the
sampled pointing displacement r, and the background is a Poisson count with
mean ``B = f0 tau``. A stimulus is perceived when the total count reaches
the excitation threshold ``y_th``; it is harmful when it reaches the damage
threshold ``d_th``.

The exceedance probabilities are ``monte_carlo`` ``Estimate``s with Wilson 95%
intervals, and every request for them walks the draws in one block loop,
``_exceedance_pass``: ``p_hearing_and_damage_batch`` counts a sweep's configs from
it (``p_hearing`` and ``p_damage`` are its batch of one), ``safety_check`` takes its
threshold powers at y_th, and ``kpi_report`` both from one pass. Block b draws its
displacements from stream (seed, 2b) and its background counts N from stream
(seed, 2b + 1), so every comparison runs under common random numbers. At power P
sample i counts P g Phi_1(r_i) + N_i (Phi_1 the flux at 1 W): it reaches a threshold
from its threshold power x_i = (threshold - N_i) / (g Phi_1(r_i)) up. An estimate at
P counts the x_i <= P, and the dynamic range's lower edge is a quantile of the x_i
at y_th. The monotonicity relations are exact per seed: ``p_damage <= p_hearing``
whenever ``d_th >= y_th``, and ``p_hearing`` is nondecreasing in transmit power.

The draws are reusable across calls: a block's displacements r and their
coupling efficiencies eta(r) depend only on (seed, block, block size, sigma_s,
coupling), and its background counts on (seed, block, block size, mean
background). Two least-recently-used caches keep them, of
``DRAW_CACHE_ENTRIES`` = 64 entries each: at most 1 MiB per (r, eta) entry and
0.5 MiB per counts entry, 96 MiB in all. A stream is a pure function of its
(seed, id), so every estimate is bit-identical to drawing afresh.

``p_false_hearing`` exposes two numbers on purpose: the survival probability
``Pr(N >= y_th)`` that matches the verbal definition of a false trigger, and
the closed form ``Q(floor(y_th) + 1, B)``, which is the Poisson CDF
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
    Estimate,
    NeuralParams,
    _draw_block,
    _mc_blocks,
    derive_state,
    received_flux_batch,
    response_window_gain,
)
from aoci.specfun import regularized_gamma_p, regularized_gamma_q
from aoci.stochastics import RngStream, sample_poisson

if TYPE_CHECKING:
    from aoci.config import LinkConfig

__all__ = [
    "FalseHearing",
    "KpiReport",
    "wilson_interval",
    "p_hearing",
    "p_false_hearing",
    "p_damage",
    "p_hearing_and_damage_batch",
    "safety_check",
    "kpi_report",
]

MIN_SAMPLES = 10_000
DRAW_CACHE_ENTRIES = 64  # per cache; an entry holds one block of at most MC_BLOCK_SIZE


class FalseHearing(NamedTuple):
    """Both readings of the false-hearing probability (see module docstring)."""

    literal: Estimate
    cdf_closed_form: Estimate


def wilson_interval(successes: int | np.ndarray, n: int) -> tuple:
    """Wilson score 95% interval ``(low, high)`` for a binomial proportion of ``successes``
    out of n: floats for one count, nested lists shaped like an array of counts."""
    if n <= 0:
        raise ValueError("need at least one sample")
    z = 1.959963984540054  # two-sided 95% normal quantile
    k = np.asarray(successes)
    p_hat = k / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
    return (np.where(k == 0, 0.0, np.maximum(center - half, 0.0)).tolist(),
            np.where(k == n, 1.0, np.minimum(center + half, 1.0)).tolist())


_block_displacements = functools.lru_cache(maxsize=DRAW_CACHE_ENTRIES)(_draw_block)


@functools.lru_cache(maxsize=DRAW_CACHE_ENTRIES)
def _block_background(seed: int, block: int, count: int, b_mean: float) -> np.ndarray:
    """Block ``block``'s background counts (stream (seed, 2 block + 1)), read-only float64."""
    counts = sample_poisson(RngStream(seed, 2 * block + 1), b_mean, count).astype(np.float64)
    counts.flags.writeable = False
    return counts


def _threshold_powers(seed: int, block: int, eta, h_p, flux_per_watt: float, neural: NeuralParams):
    """Block ``block``'s threshold powers x [W] for each finite threshold, y_th then d_th:
    (threshold - N) / (flux_per_watt eta h_p g) in that order, N its background counts.
    A sample is heard at power P unless its x > P: x is inf where the flux is 0, and at
    most 0, or NaN (0 / 0), where N alone reaches the threshold."""
    background = _block_background(seed, block, eta.size, neural.mean_background)
    per_watt = flux_per_watt * eta * h_p * response_window_gain(neural.tau)
    per_watt[per_watt <= 0.0] = 0.0  # a kernel roundoff below 0 (or a -0.0) is no flux
    for threshold in (neural.y_th, neural.d_th):
        if threshold < math.inf:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                x = (threshold - background) / per_watt
            yield x  # outside the errstate, which would else hold while the caller runs


def _exceedance_pass(cfgs: list["LinkConfig"], n: int, seed: int, signal_shot_noise: bool = False,
                     count: bool = True, keep: bool = False) -> tuple[list | None, list]:
    """The one block loop of every exceedance request: ``(pairs, heard)``.

    Configs are grouped by (sigma_s, coupling), whose blocks' (r, eta(r)) come from the
    draw cache, then by (A0, w_eq), whose h_p(r) is computed once per block, then into
    power chains by all else, (flux_per_watt, neural), whose ``_threshold_powers`` are
    computed once per block. With ``count``, pairs holds each config's ``(p_hearing,
    p_damage)``: a member counts the samples whose x is not above its power, and one
    ``wilson_interval`` over every count gives the intervals. In exact arithmetic x <= P
    exactly when the total ``P g Phi_1 + N`` reaches the threshold; in floating point the
    two can disagree on a sample whose total lies within a few ulps of it, and the count
    is x's. With ``signal_shot_noise`` the Poisson mean holds the signal, drawn and
    counted per config. With ``keep``, heard holds each block's x at y_th, for a request
    of one config. Without ``count``, pairs is None and no x at d_th is computed.
    """
    n, seed, counts = _mc_blocks(n, seed, MIN_SAMPLES)
    groups: dict = {}  # (sigma_s, coupling) -> (a0, w_eq) -> chain -> indices into cfgs
    for i, cfg in enumerate(cfgs):
        drawn, pointing = (cfg.beam.sigma_s, cfg.coupling), (cfg.state.a0, cfg.state.w_eq)
        chain = (cfg.state.flux_per_watt, cfg.neural)
        groups.setdefault(drawn, {}).setdefault(pointing, {}).setdefault(chain, []).append(i)

    hits, heard = np.zeros((len(cfgs), 2), np.int64), []
    for drawn, pointings in groups.items():
        for block, size in enumerate(counts):
            r, eta = _block_displacements(seed, block, size, *drawn)
            for (a0, w_eq), chains in pointings.items():
                h_p = channel.pointing_gain(a0, w_eq, r)
                for (flux_per_watt, neural), members in chains.items():
                    if signal_shot_noise:  # beyond the additive model: all of the count is Poisson
                        for i in members:
                            totals = received_flux_batch(r, cfgs[i], eta=eta, h_p=h_p)
                            totals *= response_window_gain(neural.tau)
                            totals += neural.mean_background
                            totals = sample_poisson(RngStream(seed, 2 * block + 1), totals, size)
                            hits[i] += [np.count_nonzero(totals >= neural.y_th),
                                        np.count_nonzero(totals >= neural.d_th)]
                        continue
                    powers = _threshold_powers(seed, block, eta, h_p, flux_per_watt, neural)
                    for t, x in enumerate(powers):  # y_th's, then d_th's when finite
                        if keep and t == 0:
                            heard.append(x)
                        if not count:
                            break  # so d_th's threshold powers are never computed
                        for i in members:  # heard unless x is above the member's power
                            hits[i, t] += size - int(np.count_nonzero(x > cfgs[i].source.power_tx))
    if not count:
        return None, heard
    lows, highs = wilson_interval(hits, n)
    for cfg, high in zip(cfgs, highs):  # damage disabled: no hit, so low is 0 already
        high[1] = high[1] if cfg.neural.d_th < math.inf else 0.0
    return [tuple(Estimate(k / n, 0.5 * (hi - lo), "monte_carlo", n, seed, (lo, hi))
                  for k, lo, hi in zip(*row)) for row in zip(hits.tolist(), lows, highs)], heard


def p_hearing_and_damage_batch(
    cfgs: list["LinkConfig"],
    n: int = 100_000,
    seed: int = 1234,
    signal_shot_noise: bool = False,
) -> list[tuple[Estimate, Estimate]]:
    """Each config's ``(p_hearing, p_damage)``: Pr(count over one window >= y_th, d_th),
    counted by ``_exceedance_pass``, each pair bitwise that of a batch of it alone. An
    infinite d_th (damage disabled) gives value, err_bound and interval 0."""
    return _exceedance_pass(cfgs, n, seed, signal_shot_noise)[0]


def p_hearing(
    cfg: "LinkConfig",
    n: int = 100_000,
    seed: int = 1234,
    signal_shot_noise: bool = False,
) -> Estimate:
    """Probability that a transmitted stimulus excites the neurons."""
    return p_hearing_and_damage_batch([cfg], n, seed, signal_shot_noise)[0][0]


def p_damage(cfg: "LinkConfig", n: int = 100_000, seed: int = 1234) -> Estimate:
    """Probability that the delivered count reaches the damage threshold, by
    ``p_hearing``'s estimator; value, err_bound and interval 0 if d_th = inf (disabled)."""
    return p_hearing_and_damage_batch([cfg], n, seed)[0][1]


def p_false_hearing(neural: NeuralParams) -> FalseHearing:
    """Probability of excitation by background alone: both readings, ``closed_form``.

    The count N is an integer, so any threshold y_th > 0 is exact: literal is
    ``Pr(N >= y_th) = P(ceil(y_th), B)``, the lower regularized gamma, free of the
    cancellation in ``1 - Q``; cdf_closed_form is ``Q(floor(y_th) + 1, B)``, the
    Poisson CDF ``Pr(N <= y_th)``.
    """
    y_th, b = neural.y_th, neural.mean_background
    literal = regularized_gamma_p(float(math.ceil(y_th)), b)
    cdf = regularized_gamma_q(math.floor(y_th) + 1.0, b)
    return FalseHearing(Estimate(literal, 0.0, "closed_form"), Estimate(cdf, 0.0, "closed_form"))


@dataclass(frozen=True)
class KpiReport:
    """Full indicator set for one configuration."""

    p_hearing: Estimate
    p_false_hearing: FalseHearing
    p_damage: Estimate
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


def _safety(cfg: "LinkConfig", heard: list, hearing_target: float
            ) -> tuple[float, float, bool, bool, tuple[float, float] | None]:
    """``safety_check``'s 5-tuple from ``heard``, the threshold powers at y_th of its n
    samples that ``_exceedance_pass`` keeps."""
    skin_irr, neuron_irr = _irradiances(cfg, cfg.source.power_tx)
    skin_1w, neuron_1w = _irradiances(cfg, 1.0)
    # A limit whose irradiance is 0 at 1 W (the skin absorbs every photon) never binds.
    x_max = min(cfg.mpe_skin / skin_1w, cfg.mpe_neuron / neuron_1w if neuron_1w else math.inf)

    x = np.fmax(np.concatenate(heard), 0.0)  # NaN and x <= 0 are heard at 0 W
    n, k = x.size, math.ceil(hearing_target * x.size)
    x.partition(k - 1)
    edge = float(x[k - 1])
    # p_hearing at a config set to edge * 1e3 mW, which holds (edge * 1e3) * 1e-3 W
    while edge <= x_max and (n - np.count_nonzero(x > edge * 1e3 * 1e-3)) / n < hearing_target:
        edge = math.nextafter(edge, math.inf)
    dynamic_range = (edge, x_max) if edge <= x_max else None
    return (skin_irr, neuron_irr, skin_irr <= cfg.mpe_skin, neuron_irr <= cfg.mpe_neuron,
            dynamic_range)


def safety_check(
    cfg: "LinkConfig",
    hearing_target: float = 0.9,
    n: int = 50_000,
    seed: int = 1234,
) -> tuple[float, float, bool, bool, tuple[float, float] | None]:
    """Irradiances, exposure verdicts, and the usable transmit-power range.

    The irradiances are ``_irradiances`` at the transmit power. The dynamic
    range is the power interval where ``p_hearing(n, seed)`` meets
    ``hearing_target`` while both exposure verdicts hold, None when empty. Its lower
    edge is the ceil(target n)-th smallest of the ``_threshold_powers`` at y_th that
    ``p_hearing`` counts, 0.0 when the background alone suffices, raised by ulps
    while ``p_hearing`` at that power, read back from milliwatts, misses the target.
    """
    if not 0.0 < hearing_target <= 1.0:
        raise ValueError(f"hearing_target must be in (0, 1], got {hearing_target}")
    return _safety(cfg, _exceedance_pass([cfg], n, seed, count=False, keep=True)[1],
                   hearing_target)


def kpi_report(cfg: "LinkConfig", n: int = 100_000, seed: int = 1234) -> KpiReport:
    """Every indicator for one configuration from one ``_exceedance_pass``: p_hearing and
    p_damage, and the dynamic range at ``safety_check``'s default target of 0.9, on the
    same (n, seed) draws."""
    ((hearing, damage),), heard = _exceedance_pass([cfg], n, seed, keep=True)
    return KpiReport(hearing, p_false_hearing(cfg.neural), damage, *_safety(cfg, heard, 0.9))
