"""End-to-end signal chain: received photon flux and its Rayleigh average.

The optical power reaching the cochlear neurons for a pointing displacement
r is ``y4 = k eta(r) G_c h_l h_p(r) x``, converted to photon flux by
``Phi = lambda / (h c) * y4`` with exact SI constants. The figure of merit is
the average flux over the Rayleigh-distributed displacement, computable by
three mutually validating routes:

* ``mean_flux_quadrature`` -- adaptive quadrature of the flux-weighted
                              Rayleigh integrand (valid in every regime;
                              the default route; ``mean_flux_quadrature_batch``
                              runs many configs in one quadrature);
* ``mean_flux_series``     -- closed form via the quadruple hypergeometric
                              series (fails loudly outside its
                              convergence envelope);
* ``mean_flux_mc``         -- seeded Monte Carlo over displacement samples.

``mean_flux`` runs exactly the route it is asked for: a route that cannot
deliver raises its ``NumericalError`` instead of handing over to another.

Counts vs rates: flux lives in photons/second; threshold logic elsewhere
multiplies by the response-window integration factor ``tau (e-1)/e`` to get
photon counts over one neural response window, the only domain where the
deterministic signal and the Poisson background are commensurable.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from aoci import channel, optics
from aoci.specfun import (  # integrate_semi_infinite stays importable for bench/tracing.py
    QuadControl,
    QuadratureExhaustedError,
    SeriesControl,
    _f4_eval,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
)
from aoci.stochastics import RngStream, sample_rayleigh

if TYPE_CHECKING:
    from aoci.config import LinkConfig

__all__ = [
    "PLANCK_CONSTANT",
    "SPEED_OF_LIGHT",
    "SourceParams",
    "NeuralParams",
    "ChannelState",
    "FluxEstimate",
    "derive_state",
    "received_flux_at",
    "received_flux_batch",
    "mean_flux_series",
    "mean_flux_quadrature",
    "mean_flux_quadrature_batch",
    "mean_flux_mc",
    "mean_flux",
    "response_window_gain",
    "link_budget",
]

# Exact SI values (2019 redefinition).
PLANCK_CONSTANT = 6.62607015e-34  # J s
SPEED_OF_LIGHT = 299792458.0  # m / s

MC_BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class SourceParams:
    """Light-source emission: optical power [W] and wavelength [m]."""

    power_tx: float
    lam: float

    def __post_init__(self) -> None:
        if self.power_tx < 0.0 or not math.isfinite(self.power_tx):
            raise ValueError(f"SourceParams.power_tx must be >= 0, got {self.power_tx}")
        if not (self.lam > 0.0):
            raise ValueError(f"SourceParams.lam must be > 0, got {self.lam}")
        if not (300e-9 <= self.lam <= 1000e-9):
            warnings.warn(
                f"wavelength {self.lam * 1e9:.0f} nm is outside the 300-1000 nm "
                "range the skin-optics abstraction targets",
                stacklevel=3,
            )


@dataclass(frozen=True)
class NeuralParams:
    """Neural response constants.

    f0: background fluorescence photon rate [1/s]; tau: response/relaxation
    window [s]; y_th / d_th: excitation and damage thresholds in photon
    counts over one response window (d_th may be inf to disable).
    """

    f0: float
    tau: float
    y_th: float
    d_th: float

    def __post_init__(self) -> None:
        if self.f0 < 0.0:
            raise ValueError(f"NeuralParams.f0 must be >= 0, got {self.f0}")
        if not (self.tau > 0.0):
            raise ValueError(f"NeuralParams.tau must be > 0, got {self.tau}")
        if not (0.0 < self.y_th < self.d_th):
            raise ValueError(
                f"NeuralParams thresholds must satisfy 0 < y_th < d_th, "
                f"got y_th={self.y_th}, d_th={self.d_th}"
            )

    @property
    def mean_background(self) -> float:
        """Mean background count over one response window, ``f0 * tau``."""
        return self.f0 * self.tau


@dataclass(frozen=True)
class ChannelState:
    """Deterministic quantities derived once per configuration."""

    h_l: float  # transdermal path gain
    w_delta: float  # beam radius at the implant plane [m]
    upsilon: float  # aperture-to-beam ratio
    w_eq: float  # equivalent beamwidth [m]
    a0: float  # peak collection fraction
    g_c: float  # collimation gain
    k: float  # fiber propagation efficiency
    coupling_argument: float  # dimensionless a of the coupling closed form
    photons_per_joule: float  # lambda / (h c)


def derive_state(cfg: "LinkConfig") -> ChannelState:
    """Compute every config-fixed factor of the signal chain."""
    stats = channel.beam_stats(cfg.beam, cfg.skin.delta)
    return ChannelState(
        h_l=channel.path_gain(cfg.skin),
        w_delta=stats.w_delta,
        upsilon=stats.upsilon,
        w_eq=stats.w_eq,
        a0=stats.a0,
        g_c=optics.collimation_gain(cfg.mem),
        k=optics.fiber_efficiency(cfg.fiber),
        coupling_argument=cfg.coupling.coupling_argument,
        photons_per_joule=cfg.source.lam / (PLANCK_CONSTANT * SPEED_OF_LIGHT),
    )


@dataclass(frozen=True)
class FluxEstimate:
    """A flux value with its method tag and error bound.

    err_bound is a truncation bound (series), an absolute quadrature error
    estimate (quadrature), or one standard error (monte_carlo). n_samples
    and seed are present exactly for monte_carlo results.
    """

    value: float
    method: str
    err_bound: float
    n_samples: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.method not in ("series", "quadrature", "monte_carlo"):
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.value < 0.0:
            raise ValueError(f"flux must be >= 0, got {self.value}")
        if self.err_bound < 0.0:
            raise ValueError(f"err_bound must be >= 0, got {self.err_bound}")
        is_mc = self.method == "monte_carlo"
        if is_mc != (self.n_samples is not None) or is_mc != (self.seed is not None):
            raise ValueError("n_samples and seed are present exactly for monte_carlo")


def _deterministic_prefactor(cfg: "LinkConfig", state: ChannelState) -> float:
    """Everything in Phi(r) that does not depend on the displacement."""
    return (
        state.k
        * state.g_c
        * state.h_l
        * state.photons_per_joule
        * cfg.source.power_tx
    )


def received_flux_at(r: float, cfg: "LinkConfig") -> float:
    """Instantaneous photon flux [1/s] at pointing displacement r.

    ``Phi(r) = k eta(r) G_c h_l h_p(r) (lambda / h c) x``, evaluated by
    ``received_flux_batch`` on the one displacement.
    """
    return float(received_flux_batch(np.array([r], dtype=np.float64), cfg)[0])


def received_flux_batch(
    r: np.ndarray, cfg: "LinkConfig", eta: np.ndarray | None = None,
    h_p: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized ``Phi(r)`` over an array of displacements.

    Takes the coupling efficiency from the cached piecewise kernel of the
    overlap integral (``optics.coupling_eta_batch``), which is valid for
    every displacement (the series route is not). A caller that already holds
    ``coupling_eta_batch(cfg.coupling, r)`` passes it as ``eta``, and one that
    holds ``channel.pointing_gain(cfg.state.a0, cfg.state.w_eq, r)`` as ``h_p``.
    """
    state = cfg.state
    r = np.asarray(r, dtype=np.float64)
    if eta is None:
        eta = optics.coupling_eta_batch(cfg.coupling, r)
    if h_p is None:
        h_p = channel.pointing_gain(state.a0, state.w_eq, r)
    return _deterministic_prefactor(cfg, state) * eta * h_p


def _exposure_rate(cfg: "LinkConfig", state: ChannelState) -> float:
    """Combined Gaussian decay rate ``2/w0^2 + 2/w_eq^2 + 1/(2 sigma_s^2)``."""
    w0 = cfg.coupling.omega0
    return (
        2.0 / (w0 * w0)
        + 2.0 / (state.w_eq * state.w_eq)
        + 1.0 / (2.0 * cfg.beam.sigma_s * cfg.beam.sigma_s)
    )


def mean_flux_series(cfg: "LinkConfig", ctl: SeriesControl | None = None) -> FluxEstimate:
    """Average flux by the closed-form quadruple hypergeometric series.

    The Rayleigh average of ``Phi(r)`` evaluates to

        Phi_bar = k G_c h_l (lambda/hc) x A0 (3.83 sqrt2 D w0 / 1.22 lambda F)^2
                  / (2 sigma_s^2 S) * F4(-a, -a, Y, Y)

    with ``S`` the combined Gaussian decay rate and ``Y = (1/w0^2)/S < 1/2``.
    Near ``2Y -> 1`` (displacement spread far wider than the fiber mode) the
    series needs more terms than the index cap allows and a
    ``SeriesConvergenceError`` escapes; ``mean_flux_quadrature`` covers that
    regime.
    """
    ctl = ctl or cfg.series_ctl
    state = cfg.state
    cp = cfg.coupling
    s_rate = _exposure_rate(cfg, state)
    y = (1.0 / (cp.omega0 * cp.omega0)) / s_rate
    a = state.coupling_argument

    f4, f4_err = _f4_eval(-a, y, ctl)
    q = 3.83 * math.sqrt(2.0) * cp.lens_diameter * cp.omega0 / (1.22 * cp.lam * cp.focal_length)
    sigma_sq = cfg.beam.sigma_s * cfg.beam.sigma_s
    prefactor = _deterministic_prefactor(cfg, state) * state.a0 * q * q / (2.0 * sigma_sq * s_rate)
    return FluxEstimate(
        value=max(prefactor * f4, 0.0),
        method="series",
        err_bound=abs(prefactor) * f4_err,
    )


def mean_flux_quadrature(cfg: "LinkConfig", ctl: QuadControl | None = None) -> FluxEstimate:
    """Average flux by adaptive quadrature of ``Phi(r) f_r(r)`` over (0, inf).

    The default route: valid for every parameter regime. The integrand
    combines the narrow coupling response (scale ~w0) with the Rayleigh
    envelope (scale sigma_s); both scales are passed to the quadrature as
    breakpoints so neither can be stepped over. This is
    ``mean_flux_quadrature_batch`` on one config (with ``ctl`` as its ``quad_ctl``).
    """
    (est,) = mean_flux_quadrature_batch([cfg if ctl is None else replace(cfg, quad_ctl=ctl)])
    if isinstance(est, QuadratureExhaustedError):
        raise est
    return est


def mean_flux_quadrature_batch(
    cfgs: Sequence["LinkConfig"],
) -> list[FluxEstimate | QuadratureExhaustedError]:
    """``mean_flux_quadrature`` of many configs in one adaptive quadrature.

    ``Phi(r)`` is the point's ``_deterministic_prefactor`` times an integrand fixed by
    (coupling, sigma_s, a0, w_eq, quad_ctl), so each distinct integrand is integrated
    once (a power axis adds none) and scaled by each point's own prefactor. Each node
    carries the index of its integrand, which selects its beam and Rayleigh constants;
    eta comes from one ``coupling_eta_batch`` call per distinct ``CouplingParams`` per
    pass, at most ``optics.COUPLING_KERNELS`` of them a batch, so no kernel is evicted
    and rebuilt mid-batch. Each point gets bitwise its lone estimate, or the
    ``QuadratureExhaustedError`` its lone call raises.
    """
    index: dict = {}
    kernel = np.array([index.setdefault(cfg.coupling, len(index)) for cfg in cfgs], dtype=np.intp)
    couplings, step = list(index), optics.COUPLING_KERNELS
    if len(couplings) > step:
        groups = [np.flatnonzero(kernel // step == g) for g in range(kernel.max() // step + 1)]
        ests = {i: est for at in groups
                for i, est in zip(at, mean_flux_quadrature_batch([cfgs[i] for i in at]))}
        return [ests[i] for i in range(len(cfgs))]
    keys = [(c.coupling, c.beam.sigma_s, c.state.a0, c.state.w_eq, c.quad_ctl) for c in cfgs]
    first: dict = {}  # integrand -> the index of its first config
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    distinct, distinct_kernel = [cfgs[i] for i in first.values()], kernel[list(first.values())]
    sigma, a0, w_eq = np.array([(c.beam.sigma_s, c.state.a0, c.state.w_eq)  # (0, 3) for none
                                for c in distinct]).reshape(-1, 3).T

    def integrand(r: np.ndarray, owner: np.ndarray) -> np.ndarray:
        eta, codes = np.empty_like(r), distinct_kernel[owner]
        for k in np.flatnonzero(np.bincount(codes, minlength=len(couplings))):
            at = codes == k
            eta[at] = optics.coupling_eta_batch(couplings[k], r[at])
        h_p = channel.pointing_gain(a0[owner], w_eq[owner], r)
        return eta * h_p * channel.rayleigh_pdf(sigma[owner], r)

    breakpoints = [(1.0 / math.sqrt(_exposure_rate(cfg, cfg.state)), s, 2.0 * s)
                   for cfg, s in zip(distinct, sigma.tolist())]
    integrals = dict(zip(first, integrate_semi_infinite_batch(
        integrand, sigma.tolist(), [cfg.quad_ctl for cfg in distinct], breakpoints)))
    prefactors = [_deterministic_prefactor(cfg, cfg.state) for cfg in cfgs]
    return [result if isinstance(result, QuadratureExhaustedError) else FluxEstimate(
        value=max(p * result[0], 0.0), method="quadrature", err_bound=abs(p) * result[1])
        for p, result in zip(prefactors, map(integrals.__getitem__, keys))]


def _draw_block(
    seed: int, block: int, count: int, sigma_s: float, coupling: optics.CouplingParams
) -> tuple[np.ndarray, np.ndarray]:
    """Block ``block``'s displacements r (stream (seed, 2 block)) and eta(r), read-only."""
    r = sample_rayleigh(RngStream(seed, 2 * block), sigma_s, count)
    eta = optics.coupling_eta_batch(coupling, r)
    r.flags.writeable = eta.flags.writeable = False
    return r, eta


def mean_flux_mc(cfg: "LinkConfig", n: int, seed: int) -> FluxEstimate:
    """Average flux by seeded Monte Carlo over Rayleigh displacements.

    Samples come in fixed blocks of 2^16 from ``_draw_block`` (uncached: no
    caller repeats a request), the blocks the exceedance estimator draws, so
    the estimate does not depend on how workers split the blocks. err_bound
    is one standard error of the mean, from per-block centred sums of squares
    merged by Chan, Golub and LeVeque's update.
    """
    ints = all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (n, seed))
    if not (ints and n >= 1000 and seed >= 0):
        raise ValueError(f"need an int n >= 1000 and an int seed >= 0, got n={n!r}, seed={seed!r}")
    n, seed = int(n), int(seed)

    total = 0.0
    running_mean = 0.0
    sum_sq_dev = 0.0
    produced = 0
    for block, start in enumerate(range(0, n, MC_BLOCK_SIZE)):
        count = min(MC_BLOCK_SIZE, n - start)
        r, eta = _draw_block(seed, block, count, cfg.beam.sigma_s, cfg.coupling)
        phi = received_flux_batch(r, cfg, eta=eta)
        del r, eta  # not held through the next block's draw
        block_total = float(np.sum(phi))
        total += block_total
        block_mean = block_total / count
        delta = block_mean - running_mean
        merged = produced + count
        running_mean += delta * count / merged
        sum_sq_dev += float(np.sum((phi - block_mean) ** 2))
        sum_sq_dev += delta * delta * produced * count / merged
        produced = merged

    mean = total / n
    stderr = math.sqrt(sum_sq_dev / n / n)
    return FluxEstimate(
        value=max(mean, 0.0),
        method="monte_carlo",
        err_bound=stderr,
        n_samples=n,
        seed=seed,
    )


def mean_flux(
    cfg: "LinkConfig",
    method: str = "quadrature",
    n: int = 1_000_000,
    seed: int = 1234,
) -> FluxEstimate:
    """Average flux by the requested route: quadrature, series or mc (monte_carlo).

    The route either returns its estimate or raises its ``NumericalError``;
    no route falls back to another.
    """
    if method == "series":
        return mean_flux_series(cfg)
    if method == "quadrature":
        return mean_flux_quadrature(cfg)
    if method in ("mc", "monte_carlo"):
        return mean_flux_mc(cfg, n=n, seed=seed)
    raise ValueError(f"unknown method {method!r}")


def response_window_gain(tau: float) -> float:
    """Signal-count integration factor over one response window, ``tau (e-1)/e``."""
    if not (tau > 0.0):
        raise ValueError(f"tau must be > 0, got {tau}")
    return tau * (math.e - 1.0) / math.e


def link_budget(cfg: "LinkConfig", flux: FluxEstimate) -> float:
    """Mean photon count over one response window: ``Phi_bar tau (e-1)/e + B_bar``."""
    return flux.value * response_window_gain(cfg.neural.tau) + cfg.neural.mean_background
