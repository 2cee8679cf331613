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
* ``mean_flux_mc``         -- seeded Monte Carlo over displacement samples,
                              in blocks of 2^16 streamed through chunks of
                              2^13 drawn from one generator per block.

``mean_flux`` runs exactly the route it is asked for: a route that cannot
deliver raises its ``NumericalError`` instead of handing over to another.

Every route returns an ``Estimate`` (value, error bound, route tag), the one type
of every number the package emits: ``link_budget`` and ``aoci.kpi``'s too.

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
    QuadratureExhaustedError,
    _f4_eval,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
)
from aoci.stochastics import RngStream, rayleigh_chunks

if TYPE_CHECKING:
    from aoci.config import LinkConfig

__all__ = [
    "PLANCK_CONSTANT",
    "SPEED_OF_LIGHT",
    "SourceParams",
    "NeuralParams",
    "ChannelState",
    "Estimate",
    "derive_state",
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
MC_CHUNK = 1 << 13  # samples a block streams through at once: 64 KiB float64 temporaries
MC_MIN_SAMPLES = 1000


def _ints(*values) -> bool:
    """Whether every value is an int, numpy's too, and not a bool: a Monte Carlo n or seed."""
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values)


def _mc_blocks(n: int, seed: int, floor: int) -> tuple[int, int, list[int]]:
    """A Monte Carlo request's n and seed as plain ints and its block sizes; a ValueError
    unless both are ``_ints``, n >= ``floor`` and seed >= 0."""
    if not (_ints(n, seed) and n >= floor and seed >= 0):
        raise ValueError(
            f"need an int n >= {floor} and an int seed >= 0, got n={n!r}, seed={seed!r}")
    n, seed = int(n), int(seed)
    return n, seed, [min(MC_BLOCK_SIZE, n - start) for start in range(0, n, MC_BLOCK_SIZE)]


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

    @property
    def flux_per_watt(self) -> float:
        """Everything in Phi(r) at 1 W transmitted that does not depend on the displacement."""
        return self.k * self.g_c * self.h_l * self.photons_per_joule


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


@dataclass(frozen=True, slots=True)
class Estimate:
    """A number the package emits, tagged by the route that made it: ``series``,
    ``quadrature``, ``monte_carlo`` (with its n_samples and seed) or ``closed_form``.
    err_bound is a truncation bound (series), an absolute quadrature error estimate
    (quadrature), one standard error (a Monte Carlo flux), half the width of the Wilson
    95% ``interval`` (a Monte Carlo probability), or 0.0 (closed_form)."""

    value: float
    err_bound: float
    method: str
    n_samples: int | None = None
    seed: int | None = None
    interval: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.method not in ("series", "quadrature", "monte_carlo", "closed_form"):
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.value < 0.0:
            raise ValueError(f"value must be >= 0, got {self.value}")
        if self.err_bound < 0.0:
            raise ValueError(f"err_bound must be >= 0, got {self.err_bound}")
        is_mc = self.method == "monte_carlo"
        if is_mc != (self.n_samples is not None) or is_mc != (self.seed is not None) or (
                self.interval is not None and not is_mc):
            raise ValueError("n_samples and seed are present exactly for monte_carlo, "
                             "and an interval only there")

    def __iter__(self):
        """(value, err_bound, method, n_samples, seed), as the benchmark's ``kpi_safety``
        workload unpacks its shot-noise ``p_hearing``; this goes when that part does."""
        return iter((self.value, self.err_bound, self.method, self.n_samples, self.seed))


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
    The result is a new array, which the caller may overwrite.
    """
    state = cfg.state
    r = np.asarray(r, dtype=np.float64)
    if eta is None:
        eta = optics.coupling_eta_batch(cfg.coupling, r)
    if h_p is None:
        h_p = channel.pointing_gain(state.a0, state.w_eq, r)
    return state.flux_per_watt * cfg.source.power_tx * eta * h_p


def _exposure_rate(cfg: "LinkConfig", state: ChannelState) -> float:
    """Combined Gaussian decay rate ``2/w0^2 + 2/w_eq^2 + 1/(2 sigma_s^2)``."""
    w0 = cfg.coupling.omega0
    return (
        2.0 / (w0 * w0)
        + 2.0 / (state.w_eq * state.w_eq)
        + 1.0 / (2.0 * cfg.beam.sigma_s * cfg.beam.sigma_s)
    )


def mean_flux_series(cfg: "LinkConfig") -> Estimate:
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
    state = cfg.state
    cp = cfg.coupling
    s_rate = _exposure_rate(cfg, state)
    y = (1.0 / (cp.omega0 * cp.omega0)) / s_rate
    a = state.coupling_argument

    f4, f4_err = _f4_eval(-a, y)
    q = 3.83 * math.sqrt(2.0) * cp.lens_diameter * cp.omega0 / (1.22 * cp.lam * cp.focal_length)
    sigma_sq = cfg.beam.sigma_s * cfg.beam.sigma_s
    prefactor = (state.flux_per_watt * cfg.source.power_tx * state.a0 * q * q
                 / (2.0 * sigma_sq * s_rate))
    return Estimate(
        value=max(prefactor * f4, 0.0),
        err_bound=abs(prefactor) * f4_err,
        method="series",
    )


def mean_flux_quadrature(cfg: "LinkConfig") -> Estimate:
    """Average flux by adaptive quadrature of ``Phi(r) f_r(r)`` over (0, inf).

    The default route: valid for every parameter regime. The integrand
    combines the narrow coupling response (scale ~w0) with the Rayleigh
    envelope (scale sigma_s); both scales are passed to the quadrature as
    breakpoints so neither can be stepped over. This is
    ``mean_flux_quadrature_batch`` on one config.
    """
    (est,) = mean_flux_quadrature_batch([cfg])
    if isinstance(est, QuadratureExhaustedError):
        raise est
    return est


def mean_flux_quadrature_batch(
    cfgs: Sequence["LinkConfig"],
) -> list[Estimate | QuadratureExhaustedError]:
    """``mean_flux_quadrature`` of many configs in one adaptive quadrature.

    ``Phi(r)`` is the point's ``flux_per_watt`` times its power times an integrand fixed by
    (coupling, sigma_s, a0, w_eq), so each distinct integrand is integrated
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
    slots: dict = {}  # integrand, with its kernel code for the coupling -> its index
    slot = [slots.setdefault((k, c.beam.sigma_s, c.state.a0, c.state.w_eq), len(slots))
            for k, c in zip(kernel.tolist(), cfgs)]
    firsts = np.unique(slot, return_index=True)[1]  # each integrand's first config
    distinct, distinct_kernel = [cfgs[i] for i in firsts], kernel[firsts]
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
    integrals = integrate_semi_infinite_batch(integrand, sigma.tolist(), breakpoints)
    prefactors = [cfg.state.flux_per_watt * cfg.source.power_tx for cfg in cfgs]
    return [result if isinstance(result, QuadratureExhaustedError) else Estimate(
        value=max(p * result[0], 0.0), err_bound=abs(p) * result[1], method="quadrature")
        for p, result in zip(prefactors, map(integrals.__getitem__, slot))]


def _block_chunks(
    seed: int, block: int, count: int, sigma_s: float, coupling: optics.CouplingParams
):
    """Block ``block``'s displacements r and eta(r), ``MC_CHUNK`` samples at a time.

    Yields (the chunk's slice of the block, r, eta(r)). The chunks are
    ``rayleigh_chunks`` of stream (seed, 2 block), one generator for the block.
    """
    chunks = rayleigh_chunks(RngStream(seed, 2 * block), sigma_s, count, MC_CHUNK)
    for start, r in zip(range(0, count, MC_CHUNK), chunks):
        yield slice(start, start + r.size), r, optics.coupling_eta_batch(coupling, r)


def _draw_block(
    seed: int, block: int, count: int, sigma_s: float, coupling: optics.CouplingParams
) -> tuple[np.ndarray, np.ndarray]:
    """Block ``block``'s r and eta(r), read-only: ``_block_chunks`` gathered in two arrays."""
    r, eta = np.empty(count), np.empty(count)
    for at, r_chunk, eta_chunk in _block_chunks(seed, block, count, sigma_s, coupling):
        r[at], eta[at] = r_chunk, eta_chunk
    r.flags.writeable = eta.flags.writeable = False
    return r, eta


def mean_flux_mc(cfg: "LinkConfig", n: int, seed: int) -> Estimate:
    """Average flux by seeded Monte Carlo over Rayleigh displacements.

    Samples come in fixed blocks of 2^16, the blocks the exceedance estimator
    draws, so the estimate does not depend on how workers split the blocks.
    Each block streams through ``_block_chunks`` (uncached: no caller repeats a
    request), and each chunk's Phi goes into one block-sized buffer allocated
    once per call, so every temporary is a 64 KiB chunk the heap recycles.
    err_bound is one standard error of the mean, from per-block centred sums of
    squares merged by Chan, Golub and LeVeque's update.
    """
    n, seed, counts = _mc_blocks(n, seed, MC_MIN_SAMPLES)
    total = 0.0
    running_mean = 0.0
    sum_sq_dev = 0.0
    produced = 0
    buffer = np.empty(counts[0])
    for block, count in enumerate(counts):
        phi = buffer[:count]
        for at, r, eta in _block_chunks(seed, block, count, cfg.beam.sigma_s, cfg.coupling):
            phi[at] = received_flux_batch(r, cfg, eta=eta)
        block_total = float(np.sum(phi))
        total += block_total
        block_mean = block_total / count
        delta = block_mean - running_mean
        merged = produced + count
        running_mean += delta * count / merged
        phi -= block_mean
        sum_sq_dev += float(np.sum(np.square(phi, out=phi)))
        sum_sq_dev += delta * delta * produced * count / merged
        produced = merged

    mean = total / n
    stderr = math.sqrt(sum_sq_dev / n / n)
    return Estimate(
        value=max(mean, 0.0),
        err_bound=stderr,
        method="monte_carlo",
        n_samples=n,
        seed=seed,
    )


def mean_flux(
    cfg: "LinkConfig",
    method: str = "quadrature",
    n: int = 1_000_000,
    seed: int = 1234,
) -> Estimate:
    """Average flux by the requested route: quadrature, series or mc.

    The route either returns its estimate or raises its ``NumericalError``;
    no route falls back to another.
    """
    if method == "series":
        return mean_flux_series(cfg)
    if method == "quadrature":
        return mean_flux_quadrature(cfg)
    if method == "mc":
        return mean_flux_mc(cfg, n=n, seed=seed)
    raise ValueError(f"unknown method {method!r}")


def response_window_gain(tau: float) -> float:
    """Signal-count integration factor over one response window, ``tau (e-1)/e``."""
    if not (tau > 0.0):
        raise ValueError(f"tau must be > 0, got {tau}")
    return tau * (math.e - 1.0) / math.e


def link_budget(cfg: "LinkConfig", flux: Estimate) -> Estimate:
    """Mean photon count over one response window, ``Phi_bar tau (e-1)/e + B_bar``, by
    ``flux``'s route: its err_bound scaled by the window gain ``tau (e-1)/e``."""
    gain = response_window_gain(cfg.neural.tau)
    return replace(flux, value=flux.value * gain + cfg.neural.mean_background,
                   err_bound=flux.err_bound * gain)
