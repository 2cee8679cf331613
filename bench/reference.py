"""Reference values for the link budget, computed without the ``aoci`` package.

Everything here works from the raw unit-suffixed configuration document
(``cfg.to_dict()``) and re-derives the model from its formulas:

* the coupling efficiency eta(r) by ``scipy.integrate.quad`` of the overlap
  integral between the focused Airy field and the displaced Gaussian fiber
  mode (after the angular integral), in units of the mode-field radius w0;
* the average flux as the Rayleigh average of the instantaneous flux Phi(r);
* exceedance probabilities as the Rayleigh measure of the level set
  ``{r : Phi(r) tau (e-1)/e >= threshold}``, taking every crossing (at high
  power the set has ring lobes beyond the main lobe).

``self_check`` pins the routines against closed forms before any timing.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize, special, stats

PLANCK = 6.62607015e-34  # J s
LIGHT = 299792458.0  # m / s
CEILING = 0.8145  # peak zero-misalignment coupling efficiency
# Rayleigh tail mass left out past r = RAYLEIGH_SPAN * sigma: exp(-RAYLEIGH_SPAN^2 / 2).
RAYLEIGH_SPAN = 9.0
LEVEL_SET_GRID = 1500  # eta samples over [0, RAYLEIGH_SPAN sigma] that bracket crossings


class ReferenceError(AssertionError):
    """A reference routine failed its own closed-form check or precondition."""


def _quad(f, lo, hi, points=(), epsrel=1e-12, epsabs=0.0, limit=4000):
    """QUADPACK on [lo, hi]; raises unless the error estimate is below 1e-9.

    The tolerances asked for are tighter than needed; QUADPACK may report
    that roundoff stops it short of them, which is accepted while the
    achieved error stays small.
    """
    inner = sorted({p for p in points if lo < p < hi})
    value, err = integrate.quad(
        f, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=limit,
        points=inner or None, full_output=1,
    )[:2]
    if not err <= 1e-9 * abs(value) + 1e-14:
        raise ReferenceError(f"quadrature on [{lo}, {hi}] reached error {err} for value {value}")
    return value, err


class Link:
    """SI parameters of one configuration, read from the raw document."""

    def __init__(self, doc: dict):
        src, skin, beam = doc["source"], doc["skin"], doc["beam"]
        mem, cp, fib, neu = doc["mem"], doc["coupling"], doc["fiber"], doc["neural"]
        mpe = doc.get("mpe", {})
        self.power = src["power_mw"] * 1e-3
        self.lam = src["lambda_nm"] * 1e-9
        self.delta = skin["delta_mm"] * 1e-3
        self.h_l = math.exp(-(skin["mu_a_per_mm"] + skin["mu_s_per_mm"]) * skin["delta_mm"])
        self.sigma = beam["sigma_s_mm"] * 1e-3
        beta = beam["beta_mm"] * 1e-3
        w = self.delta * math.tan(math.radians(beam["theta_deg"]) / 2.0)
        ups = math.sqrt(math.pi) * beta / (math.sqrt(2.0) * w)
        erf_u = math.erf(ups)
        self.a0 = erf_u * erf_u
        # w_eq^2 = w^2 sqrt(pi) erf(ups) / (2 ups exp(-ups^2)), in log form.
        self.w_eq = w * math.exp(
            0.5 * (math.log(math.sqrt(math.pi) * erf_u / (2.0 * ups)) + ups * ups)
        )
        self.g_c = 1.0 / math.hypot(1.0 - mem["d_in_mm"] / mem["f_mm"], mem["z0_mm"] / mem["f_mm"])
        self.k = 10.0 ** (-fib["bend_db_per_90deg"] * fib["n_quarter_turns"] / 10.0) * (
            1.0 - fib["fbg_fraction_lost"]
        ) ** fib["n_fbg"]
        self.w0 = cp["omega0_mm"] * 1e-3
        d, f = cp["lens_diameter_mm"] * 1e-3, cp["focal_length_mm"] * 1e-3
        self.a = (3.83 * d * self.w0 / (1.22 * self.lam * f)) ** 2
        self.tau = neu["tau_s"]
        self.background = neu["f0_per_s"] * self.tau
        self.y_th = neu["y_th_photons"]
        self.d_th = math.inf if neu["d_th_photons"] is None else neu["d_th_photons"]
        self.window_gain = self.tau * (math.e - 1.0) / math.e
        self.mpe_skin = mpe.get("skin_mw_per_mm2", 500.0) * 1e3  # W/m^2
        self.mpe_neuron = mpe.get("neuron_mw_per_mm2", 75.0) * 1e3
        self.spot = doc["skin_spot_radius_mm"] * 1e-3

    def flux_per_watt(self) -> float:
        """Displacement-free factor of Phi(r) per watt transmitted [photons/s/W]."""
        return self.k * self.g_c * self.h_l * self.a0 * self.lam / (PLANCK * LIGHT)

    def phi(self, r: float, power: float | None = None) -> float:
        """Instantaneous photon flux at displacement r [1/s]."""
        x = self.power if power is None else power
        return x * self.flux_per_watt() * eta(self.a, r / self.w0) * math.exp(
            -2.0 * (r / self.w_eq) ** 2
        )

    def exposure_cap(self) -> float:
        """Largest transmit power [W] that keeps skin and neuron irradiance legal."""
        skin_cap = self.mpe_skin * math.pi * self.spot**2
        chain = self.h_l * self.a0 * self.g_c * eta_zero(self.a) * self.k
        neuron_cap = self.mpe_neuron * math.pi * self.w0**2 / chain
        return min(skin_cap, neuron_cap)


# ---------------------------------------------------------------------------
# Coupling efficiency
# ---------------------------------------------------------------------------


def eta_zero(a: float) -> float:
    """Closed form of eta at zero misalignment, ``2 (1 - e^-a)^2 / a``."""
    return 2.0 * (-math.expm1(-a)) ** 2 / a


@lru_cache(maxsize=None)
def eta(a: float, y: float) -> float:
    """Coupling efficiency at misalignment y = r / w0 (coupling argument a).

    The overlap of the Airy field J1(c rho)/rho with the Gaussian mode
    exp(-|rho - r|^2 / w0^2), after the angular integral, is
    ``2 pi w0 A(y)`` with ``A(y) = int J1(2 sqrt(a) x) exp(-(x-y)^2) I0e(2 x y) dx``.
    Dividing by the two field norms (pi and pi w0^2 / 2) gives
    ``eta = 8 A(y)^2``.
    """
    c = 2.0 * math.sqrt(a)
    lo, hi = max(0.0, y - 10.0), y + 10.0

    def integrand(x):
        return special.j1(c * x) * math.exp(-((x - y) ** 2)) * special.i0e(2.0 * x * y)

    amp, _ = _quad(integrand, lo, hi, points=(y,), epsrel=1e-13, epsabs=1e-17)
    return 8.0 * amp * amp


def coupling_ceiling() -> tuple[float, float]:
    """Maximize eta(r=0) over a using the quadrature route: (a*, eta*)."""
    res = optimize.minimize_scalar(
        lambda a: -eta(float(a), 0.0), bounds=(0.2, 5.0), method="bounded",
        options={"xatol": 1e-9},
    )
    return float(res.x), float(-res.fun)


# ---------------------------------------------------------------------------
# Rayleigh averages and level sets
# ---------------------------------------------------------------------------


def rayleigh_average(g, sigma: float, scale: float) -> float:
    """E[g(r)] for Rayleigh r of parameter sigma.

    ``scale`` is the length over which g varies; the interval is split at
    every multiple of it (and of sigma) so no oscillation is stepped over.
    """
    hi = RAYLEIGH_SPAN * sigma
    step = min(scale, sigma)
    points = tuple(np.arange(1, int(hi / step) + 1) * step) if hi / step < 3000 else ()
    value, _ = _quad(
        lambda r: g(r) * (r / (sigma * sigma)) * math.exp(-0.5 * (r / sigma) ** 2),
        0.0, hi, points=points + (sigma,), epsrel=1e-11,
    )
    return value


def mean_flux(link: Link) -> float:
    """Average flux as the Rayleigh average of Phi(r) [1/s]."""
    return rayleigh_average(link.phi, link.sigma, link.w0)


def pointing_average(link: Link) -> float:
    """E[A0 exp(-2 r^2 / w_eq^2)] by the Rayleigh-average routine."""
    return rayleigh_average(
        lambda r: link.a0 * math.exp(-2.0 * (r / link.w_eq) ** 2), link.sigma, link.w_eq
    )


def pointing_average_closed(link: Link) -> float:
    return link.a0 * link.w_eq**2 / (link.w_eq**2 + 4.0 * link.sigma**2)


@lru_cache(maxsize=8)
def _eta_grid(a: float, y_max: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    ys = np.linspace(0.0, y_max, points)
    return ys, np.array([eta(a, float(y)) for y in ys])


def level_set(link: Link, threshold: float, power: float | None = None) -> float:
    """Rayleigh measure of {r : Phi(r) tau (e-1)/e >= threshold}.

    Sign changes are bracketed on a grid of eta over [0, RAYLEIGH_SPAN sigma]
    (finer than a tenth of the ring period) and each crossing is refined by
    Brent's method on the exact integrand.
    """
    x = link.power if power is None else power
    scale = x * link.flux_per_watt() * link.window_gain
    w0, sigma = link.w0, link.sigma
    ys, etas = _eta_grid(link.a, RAYLEIGH_SPAN * sigma / w0, LEVEL_SET_GRID)
    if ys[1] > 0.1:
        raise ReferenceError("level-set grid too coarse for the ring period")
    rs = ys * w0
    excess = scale * etas * np.exp(-2.0 * (rs / link.w_eq) ** 2) - threshold

    def f(r):
        return scale * eta(link.a, r / w0) * math.exp(-2.0 * (r / link.w_eq) ** 2) - threshold

    survival = lambda r: math.exp(-0.5 * (r / sigma) ** 2)
    inside = excess[0] >= 0.0
    start = 0.0
    measure = 0.0
    for i in np.flatnonzero(np.signbit(excess[1:]) != np.signbit(excess[:-1])):
        root = optimize.brentq(f, rs[i], rs[i + 1], xtol=1e-16, rtol=1e-14)
        if inside:
            measure += survival(start) - survival(root)
        inside = not inside
        start = root
    if inside:
        measure += survival(start)
    return measure


def count_threshold_negligible(link: Link, threshold: float) -> None:
    """The Poisson background must be negligible against the threshold."""
    reach = link.background + 40.0 * math.sqrt(link.background) + 40.0
    if not reach < 1e-9 * threshold:
        raise ReferenceError(
            f"background count {link.background} is not negligible against {threshold}"
        )


def hearing_probability(link: Link, power: float | None = None) -> float:
    count_threshold_negligible(link, link.y_th)
    return level_set(link, link.y_th, power)


def damage_probability(link: Link, power: float | None = None) -> float:
    if math.isinf(link.d_th):
        return 0.0
    count_threshold_negligible(link, link.d_th)
    return level_set(link, link.d_th, power)


def shot_noise_interval(link: Link) -> tuple[float, float]:
    """Bounds on Pr(Poisson(S(r) + B) >= y_th) over Rayleigh r.

    A Poisson count of mean m lies within m +- 12 sqrt(m) except with
    probability below 1e-30, so the exceedance lies between the level sets
    at y_th + 12 sqrt(y_th) and y_th - 12 sqrt(y_th), widened by the
    background count.
    """
    count_threshold_negligible(link, link.y_th)
    margin = 12.0 * math.sqrt(link.y_th) + link.background + 40.0
    return level_set(link, link.y_th + margin), level_set(link, link.y_th - margin)


def binomial_consistent(hits: int, n: int, p_lo: float, p_hi: float, alpha: float) -> bool:
    """True unless hits/n is outside the two-sided level-alpha binomial range."""
    too_few = stats.binom.cdf(hits, n, p_lo) < alpha / 2.0
    too_many = stats.binom.sf(hits - 1, n, p_hi) < alpha / 2.0
    return not (too_few or too_many)


def order_statistic_range(n: int, target: float, alpha: float) -> tuple[float, float]:
    """Range of F(r_(k)), k = ceil(target n), at two-sided level alpha (Beta law)."""
    k = math.ceil(target * n - 1e-9)
    law = stats.beta(k, n + 1 - k)
    return float(law.ppf(alpha / 2.0)), float(law.isf(alpha / 2.0))


def rayleigh_quantile(sigma: float, q: float) -> float:
    return sigma * math.sqrt(-2.0 * math.log1p(-q))


def normal_quantile(alpha: float) -> float:
    """Two-sided z for level alpha."""
    return float(stats.norm.isf(alpha / 2.0))


# ---------------------------------------------------------------------------
# Closed-form self-check
# ---------------------------------------------------------------------------


def self_check(doc: dict) -> None:
    """Pin the reference routines against closed forms; raise on mismatch."""
    for a in (0.3, 1.2564, 4.0):
        got, want = eta(a, 0.0), eta_zero(a)
        if not abs(got - want) <= 1e-12:
            raise ReferenceError(f"eta(0) quadrature {got!r} != closed form {want!r} at a={a}")
    a_star, eta_star = coupling_ceiling()
    if not abs(eta_star - CEILING) <= 5e-4:
        raise ReferenceError(f"coupling ceiling {eta_star} at a={a_star} is not {CEILING} +- 5e-4")
    link = Link(doc)
    for sigma_mm in (0.02, 0.1, 1.0):
        link.sigma = sigma_mm * 1e-3
        got, want = pointing_average(link), pointing_average_closed(link)
        if not abs(got - want) <= 1e-10 * want:
            raise ReferenceError(
                f"pointing average {got!r} != closed form {want!r} at sigma={sigma_mm} mm"
            )
