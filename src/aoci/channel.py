"""Transdermal path gain and pointing-error beam geometry.

Deterministic channel pieces of the link: Beer-Lambert attenuation through
the skin, the equivalent-beamwidth model for the fraction of a Gaussian beam
collected by a circular aperture under radial misalignment, and the Rayleigh
law of that misalignment. All quantities are SI (meters, 1/meters).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "SkinParams",
    "BeamGeometry",
    "BeamStats",
    "path_gain",
    "beam_stats",
    "pointing_gain",
    "rayleigh_pdf",
]

_SQRT_PI = math.sqrt(math.pi)
_LOG_MAX_DOUBLE = math.log(1.7976931348623157e308)


@dataclass(frozen=True)
class SkinParams:
    """Skin optical properties: thickness [m], attenuation and scattering [1/m]."""

    delta: float
    mu_a: float
    mu_s: float

    def __post_init__(self) -> None:
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"SkinParams.delta must be positive, got {self.delta}")
        if self.mu_a < 0.0 or self.mu_s < 0.0:
            raise ValueError(
                f"SkinParams coefficients must be >= 0, got mu_a={self.mu_a}, mu_s={self.mu_s}"
            )
        if not (1.0e-3 <= self.delta <= 2.0e-2):
            warnings.warn(
                f"skin thickness {self.delta * 1e3:.2f} mm is outside the "
                "1-20 mm range the model is intended for",
                stacklevel=3,
            )


@dataclass(frozen=True)
class BeamGeometry:
    """Source divergence and receiver-side pointing geometry.

    theta is the full divergence angle [rad]; beta the circular aperture
    radius of the receiving lens [m]; sigma_s the standard deviation of the
    radial displacement between beam center and aperture center [m].
    """

    theta: float
    beta: float
    sigma_s: float

    def __post_init__(self) -> None:
        if not (0.0 < self.theta < math.pi):
            raise ValueError(f"BeamGeometry.theta must be in (0, pi), got {self.theta}")
        if not (self.beta > 0.0):
            raise ValueError(f"BeamGeometry.beta must be > 0, got {self.beta}")
        if not (self.sigma_s > 0.0):
            raise ValueError(f"BeamGeometry.sigma_s must be > 0, got {self.sigma_s}")


class BeamStats(NamedTuple):
    """Derived beam quantities at the implant plane."""

    w_delta: float  # beam radius after spreading over the skin [m]
    upsilon: float  # aperture-to-beam ratio sqrt(pi) beta / (sqrt(2) w_delta)
    w_eq: float  # equivalent beamwidth of the collected-power profile [m]
    a0: float  # peak collection fraction at zero misalignment


def path_gain(skin: SkinParams) -> float:
    """Deterministic transdermal gain ``exp(-(mu_a + mu_s) * delta)``."""
    return math.exp(-(skin.mu_a + skin.mu_s) * skin.delta)


def beam_stats(geom: BeamGeometry, delta: float) -> BeamStats:
    """Beam radius, aperture ratio, equivalent beamwidth and peak collection.

    The collected fraction of a Gaussian beam of radius ``w_delta`` through a
    circular aperture of radius ``beta`` displaced by r is approximated by
    ``A0 exp(-2 r^2 / w_eq^2)`` with

        w_delta = delta * tan(theta / 2)
        upsilon = sqrt(pi) * beta / (sqrt(2) * w_delta)
        A0      = erf(upsilon)^2
        w_eq^2  = w_delta^2 * sqrt(pi) * erf(upsilon) / (2 upsilon exp(-upsilon^2))

    For upsilon -> 0 the ratio tends to 1 and w_eq -> w_delta; for large
    upsilon (aperture much wider than the beam) w_eq grows like
    exp(upsilon^2 / 2), so w_eq is evaluated in log space and a ValueError is
    raised if it would exceed the double range.
    """
    if not (delta > 0.0):
        raise ValueError(f"delta must be > 0, got {delta}")
    w_delta = delta * math.tan(geom.theta / 2.0)
    upsilon = _SQRT_PI * geom.beta / (math.sqrt(2.0) * w_delta)
    erf_u = math.erf(upsilon)
    a0 = erf_u * erf_u
    log_weq_sq = (
        2.0 * math.log(w_delta)
        + math.log(_SQRT_PI * erf_u)
        - math.log(2.0 * upsilon)
        + upsilon * upsilon
    )
    if log_weq_sq >= _LOG_MAX_DOUBLE:
        raise ValueError(
            f"equivalent beamwidth overflows for upsilon={upsilon:.3g}; "
            "the aperture is far wider than the beam and the misalignment "
            "model is degenerate"
        )
    w_eq = math.exp(0.5 * log_weq_sq)
    return BeamStats(w_delta=w_delta, upsilon=upsilon, w_eq=w_eq, a0=a0)


def pointing_gain(geom: BeamGeometry, delta: float, r):
    """Collected-power fraction ``A0 exp(-2 r^2 / w_eq^2)`` at displacement r, float or array."""
    if np.any(r < 0.0):
        raise ValueError(f"radial displacement must be >= 0, got {r}")
    stats = beam_stats(geom, delta)
    return stats.a0 * np.exp(-2.0 * r * r / (stats.w_eq * stats.w_eq))


def rayleigh_pdf(sigma_s, r):
    """Rayleigh density ``(r / sigma_s^2) exp(-r^2 / 2 sigma_s^2)`` at r; floats or arrays."""
    if not np.all(sigma_s > 0.0):
        raise ValueError(f"sigma_s must be > 0, got {sigma_s}")
    if np.any(r < 0.0):
        raise ValueError(f"radial displacement must be >= 0, got {r}")
    z = r / sigma_s
    return (r / (sigma_s * sigma_s)) * np.exp(-0.5 * z * z)
