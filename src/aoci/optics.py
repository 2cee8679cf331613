"""Collimation, fiber-coupling efficiency, and fiber propagation losses.

The coupling efficiency of the focused beam into the single-mode fiber is
available through three routes that must agree:

* ``coupling_eta_closed`` -- closed form built on the Humbert Psi2 series,
  with the focused field's Airy scale entering through the dimensionless
  coupling argument ``a = 3.83^2 D^2 w0^2 / (1.22^2 lambda^2 F^2)``;
* ``coupling_eta_integrals`` -- direct adaptive quadrature of the Bessel x
  Gaussian x modified-Bessel overlap integrand the closed form was derived
  from, at many points in one batch, which serves as the oracle for the
  closed form and the kernel;
* ``coupling_eta_batch`` -- a cached piecewise polynomial interpolant of that
  integral on panels 1/16 wide in ``s = r / w0``, one per coupling argument,
  valid at every displacement and evaluated on arrays by Horner's rule over
  5 to 8 degrees; it serves Monte Carlo, exceedance and the flux quadrature.

The literal constants 3.83 and 1.22 are kept exactly as written (not the
higher-precision Bessel root 3.8317...), because the closed form is defined
with them; changing them would silently change every downstream number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebpts1, chebvander

from aoci.specfun import (  # integrate_semi_infinite stays importable for bench/tracing.py
    QUAD_TAIL_CUTOFF,
    QuadratureExhaustedError,
    bessel_i0e,
    bessel_j1,
    humbert_psi2,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
)

__all__ = [
    "MemParams",
    "CouplingParams",
    "FiberLoss",
    "collimation_gain",
    "coupling_eta_closed",
    "coupling_eta_integrals",
    "coupling_eta_batch",
    "peak_coupling",
    "fiber_efficiency",
]


@dataclass(frozen=True)
class MemParams:
    """Collimating-mirror geometry: input distance, focal length, Rayleigh range [m]."""

    d_in: float
    f: float
    z0: float

    def __post_init__(self) -> None:
        if not (self.f > 0.0):
            raise ValueError(f"MemParams.f must be > 0, got {self.f}")
        if not (self.z0 > 0.0):
            raise ValueError(f"MemParams.z0 must be > 0, got {self.z0}")
        if self.d_in < 0.0:
            raise ValueError(f"MemParams.d_in must be >= 0, got {self.d_in}")


@dataclass(frozen=True)
class CouplingParams:
    """Coupling-lens and fiber-mode parameters.

    lens_diameter is the symbol D of the closed form, focal_length is F,
    omega0 the fiber mode-field radius, lam the wavelength; all in meters.
    """

    lens_diameter: float
    focal_length: float
    omega0: float
    lam: float

    def __post_init__(self) -> None:
        for name in ("lens_diameter", "focal_length", "omega0", "lam"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"CouplingParams.{name} must be positive, got {v}")
        if not math.isfinite(self.coupling_argument):
            raise ValueError("coupling argument a overflows; check D, omega0, lambda, F")

    @property
    def coupling_argument(self) -> float:
        """Dimensionless ``a = 3.83^2 D^2 w0^2 / (1.22^2 lambda^2 F^2)``."""
        q = (3.83 * self.lens_diameter * self.omega0) / (1.22 * self.lam * self.focal_length)
        return q * q


@dataclass(frozen=True)
class FiberLoss:
    """Bend and grating losses along the fiber."""

    bend_db_per_90deg: float = 0.0
    n_quarter_turns: float = 0.0
    fbg_fraction_lost: float = 0.0
    n_fbg: int = 0

    def __post_init__(self) -> None:
        if self.bend_db_per_90deg < 0.0:
            raise ValueError(f"bend_db_per_90deg must be >= 0, got {self.bend_db_per_90deg}")
        if self.n_quarter_turns < 0.0:
            raise ValueError(f"n_quarter_turns must be >= 0, got {self.n_quarter_turns}")
        if not (0.0 <= self.fbg_fraction_lost < 1.0):
            raise ValueError(f"fbg_fraction_lost must be in [0, 1), got {self.fbg_fraction_lost}")
        if self.n_fbg < 0 or self.n_fbg != int(self.n_fbg):
            raise ValueError(f"n_fbg must be a nonnegative integer, got {self.n_fbg}")


def collimation_gain(mem: MemParams) -> float:
    """Beam-waist ratio of the reflector, ``1 / sqrt((1 - d_in/f)^2 + z0^2/f^2)``.

    Maximized at d_in = f, where it equals f / z0.
    """
    u = 1.0 - mem.d_in / mem.f
    v = mem.z0 / mem.f
    return 1.0 / math.hypot(u, v)


def coupling_eta_closed(cp: CouplingParams, r: float) -> float:
    """Coupling efficiency at radial misalignment r, hypergeometric closed form.

    ``eta = (3.83 sqrt(2) D w0 / (1.22 lambda F) * exp(-r^2/w0^2)
    * Psi2(1; 2, 1; -a, r^2/w0^2))^2``. The peak over the coupling argument
    at r = 0 is ~0.8145; beyond the first ring null of the focused field the
    value oscillates near zero instead of decaying monotonically.

    Raises the specfun series errors when r^2/w0^2 is too large for the
    series route; ``coupling_eta_integrals`` covers that regime.
    """
    if r < 0.0:
        raise ValueError(f"radial misalignment must be >= 0, got {r}")
    a = cp.coupling_argument
    y = (r / cp.omega0) ** 2
    prefactor = 3.83 * math.sqrt(2.0) * cp.lens_diameter * cp.omega0 / (
        1.22 * cp.lam * cp.focal_length
    )
    amplitude = prefactor * math.exp(-y) * humbert_psi2(-a, y)
    return amplitude * amplitude


def _overlap_amplitude_integrand(c: float, w0: float, r, rho):
    """Integrand of the field-overlap amplitude, grouped to avoid overflow.

    ``J1(c rho) exp(-(rho - r)^2 / w0^2) [e^-z I0(z)]`` with ``z = 2 rho r / w0^2``
    and ``c = 2 * 3.83 D / (1.22 lambda F) = 2 sqrt(a) / w0``; the growing I0
    factor is absorbed into the Gaussian exponent so every factor stays bounded.
    """
    w0sq = w0 * w0
    rho = np.asarray(rho, dtype=np.float64)
    return (
        bessel_j1(c * rho)
        * np.exp(-((rho - r) ** 2) / w0sq)
        * bessel_i0e(2.0 * rho * r / w0sq)
    )


def coupling_eta_integrals(cps, rs) -> list[float]:
    """Coupling efficiencies at the points ``(cps[i], rs[i])`` by adaptive quadrature.

    ``eta = (8 / w0^2) * J^2`` where J is the overlap amplitude integral of
    ``_overlap_amplitude_integrand``. Valid for all r >= 0; this is the
    independent oracle for ``coupling_eta_closed``. The integrand is called
    once per refinement pass for all the points, and each value is bitwise
    the one a one-point call gives.
    """
    if not all(r >= 0.0 for r in rs):
        raise ValueError(f"radial misalignments must be >= 0, got {min(rs)}")
    w0, r = np.array([cp.omega0 for cp in cps]), np.array(rs, dtype=np.float64)
    c = np.array([2.0 * 3.83 * cp.lens_diameter / (1.22 * cp.lam * cp.focal_length) for cp in cps])
    # The integrand is a Gaussian of width ~w0 centered at rho = r; make the
    # cutoff cover the center plus the tail, and mark the center so the
    # subdivision cannot step over a narrow bump far from the origin.
    results = integrate_semi_infinite_batch(
        lambda rho, i: _overlap_amplitude_integrand(c[i], w0[i], r[i], rho),
        w0 + r / QUAD_TAIL_CUTOFF,
        [(max(ri - 3.0 * wi, 0.0), ri, ri + 3.0 * wi) for ri, wi in zip(r, w0)])
    etas = []
    for result, wi in zip(results, w0):
        scale = 8.0 / (wi * wi)
        if isinstance(result, QuadratureExhaustedError):
            # Deep in the ring region the oscillatory amplitude integral is
            # roundoff-limited and the relative tolerance is unreachable; accept
            # the estimate if its propagated absolute error in eta (a quantity
            # of order <= 0.8145) is still negligible.
            if scale * (2.0 * abs(result.value) * result.err_est + result.err_est**2) > 1.0e-10:
                raise result
            result = result.value, result.err_est
        etas.append(float(scale * result[0] * result[0]))
    return etas


@lru_cache(maxsize=16)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``nodes``-point Gauss-Legendre rule on [-1, 1], read-only: kernels share it."""
    xi, wi = np.polynomial.legendre.leggauss(nodes)
    xi.flags.writeable = wi.flags.writeable = False
    return xi, wi


class _CouplingKernel:
    """Piecewise polynomial interpolant of eta(s), s = r / w0, for one coupling argument a.

    In units of w0 the overlap integral depends on a alone (c = 2 sqrt(a)), so
    one table serves every configuration with that a, whichever built it.
    Unit panel k covers s in [k, k + 1]; it is fitted on demand, to Gauss-Legendre
    quadrature over [max(0, s - 8), s + 8] at its first-kind Chebyshev points,
    with the lowest degree D above which a degree-40 fit of panels 0-3 has no
    coefficient over 1e-15. One linear map then interpolates each unit series at
    the d + 1 Chebyshev points of its SUB sub-panels, 1/16 wide (column 16 k + m
    is sub-panel m), in powers of the local x = 2 (16 s - 16 k - m) - 1 for
    Horner's rule. Coefficients decay faster on the shorter panels: d (5 to 8) is
    one less than the first index at which the probe so re-expanded is < 1e-15.
    Both degrees are at least 0: below a ~ 5e-16 (eta ~ 2a) no coefficient reaches
    1e-15, and the table holds one row.
    """

    def __init__(self, a: float):
        self.c = 2.0 * math.sqrt(a)
        self.xi, self.wi = _gauss_legendre(64 + 24 * int(math.sqrt(a)))
        probe = self._chebyshev(np.arange(4), 40)
        self.degree = int(np.flatnonzero(np.abs(probe).max(axis=0) > 1e-15).max(initial=0))
        sub = np.einsum("pi,imj->pjm", probe[:, :self.degree + 1], self._sub_map(self.degree))
        d = int(np.argmax(np.append(np.abs(sub).max(axis=(0, 2)), 0.0) < 1e-15)) - 1  # d <= D
        d = max(d, 0)
        to_power = np.eye(d + 1)  # row i: T_i's coefficients of 1, x, x^2, ...
        for i in range(2, d + 1):
            to_power[i] = 2.0 * np.roll(to_power[i - 1], 1) - to_power[i - 2]
        # [i, k, 0, m]: unit T_i's x^k on sub-panel m; einsum, as BLAS's buffers would add RSS
        self.sub_map = np.einsum("imj,jk->ikm", self._sub_map(d), to_power)[:, :, None]
        self.table = np.empty((d + 1, 0))  # column 16 k + m: sub-panel m of panel k; row j: x^j

    def _eta(self, s: np.ndarray) -> np.ndarray:
        s = s[:, None]
        lo = np.maximum(s - 8.0, 0.0)
        half = 0.5 * (s + 8.0 - lo)
        values = _overlap_amplitude_integrand(self.c, 1.0, s, lo + half * (1.0 + self.xi))
        amplitude = half[:, 0] * (values * self.wi).sum(axis=1)
        return 8.0 * amplitude * amplitude

    def _chebyshev(self, panels: np.ndarray, degree: int, f=None) -> np.ndarray:
        """[..., i, :]: Chebyshev coefficients of f's (eta's) interpolant on panel ``panels[i]``."""
        x = chebpts1(degree + 1)
        values = (f or self._eta)((panels[:, None] + 0.5 + 0.5 * x).ravel())
        fit = chebvander(x, degree).T * (2.0 / (degree + 1))
        fit[0] *= 0.5
        return (values.reshape(*values.shape[:-1], len(panels), 1, degree + 1) * fit).sum(axis=-1)

    def _sub_map(self, d: int) -> np.ndarray:
        """[i, m]: unit T_i's degree-d Chebyshev fit on x in [m / 8 - 1, (m + 1) / 8 - 1]."""
        i = np.arange(self.degree + 1)[:, None]
        return self._chebyshev(np.arange(SUB), d, lambda t: np.cos(i * np.arccos(t / 8 - 1)))

    def cover(self, s_max: float) -> np.ndarray:
        """Build the panels up to the one holding s_max; return the table.

        The table is read once and replaced whole, so a concurrent caller
        sees a shorter or longer table, never a wrong column.
        """
        table = self.table
        panels = np.arange(table.shape[1] // SUB, int(s_max) + 1)
        if panels.size:
            table = np.pad(table, ((0, 0), (0, SUB * panels.size)))
            for chunk in np.array_split(panels, -(-panels.size // 4)):
                block = table[:, SUB * chunk[0]:SUB * (chunk[-1] + 1)].reshape(-1, chunk.size, SUB)
                for unit, powers in zip(self._chebyshev(chunk, self.degree).T, self.sub_map):
                    block += unit[:, None] * powers  # over the unit degree: no 4-d broadcast
            self.table = table
        return table


SUB = 16  # sub-panels per unit panel; a power of two, so u = 16 s is exact
COUPLING_KERNELS = 8  # kernels cached at once; a flux batch uses at most this many
_coupling_kernel = lru_cache(maxsize=COUPLING_KERNELS)(_CouplingKernel)  # one per argument


def coupling_eta_batch(cp: CouplingParams, r) -> np.ndarray:
    """Vectorized coupling efficiency over an array of misalignments.

    Evaluates the cached piecewise kernel of the overlap integral, which
    matches ``coupling_eta_integrals`` to roundoff at every displacement.
    """
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    r_max = r.max(initial=0.0)
    if not (r.min(initial=math.inf) >= 0.0 and r_max < math.inf):  # NaN fails both
        raise ValueError("radial misalignments must be finite and >= 0")
    u = r / (cp.omega0 / SUB)  # 16 r / w0, rounded once: bitwise 16 (r / w0)
    # Division by w0 > 0 is monotone, so this is s.max() without another pass.
    table = _coupling_kernel(cp.coupling_argument).cover(float(r_max / cp.omega0))
    k = u.astype(np.intp)
    x = 2.0 * (u - k) - 1.0
    eta = table[-1][k]
    for row in table[-2::-1]:  # in place: a fresh array per step costs more than the step
        eta *= x
        eta += row[k]
    return eta


def peak_coupling() -> tuple[float, float]:
    """Maximize the zero-misalignment efficiency over the coupling argument.

    At r = 0 the closed form reduces to ``2 (1 - e^-a)^2 / a``, stationary
    where ``(1 + 2a) e^-a = 1``; Newton's method from a = 1.25 finds that root.
    Returns ``(a_star, eta_star)`` with eta_star ~ 0.8145, the hard ceiling of
    the Gaussian-Airy overlap.
    """
    a = 1.25
    for _ in range(50):
        step = ((1.0 + 2.0 * a) * math.exp(-a) - 1.0) / ((1.0 - 2.0 * a) * math.exp(-a))
        a -= step
        if abs(step) <= 1e-15 * a:
            break
    return a, 2.0 * math.expm1(-a) ** 2 / a


def fiber_efficiency(fl: FiberLoss) -> float:
    """Fiber propagation efficiency from bend and grating losses.

    ``k = 10^(-bend_db_per_90deg * n_quarter_turns / 10) * (1 - fbg_fraction_lost)^n_fbg``
    """
    bend = 10.0 ** (-(fl.bend_db_per_90deg * fl.n_quarter_turns) / 10.0)
    grating = (1.0 - fl.fbg_fraction_lost) ** fl.n_fbg
    return bend * grating
