"""Special functions and the series and quadrature engines.

Everything in this module is pure and deterministic: identical inputs give
bit-identical outputs, so results are reproducible and safe to evaluate
concurrently. The solver tolerances are module constants (``SERIES_*`` and
``QUAD_*``).

The classical functions the chain calls (J1, e^-|z| I0(z) and the regularized
incomplete gammas P and Q) are numpy/``math`` kernels, each pinned against
mpmath or scipy in the test suite.

Two confluent hypergeometric sums are implemented explicitly because no
common library exposes them:

* ``humbert_psi2`` -- the double series
  ``Psi2(1; 2, 1; x, y) = sum_{m,n} (1)_{m+n} x^m y^n / ((2)_m (1)_n m! n!)``
* ``_f4_eval`` -- the quadruple series in the one symmetric form the average
  flux needs, ``F4(x, x, y, y) = sum_{m,k,n,l} (1)_{m+n} (1)_{k+l} (1)_{n+l}
  x^(m+k) y^(n+l) / ((1)_n (2)_m (1)_l (2)_k m! n! k! l!)``

Both are sums over the inner functions ``g_n(x) = 1F1(n+1; 2; x)``, which
one generator, ``_g_values``, yields in closed form. ``humbert_psi2`` sums
only the (b1, b2) = (2, 1) case the coupling closed form needs, by a term
recurrence that does not cancel. ``_f4_eval`` sums constant-total-order
shells with compensated summation and stops on a rigorous bound of the
remaining tail (its inner functions are bounded by 1 on its domain); it
refuses up front when that bound cannot be met within the shell cap, and a
cancellation guard raises ``PrecisionLossError`` instead of returning
silently wrong digits. Its binomial weights are handled in log space, so no
intermediate overflows occur.

``integrate_semi_infinite`` is a globally adaptive numpy Gauss-Kronrod rule
(QUADPACK's dqk21). ``integrate_semi_infinite_batch`` runs many such integrals in one
owner-tagged interval table, one integrand call per refinement pass for all.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "NumericalError",
    "SeriesConvergenceError",
    "PrecisionLossError",
    "QuadratureExhaustedError",
    "bessel_j1",
    "bessel_i0e",
    "regularized_gamma_p",
    "regularized_gamma_q",
    "humbert_psi2",
    "integrate_semi_infinite",
    "integrate_semi_infinite_batch",
]

# Ratio of sum(|term|) to |sum(term)| above which a result has lost too
# many digits to trust at double precision.
_CANCELLATION_LIMIT = 1.0e12

# Solver tolerances, read at call time. The series stop once the truncation error is
# within max(rel |sum|, abs); the index cap bounds n in Psi2's sum_n g_n y^n / n! and the
# shell index n + l of F4, whose inner functions it also caps.
SERIES_REL_TOL = 1.0e-10
SERIES_ABS_TOL = 1.0e-300
SERIES_MAX_INDEX = 400
# The quadrature stops once its error is within max(rel |value|, abs), using at most
# QUAD_MAX_SUBDIVISIONS intervals on (0, QUAD_TAIL_CUTOFF decay scales).
QUAD_REL_TOL = 1.0e-9
QUAD_ABS_TOL = 1.0e-300
QUAD_MAX_SUBDIVISIONS = 2000
QUAD_TAIL_CUTOFF = 10.0


class NumericalError(Exception):
    """Base class for numerical evaluation failures.

    Carries the best available estimate so callers can decide whether a
    degraded value is still usable (e.g. a roundoff-limited quadrature).
    """

    def __init__(self, message: str, value: float = math.nan, err_est: float = math.inf):
        super().__init__(message)
        self.value = value
        self.err_est = err_est


class SeriesConvergenceError(NumericalError):
    """Series terms did not decay below tolerance within the index caps."""


class PrecisionLossError(NumericalError):
    """Alternating cancellation destroyed the requested accuracy."""


class QuadratureExhaustedError(NumericalError):
    """Adaptive subdivision budget exhausted before reaching tolerance."""


# ---------------------------------------------------------------------------
# Classical special functions
# ---------------------------------------------------------------------------


# J1 power series in -(x/2)^2, 1 / (k! (k+1)!), and Hankel's a_k = prod_{j<=k} (4 - (2j-1)^2)
# / (k! 8^k) for nu = 1: P = sum a_2k (-1/x^2)^k and Q = sum a_(2k+1) (-1/x^2)^k / x, to order
# 10 in 1/x^2 (a_21 / 25^21 < 1e-17). Miller's recurrence starts at order 64 = 2 floor((25 + 40)
# / 2) for every x, so that no value depends on the others in its array.
_J1_SERIES = [1 / (math.factorial(k) * math.factorial(k + 1)) for k in range(18)]
_HANKEL = [math.prod(4 - (2 * j - 1) ** 2 for j in range(1, k + 1)) / (math.factorial(k) * 8**k)
           for k in range(22)]
_MILLER_START = 64
# Cephes i0e Chebyshev coefficients: 30 for z <= 8 (in z/2 - 2), then 25 above (in 32/z - 2).
_I0E_AB = [
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16, 1.715391285555133e-15,
    -1.1685332877993451e-14, 7.676185498604936e-14, -4.856446783111929e-13, 2.95505266312964e-12,
    -1.726826291441556e-11, 9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07, 1.1173875391201037e-06,
    -4.4167383584587505e-06, 1.6448448070728896e-05, -5.754195010082104e-05, 0.00018850288509584165,
    -0.0005763755745385824, 0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764, 0.17162090152220877,
    -0.3046826723431984, 0.6767952744094761, -7.233180487874754e-18, -4.830504485944182e-18,
    4.46562142029676e-17, 3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15, -4.150569347287222e-14,
    1.54008621752141e-14, 3.8527783827421426e-13, 7.180124451383666e-13, -1.7941785315068062e-12,
    -1.3215811840447713e-11, -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07, 2.8913705208347567e-06,
    6.889758346916825e-05, 0.0033691164782556943, 0.8044904110141088]
_I0E = (_I0E_AB[:30], _I0E_AB[30:])
# Stirling's series log Gamma(s+1) - (s + 1/2) log s + s - log(2 pi)/2, in 1/s^2 (times 1/s).
_STIRLING = [1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400]
_GAMMA_MAX_TERMS = 100_000


def _horner(coeffs, x):
    """``sum_k coeffs[k] x^k`` by Horner's rule."""
    total = coeffs[-1] * x + coeffs[-2]
    for c in coeffs[-3::-1]:
        total *= x
        total += c
    return total


def bessel_j1(x) -> np.ndarray:
    """Bessel function J1 on an array, elementwise, to about 4e-16 absolute.

    Power series for |x| <= 4; Miller's backward recurrence, normalised by
    ``J0 + 2 sum J2k = 1``, for 4 < |x| <= 25; Hankel's expansion above, with
    cos and sin of x - 3 pi/4 expanded from sin x and cos x so that no rounded
    3 pi/4 is subtracted. Odd in x.
    """
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    out = np.empty_like(ax)
    low, high = ax <= 4.0, ax > 25.0
    mid = ~(low | high)
    if low.any():
        h = 0.5 * ax[low]
        out[low] = h * _horner(_J1_SERIES, -h * h)
    if mid.any():
        two_over_x = 2.0 / ax[mid]
        nxt, cur, norm = np.zeros_like(two_over_x), np.ones_like(two_over_x), 0.0
        for n in range(_MILLER_START, 0, -1):  # cur becomes J_(n-1), unnormalised
            nxt, cur = cur, n * two_over_x * cur - nxt
            if n == 2:
                j1 = cur
            elif n % 2 and n > 1:
                norm = norm + cur
        out[mid] = j1 / (cur + 2.0 * norm)
    if high.any():
        xh = ax[high]
        w = -1.0 / (xh * xh)
        p, q = _horner(_HANKEL[0::2], w), _horner(_HANKEL[1::2], w) / xh
        sin, cos = np.sin(xh), np.cos(xh)
        out[high] = (p * (sin - cos) + q * (sin + cos)) / np.sqrt(np.pi * xh)
    return np.where(x < 0.0, -out, out)


def bessel_i0e(z) -> np.ndarray:
    """Exponentially scaled modified Bessel function ``e^-|z| I0(z)`` on an array.

    Cephes' Chebyshev expansions in its order of operations, one Clenshaw pass per range.
    """
    z = np.abs(np.asarray(z, dtype=np.float64))
    out, high = np.empty_like(z), z > 8.0
    for i, part in enumerate((~high, high)):
        zp = z[part]
        if not zp.size:
            continue
        y = 32.0 / zp - 2.0 if i else 0.5 * zp - 2.0
        b0, b1 = np.full_like(y, _I0E[i][0]), np.zeros_like(y)
        for c in _I0E[i][1:]:
            b2, b1 = b1, b0
            b0 = y * b1 - b2 + c
        out[part] = 0.5 * (b0 - b2) / np.sqrt(zp) if i else 0.5 * (b0 - b2)
    return out


def _gamma_pq(s: float, x: float) -> tuple[float, float]:
    """Regularized incomplete gammas (P(s, x), Q(s, x)).

    The ascending series gives P for x < s + 1, Lentz's continued fraction gives
    Q otherwise; the other is the complement, which does not cancel there. The
    prefix ``x^s e^-x / Gamma(s+1)`` comes from Stirling's series for s >= 10,
    with ``log1p`` near x = s, so it keeps relative precision at large s.
    """
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError(f"incomplete gamma requires finite s > 0, got {s}")
    if not (x >= 0.0):
        raise ValueError(f"incomplete gamma requires x >= 0, got {x}")
    if x == 0.0 or x == math.inf:
        return float(x > 0.0), float(x == 0.0)
    if s >= 10.0:
        t = (x - s) / s
        log_ratio = math.log1p(t) if abs(t) < 0.5 else math.log(x / s)
        mu = _horner(_STIRLING, 1.0 / (s * s)) / s
        prefix = math.exp(s * (log_ratio - t) - mu) / math.sqrt(2.0 * math.pi * s)
    else:
        prefix = math.exp(s * math.log(x) - x - math.lgamma(s + 1.0))
    if x < s + 1.0:
        term = total = 1.0
        for n in range(1, _GAMMA_MAX_TERMS):
            if prefix == 0.0 or term <= 1e-17 * total:
                p = prefix * total
                return p, 1.0 - p
            term *= x / (s + n)
            total += term
    else:
        tiny = 1e-300
        b = x + 1.0 - s
        c, d = 1.0 / tiny, 1.0 / b
        h = d
        for i in range(1, _GAMMA_MAX_TERMS):
            an = -i * (i - s)
            b += 2.0
            d, c = an * d + b, b + an / c
            d, c = 1.0 / (d if abs(d) >= tiny else tiny), (c if abs(c) >= tiny else tiny)
            h *= d * c
            if abs(d * c - 1.0) <= 1e-16:
                q = s * prefix * h
                return 1.0 - q, q
    raise SeriesConvergenceError(
        f"incomplete gamma: no convergence in {_GAMMA_MAX_TERMS} terms at s={s}, x={x}")


def regularized_gamma_p(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x); for integer s = k, Poisson ``Pr(N >= k)``."""
    return _gamma_pq(s, x)[0]


def regularized_gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x); for integer s = k+1, Poisson ``Pr(N <= k)``."""
    return _gamma_pq(s, x)[1]


# ---------------------------------------------------------------------------
# Humbert Psi2 double series
# ---------------------------------------------------------------------------


def humbert_psi2(x: float, y: float) -> float:
    """Humbert double hypergeometric series Psi2(1; 2, 1; x, y), x <= 0, y >= 0.

    ``sum_{m,n>=0} (1)_{m+n} x^m y^n / ((2)_m (1)_n m! n!)``, the one case the
    coupling closed form needs. The series is entire, but summed directly
    its terms cancel for strongly negative x, so it is summed as
    ``sum_n g_n(x) y^n / n!`` with the inner functions ``g_n = 1F1(n+1; 2; x)``
    in closed form; at y = 0 that is exactly ``g_0 = expm1(x) / x``. The
    y-weights are nonnegative and g_n is evaluated without cancellation, so the
    only cancellation left is the sign oscillation of g_n itself, whose amplitude
    is bounded; the sum is well conditioned for all x <= 0, y >= 0. It needs
    roughly y + O(sqrt(y)) terms.

    Raises
    ------
    ValueError
        For x > 0, y < 0 or a non-finite argument.
    SeriesConvergenceError
        If the terms have not decayed below tolerance within ``SERIES_MAX_INDEX``,
        which a very large y exhausts.
    PrecisionLossError
        If the terms overflow the double range.
    """
    if not (-math.inf < x <= 0.0 and 0.0 <= y < math.inf):
        raise ValueError(f"humbert_psi2 requires finite x <= 0 and y >= 0, got ({x}, {y})")
    if y == 0.0:
        return 1.0 if x == 0.0 else math.expm1(x) / x
    cap = SERIES_MAX_INDEX
    if y > cap:
        raise SeriesConvergenceError(
            f"humbert_psi2: the y-weights peak near index {y:.3g}, beyond "
            f"max_terms_per_index={cap}; use the integral route instead"
        )
    total = 0.0
    weight = 1.0  # y^n / n!
    below = 0
    for n, g in zip(range(cap + 1), _g_values(x)):
        term = g * weight
        if not math.isfinite(term):
            raise PrecisionLossError(
                f"humbert_psi2: terms overflow the double range (x={x}, y={y})",
                value=total,
            )
        total += term
        if abs(term) <= max(SERIES_REL_TOL * abs(total), SERIES_ABS_TOL):
            below += 1
            if below >= 3:
                return total
        else:
            below = 0
        weight *= y / (n + 1.0)
    raise SeriesConvergenceError(
        f"humbert_psi2 did not converge within max_terms_per_index={cap} "
        f"(x={x}, y={y}); y is too large for the series route",
        value=total,
        err_est=abs(term),
    )


def _g_values(x: float):
    """Yield ``g_n(x) = 1F1(n+1; 2; x)`` for n = 0, 1, 2, ..., in closed form.

    ``g_n(x) = e^x L_{n-1}^{(1)}(-x) / n`` for n >= 1 (generalized Laguerre),
    evaluated by the stable three-term recurrence; ``g_0 = expm1(x)/x``, which
    keeps full precision for tiny |x|.
    This avoids the e^|x|-conditioned cancellation of the defining series at
    negative x, where g_n oscillates with slowly decaying amplitude. Raises
    ``PrecisionLossError`` on reaching an order whose Laguerre value overflows.
    """
    yield 1.0 if x == 0.0 else math.expm1(x) / x
    ex = math.exp(x)
    if ex == 0.0:  # every later g_n is then 0, though its Laguerre factor may overflow
        yield from itertools.repeat(0.0)
    w = -x
    lkm1, lk = 1.0, 2.0 - w  # L_0^{(1)}(w), L_1^{(1)}(w)
    yield ex * lkm1
    yield ex * lk / 2.0
    for k in itertools.count(1):
        lkp1 = ((2.0 * k + 2.0 - w) * lk - (k + 1.0) * lkm1) / (k + 1.0)
        if not math.isfinite(lkp1):
            raise PrecisionLossError(
                f"hypergeometric inner functions overflow at order {k + 1} for x={x}"
            )
        yield ex * lkp1 / (k + 2.0)
        lkm1, lk = lk, lkp1


# ---------------------------------------------------------------------------
# Quadruple hypergeometric series F4(x, x, y, y)
# ---------------------------------------------------------------------------
#
# F4(x, x, y, y) factorizes exactly over its index pairs, since
# (1)_{m+n}/((1)_n (2)_m m!) = C(m+n,m)/(m+1)! per half and (1)_{n+l}/(n! l!) = C(n+l,n):
#
#   F4(x, x, y, y) = sum_{n,l} C(n+l, n) y^(n+l) g_n(x) g_l(x),
#   g_n(x) = sum_m C(m+n, m) x^m / (m+1)! = 1F1(n+1; 2; x).
#
# The outer double series converges geometrically with ratio 2y and is summed in
# anti-diagonal shells n + l = t. The brute-force oracle in the test suite walks all
# four indices literally, at O(T^4) cost.


def _f4_eval(x: float, y: float) -> tuple[float, float]:
    """The quadruple series F4(x, x, y, y) for x <= 0, 0 <= y < 1/2: ``(value, error_bound)``.

    For x <= 0 every inner function lies in [-1, 1]: 0 < g_0 <= 1, and
    |g_n(x)| <= e^(x/2) for n >= 1 (DLMF 18.14.8 with alpha = 1). Shell t carries
    binomial weights summing to (2y)^t, so |F4| <= 1/(1 - 2y), and all past shell T
    sums to at most (2y)^(T+1) / (1 - 2y). ``SERIES_MAX_INDEX`` caps T, and
    ``_g_values`` gives g_0 .. g_cap once. If the bound at the cap exceeds twice the
    largest stop tolerance that |F4| allows, no shell can stop the sum, and
    ``SeriesConvergenceError`` is raised before any summing, with a NaN value.
    Otherwise summing stops at the first complete shell whose bound is within
    ``max(SERIES_REL_TOL |sum|, SERIES_ABS_TOL)``; the bound plus a roundoff term is the returned
    error. Each shell is summed exactly rounded and the shells are added with
    compensation; a cancellation guard raises ``PrecisionLossError``.
    """
    if not (-math.inf < x <= 0.0):
        raise ValueError(f"F4 requires a finite x <= 0, got {x}")
    if not (y >= 0.0 and y + y < 1.0):
        raise ValueError(f"F4 requires y >= 0 and 2y < 1, got {y}")

    cap = SERIES_MAX_INDEX
    y2 = y + y
    cap_tail = y2 ** (cap + 1) / (1.0 - y2)
    # Past twice the tolerance that |F4| <= 1/(1 - 2y) allows, no shell stops the sum: sum none.
    shells = cap + 1 if cap_tail <= 2.0 * max(SERIES_REL_TOL / (1.0 - y2), SERIES_ABS_TOL) else 0
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(shells)])  # log k!
    g = np.fromiter(itertools.islice(_g_values(x), shells), np.float64, shells)
    # At y = 0 summing stops at shell 0, where n = l = 0; 0.0 avoids 0 * -inf.
    log_y = math.log(y) if y > 0.0 else 0.0

    total = comp = abs_total = 0.0
    result = math.nan
    for t in range(shells):
        n = np.arange(t + 1)
        l = t - n
        log_w = log_fact[t] - log_fact[n] - log_fact[l] + n * log_y + l * log_y
        terms = (np.exp(log_w) * g[n] * g[l]).tolist()
        shell = math.fsum(terms)
        abs_total += math.fsum(map(abs, terms))
        s = total + shell
        if abs(total) >= abs(shell):
            comp += (total - s) + shell
        else:
            comp += (shell - s) + total
        total = s
        tail = y2 ** (t + 1) / (1.0 - y2)
        result = total + comp
        if tail <= max(SERIES_REL_TOL * abs(result), SERIES_ABS_TOL):
            if abs_total > _CANCELLATION_LIMIT * max(abs(result), 1.0e-300):
                raise PrecisionLossError("F4: cancellation exceeds double precision",
                                         value=result, err_est=abs_total * 1.0e-16)
            return result, tail + 1.0e-16 * abs_total
    raise SeriesConvergenceError(
        f"F4 did not converge within max_terms_per_index={cap} "
        f"(x1={x}, x2={x}, y1={y}, y2={y}); "
        "use the quadrature route for this argument regime",
        value=result, err_est=cap_tail)


# ---------------------------------------------------------------------------
# Adaptive quadrature on (0, inf)
# ---------------------------------------------------------------------------

# QUADPACK dqk21 (Piessens et al., 1983) to double precision: the Kronrod abscissae on
# [0, 1), descending, their weights, and the embedded 10-point Gauss rule's weights.
_XK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
                0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
                0.2943928627014602, 0.14887433898163122, 0.0])
_WK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                0.14773910490133849, 0.1494455540029169])
_WG = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                0.26926671930999635, 0.29552422471475287])
_NODES = np.concatenate([-_XK, _XK[-2::-1]])  # ascending over [-1, 1]
_WEIGHTS_K = np.concatenate([_WK, _WK[-2::-1]])
_WEIGHTS_G = np.concatenate([_WG, _WG[::-1]])  # on nodes 1, 3, ..., 19
_ROUNDOFF = 50.0 * np.finfo(np.float64).eps


def _gk21(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dqk21 on every interval [lo_i, hi_i] with one call of ``f``: (integrals, errors).

    Row sums, not matrix products (whose rounding varies with the row count), so
    no interval's result depends on the others.
    """
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fv = np.reshape(f((center[:, None] + half[:, None] * _NODES).ravel()), (len(lo), 21))
    resk = (fv * _WEIGHTS_K).sum(axis=1)
    resasc = (np.abs(fv - 0.5 * resk[:, None]) * _WEIGHTS_K).sum(axis=1) * half
    err = np.abs((resk - (fv[:, 1::2] * _WEIGHTS_G).sum(axis=1)) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(resasc > 0.0, resasc * np.fmin(1.0, (200.0 * err / resasc) ** 1.5), err)
    return resk * half, np.maximum(_ROUNDOFF * ((np.abs(fv) * _WEIGHTS_K).sum(axis=1) * half), err)


def integrate_semi_infinite_batch(f, decay_scales, breakpoints) -> list:
    """Many ``integrate_semi_infinite`` runs, one call of ``f`` per pass.

    Integral i takes ``decay_scales[i]`` and ``breakpoints[i]``; ``f(x, owner)`` gives
    the integrands at abscissae ``x`` of integrals ``owner``.
    All the intervals share one table, tagged by owner. Every reduction (interval
    rule, per-owner sums in table order, the split's running error sums) reads one
    integral's numbers alone, so each result is bitwise what a lone run gives.
    Returns per integral ``(value, err_est)`` or the ``QuadratureExhaustedError``
    that the lone call raises.
    """
    n = len(decay_scales)
    if len(breakpoints) != n:
        raise ValueError("need one decay scale and breakpoint list per integral")
    scale = np.array(decay_scales, dtype=np.float64)
    bad = np.flatnonzero(~((scale > 0.0) & np.isfinite(scale)))
    if bad.size:
        raise ValueError(f"decay_scale must be positive and finite, got {decay_scales[bad[0]]}")
    results: list = [None] * n
    if not n:
        return results
    cap = QUAD_MAX_SUBDIVISIONS
    # Integral i's points, one row each: 0, its breakpoints inside (0, cutoff) once each,
    # the cutoff, sorted, NaN-padded. Its edges are those and every midpoint, sorted.
    cutoff = QUAD_TAIL_CUTOFF * scale
    marks = np.array(list(itertools.zip_longest(*breakpoints, fillvalue=math.nan)),
                     dtype=np.float64).reshape(-1, n).T
    marks[~((marks > 0.0) & (marks < cutoff[:, None]))] = math.nan
    points = np.sort(np.column_stack([np.zeros(n), marks, cutoff]), axis=1)
    keep = ~np.isnan(points)
    keep[:, 1:] &= points[:, 1:] != points[:, :-1]
    row, points = np.nonzero(keep)[0], points[keep]
    inner = row[1:] == row[:-1]
    edges = np.concatenate([points, 0.5 * (points[:-1] + points[1:])[inner]])
    rows = np.concatenate([row, row[1:][inner]])
    order = np.lexsort((edges, rows))
    edges, rows = edges[order], rows[order]
    inner = rows[1:] == rows[:-1]
    owner, lo, hi = rows[1:][inner], edges[:-1][inner], edges[1:][inner]
    res, err = _gk21(lambda x: f(x, np.repeat(owner, 21)), lo, hi)
    while True:
        count = np.bincount(owner, minlength=n)
        value, err_est = np.bincount(owner, res, n), np.bincount(owner, err, n)
        tol = np.maximum(QUAD_REL_TOL * np.abs(value), QUAD_ABS_TOL)
        room = cap - count
        done = (count > 0) & (err_est <= tol) & (room >= 0)
        exhausted = (count > 0) & ~done & ((room <= 0) | ~np.isfinite(err_est))
        for i in np.flatnonzero(done):
            results[i] = float(value[i]), float(err_est[i])
        for i in np.flatnonzero(exhausted):
            results[i] = QuadratureExhaustedError(
                f"integrate_semi_infinite: error {err_est[i]:.3g} (tolerance {tol[i]:.3g}) with "
                f"{count[i]} intervals, max_subdivisions={cap}",
                value=float(value[i]), err_est=float(err_est[i]))
        live = ~(done | exhausted)[owner]
        owner, lo, hi, res, err = owner[live], lo[live], hi[live], res[live], err[live]
        if not owner.size:
            return results
        # Per integral, bisect the intervals of most error (stable order) until the error
        # left unsplit is within tol / 2; running sums by rows of a zero-padded matrix.
        order = np.lexsort((-err, owner))
        by = owner[order]
        starts = np.diff(by, prepend=-1) != 0  # by is sorted: one run per owner
        first, row = np.flatnonzero(starts), np.cumsum(starts) - 1
        rank = np.arange(by.size) - first[row]
        padded = np.zeros((first.size, rank.max() + 1))
        padded[row, rank] = err[order]
        left = err_est[by] - np.cumsum(padded, axis=1)[row, rank]
        wide = np.bincount(by, left > 0.5 * tol[by], n).astype(np.intp)
        split = order[rank < np.minimum(1 + wide, room)[by]]
        mid = 0.5 * (lo[split] + hi[split])
        halves = (np.concatenate([owner[split]] * 2), np.concatenate([lo[split], mid]),
                  np.concatenate([mid, hi[split]]))
        new = (*halves, *_gk21(lambda x: f(x, np.repeat(halves[0], 21)), *halves[1:]))
        keep = np.ones(owner.size, dtype=bool)
        keep[split] = False
        owner, lo, hi, res, err = (np.concatenate([old[keep], add])
                                   for old, add in zip((owner, lo, hi, res, err), new))


def integrate_semi_infinite(
    f,
    decay_scale: float,
    breakpoints: tuple[float, ...] = (),
) -> tuple[float, float]:
    """Integrate ``f`` over (0, inf) for an integrand with a known decay scale.

    ``f`` maps a 1-D float64 array of abscissae to the integrand there. The
    domain is truncated at ``QUAD_TAIL_CUTOFF * decay_scale`` and
    integrated by a globally adaptive 21-point Gauss-Kronrod rule (QUADPACK's
    dqk21 nodes, weights and error estimate). ``breakpoints`` may list interior
    abscissae where the integrand is concentrated or non-smooth; halving every
    segment between them gives the initial partition, so narrow features are
    never stepped over. Each pass bisects the intervals carrying the most error
    until the error left unsplit is within half the tolerance, and calls ``f``
    once, on all the new nodes: ``integrate_semi_infinite_batch`` of one.

    Returns
    -------
    (value, err_est)
        ``err_est`` is the achieved absolute-error estimate, which satisfies
        ``err_est <= max(QUAD_REL_TOL * |value|, QUAD_ABS_TOL)`` on success.

    Raises
    ------
    QuadratureExhaustedError
        If the tolerance needs more than ``QUAD_MAX_SUBDIVISIONS`` intervals,
        the initial ones included. The exception carries the best estimate
        and its achieved error.
    """
    (result,) = integrate_semi_infinite_batch(
        lambda x, owner: f(x), [decay_scale], [breakpoints])
    if isinstance(result, QuadratureExhaustedError):
        raise result
    return result
