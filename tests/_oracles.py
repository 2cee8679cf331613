"""Independent oracles used to pin the library.

Every oracle here but ``sample_rayleigh`` is a brute-force series /
continued-fraction evaluation in mpmath working precision, deliberately sharing
no code path with the package under test. Term counts are capped at 200 per
index (the quadruple sum at 30 per index), which is ample for the argument
ranges exercised by the tests. ``sample_rayleigh`` draws the package's
Rayleigh stream from numpy's generators directly, as a reference for how
streams are keyed.
"""

import mpmath as mp
import numpy as np

mp.mp.dps = 50

SERIES_CAP = 200


def gamma_p_reference(s, x, terms: int = SERIES_CAP) -> mp.mpf:
    """Regularized lower incomplete gamma P(s, x) by its ascending series.

    ``P(s, x) = x^s e^-x / Gamma(s + 1) * sum_n x^n / ((s + 1) ... (s + n))``;
    every term is positive, so the far lower tail keeps full precision. Near
    x = s the series needs about 9 sqrt(s) terms.
    """
    s, x = mp.mpf(s), mp.mpf(x)
    term = mp.mpf(1)
    total = term
    for n in range(1, terms):
        term *= x / (s + n)
        total += term
    return total * mp.exp(-x + s * mp.log(x) - mp.loggamma(s + 1))


def gamma_q_reference(s, x, terms: int = SERIES_CAP) -> mp.mpf:
    """Regularized upper incomplete gamma via series / continued fraction.

    Lower series for x < s + 1, Lentz continued fraction otherwise; the
    classical complementary pair, evaluated at extended precision.
    """
    s, x = mp.mpf(s), mp.mpf(x)
    if x == 0:
        return mp.mpf(1)
    if x < s + 1:
        # P(s, x) by the ascending series, then complement.
        term = mp.mpf(1) / s
        total = term
        for n in range(1, terms):
            term *= x / (s + n)
            total += term
        p = total * mp.exp(-x + s * mp.log(x) - mp.loggamma(s))
        return 1 - p
    # Q(s, x) by the Lentz continued fraction.
    tiny = mp.mpf(10) ** (-60)
    b = x + 1 - s
    c = 1 / tiny
    d = 1 / b
    h = d
    for i in range(1, terms):
        an = -i * (i - s)
        b += 2
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1 / d
        h *= d * c
    return h * mp.exp(-x + s * mp.log(x) - mp.loggamma(s))


def bessel_j1_reference(x) -> mp.mpf:
    """Bessel function J1(x) by mpmath's own evaluation at working precision."""
    return mp.besselj(1, mp.mpf(x))


def poisson_cdf_partial_sum(k: int, mean) -> mp.mpf:
    """Pr(N <= k) for Poisson(mean) by direct term recursion."""
    mean = mp.mpf(mean)
    term = mp.exp(-mean)
    total = term
    for n in range(1, k + 1):
        term *= mean / n
        total += term
    return total


def psi2_bruteforce(b1, b2, x, y, terms: int = 80) -> mp.mpf:
    """Humbert Psi2(1; b1, b2; x, y) by literal double summation."""
    b1, b2, x, y = (mp.mpf(v) for v in (b1, b2, x, y))
    total = mp.mpf(0)
    for m in range(terms):
        for n in range(terms):
            total += (
                mp.factorial(m + n)
                * x**m
                * y**n
                / (mp.rf(b1, m) * mp.rf(b2, n) * mp.factorial(m) * mp.factorial(n))
            )
    return total


def f4_bruteforce(x1, x2, y1, y2, terms: int = 30) -> mp.mpf:
    """The quadruple hypergeometric sum by literal four-index summation."""
    x1, x2, y1, y2 = (mp.mpf(v) for v in (x1, x2, y1, y2))
    total = mp.mpf(0)
    for m in range(terms):
        fx1 = x1**m / (mp.factorial(m + 1) * mp.factorial(m))
        for k in range(terms):
            fx2 = x2**k / (mp.factorial(k + 1) * mp.factorial(k))
            for n in range(terms):
                fy1 = mp.factorial(m + n) * y1**n / mp.factorial(n) ** 2
                for l in range(terms):
                    total += (
                        fx1
                        * fx2
                        * fy1
                        * mp.factorial(k + l)
                        * mp.factorial(n + l)
                        * y2**l
                        / mp.factorial(l) ** 2
                    )
    return total


def sample_rayleigh(seed: int, stream_id: int, sigma_s: float, n: int) -> np.ndarray:
    """The first n Rayleigh displacements ``sigma_s sqrt(-2 ln u)`` of stream (seed, stream_id).

    Built on numpy alone: the stream is a Philox generator keyed by
    ``SeedSequence(seed, spawn_key=(stream_id,))``, and u = 1 - U[0, 1) lies in (0, 1].
    """
    keyed = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    u = 1.0 - np.random.Generator(np.random.Philox(keyed)).random(n)
    return sigma_s * np.sqrt(-2.0 * np.log(u))
