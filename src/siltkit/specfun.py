"""Scalar special functions and closed-form integrals used across the toolkit.

Everything here is a pure function: the log Gaussian kernel, upper incomplete
gamma for arbitrary real first argument, the exact simplex moment integral

    I(alpha, d, |u|) = integral over {0 <= s < t <= 1} of
                       (t - s)^(-alpha) * p_d(t - s, u) ds dt,

its small-``u`` asymptotics, probabilists' Hermite polynomials, and the
log-domain Szego-type Hermite envelope together with the grid-search
calibration of its constant.  Only numpy and the standard library are used.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "log_gaussian_kernel_batch",
    "upper_incomplete_gamma",
    "simplex_moment_integral",
    "simplex_moment_asymptotic",
    "hermite_eval",
    "normalized_hermite_all",
    "normalized_hermite_log_sign",
    "szego_bound",
    "calibrate_szego_constant",
    "calibrate_log_branch_constant",
]

_CF_TOL = 1e-15  # the incomplete gamma continued fraction's stop and cap
_CF_MAX_ITER = 600


def log_gaussian_kernel_batch(sq_norms, d, t):
    """log of (2 pi t)^(-d/2) exp(-|u|^2 / (2t)), the Gaussian density at an
    offset u with variance t in dimension d, from squared norms |u|^2;
    both may be arrays."""
    sq_norms = np.asarray(sq_norms, dtype=float)
    t = np.asarray(t, dtype=float)
    return -0.5 * d * np.log(2.0 * np.pi * t) - sq_norms / (2.0 * t)


# ---------------------------------------------------------------------------
# Upper incomplete gamma for arbitrary real first argument
# ---------------------------------------------------------------------------

def _upper_gamma_continued_fraction(s: float, a: float) -> float:
    # Legendre continued fraction with modified Lentz iteration; converges
    # fast where a >= 1.5 or a >= s + 1.
    tiny = 1e-300
    b = a + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, _CF_MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return math.exp(-a + s * math.log(a)) * h
    raise RuntimeError(f"incomplete gamma continued fraction stalled at s={s}, a={a}")


def upper_incomplete_gamma(s: float, a: float) -> float:
    """Gamma(s, a) = integral_a^inf z^(s-1) exp(-z) dz for real s and a > 0.

    The integral converges at every real s (a > 0 keeps the singular endpoint
    out).  Three regimes, taken in this order, none of which cancels badly:

    * s >= 1 and a < s + 1: Gamma(s) minus the lower series
      gamma(s, a) = a^s e^(-a) sum_n a^n / (s (s+1) ... (s+n));
    * a >= 1.5, or s > 0 with a >= s + 1: the Legendre continued fraction;
    * otherwise Gamma(s, 1.5) by the continued fraction plus the finite piece
      integral_a^1.5 z^(s-1) e^(-z) dz, expanded term by term in e^(-z):

          sum_k (-1)^k / k! * a^(s+k) * expm1((s+k) log(1.5/a)) / (s+k),

      which is log(1.5/a) at |s + k| < 1e-20 (its limit at 0; the next
      order, (s+k) (log a + log(1.5/a) / 2), is below the rounding there,
      and a subnormal s + k would lose digits in the quotient), and
      (1.5^(s+k) - a^(s+k)) / (s+k) where expm1 overflows; every term is a
      well-conditioned integral of a power, so s at or near a negative
      integer costs nothing.

    About 1e-14 relative against mpmath over s in [-5, 8], a in [1e-4, 25],
    and to a = 5e-324; OverflowError means the value leaves double range.
    """
    if not a > 0:
        raise ValueError(f"second argument must be positive, got {a}")
    s = float(s)
    a = float(a)
    if s >= 1.0 and a < s + 1.0:
        term = total = 1.0 / s
        n = 0
        while abs(term) >= 1e-17 * total:
            n += 1
            term *= a / (s + n)
            total += term
        return math.gamma(s) - math.exp(s * math.log(a) - a) * total
    if a >= 1.5 or (s > 0 and a >= s + 1.0):
        return _upper_gamma_continued_fraction(s, a)
    log_ratio = (math.log(1.5 / a) if 1.5 / a < math.inf  # a > 8.3e-309
                 else math.log(1.5) - math.log(a))
    total, sign_fact, k = 0.0, 1.0, 0  # sign_fact = (-1)^k / k!
    while True:
        p = s + k
        try:
            term = sign_fact * (log_ratio if abs(p) < 1e-20 else
                                a ** p * math.expm1(p * log_ratio) / p)
        except OverflowError:  # expm1(p L) past DBL_MAX: 1.5^p - a^p instead
            term = sign_fact * ((1.5 ** p - a ** p) / p)
        total += term
        if p > 0 and abs(term) < 1e-17 * total:
            return _upper_gamma_continued_fraction(s, 1.5) + total
        k += 1
        sign_fact /= -k


# ---------------------------------------------------------------------------
# Simplex moment integral and its asymptotics
# ---------------------------------------------------------------------------

def _check_moment_args(alpha: float, d: int, u_norm: float) -> None:
    if alpha < 0:
        raise ValueError(f"singularity exponent must be >= 0, got {alpha}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not (u_norm > 0 and 0 < 0.5 * u_norm * u_norm < math.inf):
        raise ValueError("offset must be nonzero (closed forms divide by |u|), "
                         f"u_norm^2/2 a positive finite double; got {u_norm}")


def simplex_moment_integral(alpha: float, d: int, u_norm: float) -> float:
    """Exact I(alpha, d, u_norm) via incomplete gamma functions, where
    alpha >= 0, d >= 1 and u_norm = |u| > 0 (ValueError otherwise).

    Substituting z = |u|^2 / (2(t-s)) collapses the double integral to

        2^(alpha-1) / (pi^(d/2) |u|^(2 alpha + d - 2))
            * [Gamma(alpha + d/2 - 1, a) - a * Gamma(alpha + d/2 - 2, a)]

    with a = |u|^2 / 2; no small-``u`` approximation is involved.
    """
    _check_moment_args(alpha, d, u_norm)
    a = 0.5 * u_norm * u_norm
    s1 = alpha + 0.5 * d - 1.0
    bracket = upper_incomplete_gamma(s1, a) - a * upper_incomplete_gamma(s1 - 1.0, a)
    prefactor = 2.0 ** (alpha - 1.0) / (
        math.pi ** (0.5 * d) * u_norm ** (2.0 * alpha + d - 2.0)
    )
    return prefactor * bracket


def simplex_moment_asymptotic(alpha: float, d: int, u_norm: float) -> float:
    """Leading small-``u`` behavior of the simplex moment integral, with the
    same arguments and checks as simplex_moment_integral.

    Power regime (alpha > 1 - d/2):
        2^(alpha-1) Gamma(alpha + d/2 - 1) / (pi^(d/2) |u|^(2 alpha + d - 2)).
    Logarithmic regime (alpha = 1 - d/2):
        (2^alpha / pi^(d/2)) * log(1/|u|).
    """
    _check_moment_args(alpha, d, u_norm)
    threshold = 1.0 - 0.5 * d
    if alpha > threshold:
        return (
            2.0 ** (alpha - 1.0)
            * math.gamma(alpha + 0.5 * d - 1.0)
            / (math.pi ** (0.5 * d) * u_norm ** (2.0 * alpha + d - 2.0))
        )
    if alpha == threshold:
        return 2.0 ** alpha / math.pi ** (0.5 * d) * math.log(1.0 / u_norm)
    raise ValueError(
        f"no asymptotic available for alpha={alpha} < 1 - d/2 = {threshold}"
    )


# ---------------------------------------------------------------------------
# Probabilists' Hermite polynomials
# ---------------------------------------------------------------------------

def hermite_eval(n: int, x):
    """H_n(x) by the recurrence H_{n+1} = x H_n - n H_{n-1} (H_0=1, H_1=x)."""
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = x.copy()
    for m in range(1, n):
        h, h_prev = x * h - m * h_prev, h
    return h if h.ndim else float(h)


def _normalized_hermite_rows(n_max: int, x, first=1.0, rescale: bool = False):
    """Yield (G_n, shift) for n = 0, ..., n_max, where G_n * exp(shift) =
    first * H_n(x)/sqrt(n!), one row at a time.

    G_{n+1} = (x G_n - sqrt(n) G_{n-1}) / sqrt(n+1) keeps magnitudes near
    exp(x^2/4) instead of n!-sized, and leaves G_2(+-1) = 0 exactly; the
    recurrence is linear, so seeding it with a weight ``first`` (1, or one per
    element) carries it through every order.
    Without ``rescale`` the shift stays 0; with it, an element above 1e150 is
    scaled by 1e-150 together with its predecessor and its shift grows by
    150 log 10, so no order overflows.
    """
    g_prev = np.full(x.shape, first)
    shift = np.zeros_like(g_prev)
    yield g_prev, shift
    if n_max >= 1:
        g = x * first
        yield g, shift
        for m in range(1, n_max):
            g, g_prev = (x * g - math.sqrt(m) * g_prev) / math.sqrt(m + 1), g
            if rescale and (big := np.abs(g) > 1e150).any():
                scale = np.where(big, 1e-150, 1.0)
                g = g * scale
                g_prev = g_prev * scale
                shift = shift + np.where(big, 150.0 * math.log(10.0), 0.0)
            yield g, shift


def normalized_hermite_all(n_max: int, x) -> np.ndarray:
    """Stack of H_n(x)/sqrt(n!) for n <= n_max, by the stable scaled recurrence
    (orders in the hundreds stay finite for moderate arguments)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.array([g for g, _ in _normalized_hermite_rows(n_max, x)])


def normalized_hermite_log_sign(n: int, x):
    """(sign, log|H_n(x)/sqrt(n!)|) with per-element rescaling against overflow."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    for g, shift in _normalized_hermite_rows(n, x, rescale=True):
        pass
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(g)) + shift
    return np.sign(g), log_abs


# ---------------------------------------------------------------------------
# Log-domain Hermite envelopes
# ---------------------------------------------------------------------------

def szego_bound(n: int, x: float, alpha: float, c: float) -> float:
    """log of c * sqrt(n!) * (n or 1)^(-(8 alpha - 1)/12) * exp(alpha x^2).

    Envelope for |H_n(x)|; the prefactor ``c`` is not pinned analytically and
    must come from the caller (see calibrate_szego_constant).
    """
    if not 0.25 <= alpha <= 0.5:
        raise ValueError(f"exponent alpha must lie in [1/4, 1/2], got {alpha}")
    if not c > 0:
        raise ValueError(f"constant must be positive, got {c}")
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    power = (8.0 * alpha - 1.0) / 12.0
    return (
        math.log(c)
        + 0.5 * math.lgamma(n + 1)
        - power * math.log(max(n, 1))
        + alpha * x * x
    )


@lru_cache(maxsize=None)
def calibrate_szego_constant(alpha: float = 0.25, n_max: int = 200) -> float:
    """Grid-search sup of |H_n(x)| exp(-alpha x^2) (n or 1)^((8a-1)/12) / sqrt(n!).

    The grid is x = 0, 0.01, ..., 2 sqrt(n_max) + 10.  Any c at least this
    large makes the szego_bound envelope hold on the grid; callers add their
    own safety margin for off-grid arguments.  Seeding the normalized
    recurrence with exp(-alpha x^2) keeps every row O(1).
    """
    x_max = 2.0 * math.sqrt(n_max) + 10.0
    x = np.arange(0.0, x_max + 0.01, 0.01)
    power = (8.0 * alpha - 1.0) / 12.0
    best = 0.0
    rows = _normalized_hermite_rows(n_max, x, np.exp(-alpha * x * x))
    for n, (w, _) in enumerate(rows):
        best = max(best, float(np.max(np.abs(w))) * max(n, 1) ** power)
    return best


@lru_cache(maxsize=None)
def calibrate_log_branch_constant() -> float:
    """Smallest observed c with m(u, 2) <= c * log(1/|u|) on a dyadic u-grid.

    m(u, 2) is the simplex moment integral at alpha = 0, d = 2, whose
    small-``u`` growth is (1/pi) log(1/|u|); the sup over |u| = 2^-1..2^-16
    (times a 1.05 margin) gives a working constant for the logarithmic branch
    of the chaos-term envelope.
    """
    best = 0.0
    for j in range(1, 17):
        r = 2.0 ** (-j)
        m = simplex_moment_integral(0.0, 2, r)
        best = max(best, m / math.log(1.0 / r))
    return 1.05 * best
