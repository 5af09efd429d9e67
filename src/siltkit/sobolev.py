"""Truncated negative-index Sobolev norm of the intersection functional and
the capacity lower bound it yields.

The squared norm is a series over orders k: a 4-d integral over two copies of
the triangle of

    overlap(I_1, I_2)^k / (tau_1 tau_2)^(k/2)
        * S_k(u; tau_1, tau_2) * kernel(tau_1, u) * kernel(tau_2, u),

weighted by (k+1)^gamma, where S_k sums over multi-indices of order k the
products over coordinates of H_{n_i}(u_i/sqrt(tau_1)) H_{n_i}(u_i/sqrt(tau_2))
/ n_i!.  S_k is never enumerated: per node pair it is the order-k coefficient
of the product of d per-coordinate generating sequences, assembled by a
truncated convolution (a dynamic program costing O(d k) per order).

The 4-d integral collapses the two shift variables exactly (the integrand
depends on them only through the piecewise-linear overlap and
admissible-length factors, so their integral is exact per linear piece by a
positive recurrence, with the endpoint overlaps 0, min(tau_1, tau_2) or
tau_1 + tau_2 - 1 taken in closed form), leaving quadrature in the two gap
variables alone; this stays accurate when the offset is small and the
correlation mass sits on nearly-coincident interval pairs.

Mass^2 / norm^2 then lower-bounds the capacity of the support of the
intersection measure, by the standard inequality
measure(A)^2 <= norm^2 * capacity(A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import geometric_panels
from .specfun import log_gaussian_kernel_batch, normalized_hermite_all, \
    simplex_moment_integral

__all__ = [
    "SobolevSpec",
    "SobolevNormResult",
    "CapacityResult",
    "sobolev_norm_sq_truncated",
    "capacity_lower_bound",
]

_TAIL_CUTOFF = 1e-14
_CHUNK_PAIRS = 30000


@dataclass(frozen=True)
class SobolevSpec:
    """Norm-truncation parameters: index gamma < (4-d)/2, order cap, offset,
    and the geometric gap rule (tau_levels panels of tau_order nodes) on which
    the collapsed integral is evaluated."""

    gamma: float
    K: int
    u: np.ndarray
    d: int
    tau_levels: int = 34
    tau_order: int = 6

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        object.__setattr__(self, "u", u)
        if self.d < 4:
            raise ValueError(f"the norm machinery assumes d >= 4, got d={self.d}")
        if not self.gamma < 0.5 * (4 - self.d):
            raise ValueError(
                f"need gamma < (4-d)/2 = {0.5 * (4 - self.d)}, got {self.gamma}"
            )
        if self.K < 0:
            raise ValueError("truncation order must be >= 0")
        if u.shape != (self.d,):
            raise ValueError(f"offset has shape {u.shape}, expected ({self.d},)")
        if not np.linalg.norm(u) > 0:
            raise ValueError("offset must be nonzero")


@dataclass(frozen=True)
class SobolevNormResult:
    value: float
    terms: np.ndarray
    K_used: int
    tail_ratio: float


@dataclass(frozen=True)
class CapacityResult:
    value: float
    mass: float
    norm_sq: float
    K_used: int
    tail_ratio: float


def _zero_coordinate_factor(u: np.ndarray, K: int) -> np.ndarray:
    """Convolution of the constant sequences H_n(0)^2/n! over all coordinates
    with zero offset component (node-independent)."""
    h0 = normalized_hermite_all(K, np.zeros(1))[:, 0]  # H_n(0)/sqrt(n!)
    base = h0 * h0
    factor = np.eye(1, K + 1)[0]
    for _ in range(int(np.sum(u == 0.0))):
        factor = np.convolve(factor, base)[: K + 1]
    return factor


def _convolve_orders(s_coef: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Order-truncated convolution of per-pair coefficient rows."""
    out = np.zeros_like(s_coef)
    for k in range(s_coef.shape[1]):
        out[:, k] = np.einsum("pj,pj->p", s_coef[:, : k + 1], g[:, k::-1])
    return out


def _shift_integrals(t1: np.ndarray, t2: np.ndarray, K: int) -> np.ndarray:
    """Integrals over the shift eta of (overlap / sqrt(t1 t2))^k times the
    admissible length, k = 0..K, one row per gap pair (t1, t2).

    Both factors are linear between the knots low <= min(0, t1-t2) <=
    max(0, t1-t2) <= high: constant at min(t1, t2) and 1 - max(t1, t2) on
    the middle piece (length |t1 - t2|), and on each of the mirrored outer
    pieces (length h) rising to those values from max(0, t1+t2-1) and
    max(0, 1-t1-t2).  Endpoints are closed forms, never rounded knots.  For
    f = a..b and g = e0..e1 linear on [0, 1], the integral of f^k g is
    exactly (e0 (A_k + H_k) + e1 (B_k + H_k)) / ((k+1)(k+2)), where H_k, A_k
    and B_k sum a^i b^(k-i) with weights 1, i and k-i, by recurrences of
    non-negative terms.  e0 A_k vanishes: a = 0 (so A_k = 0) unless
    t1 + t2 > 1, and then e0 = 0.
    """
    lo, hi = np.minimum(t1, t2), np.maximum(t1, t2)
    excess, root = t1 + t2 - 1.0, np.sqrt(t1 * t2)
    h = np.where(excess > 0.0, 1.0 - hi, lo)
    a, b = np.maximum(excess, 0.0) / root, lo / root
    e0, e1 = np.maximum(-excess, 0.0), 1.0 - hi
    two_h, middle = 2.0 * h, (hi - lo) * e1
    out = np.empty((K + 1, len(t1)))  # order-major: each order one row
    a_k, b_k, h_k, b_sum = np.ones_like(a), np.ones_like(a), np.ones_like(a), 0.0
    with np.errstate(under="ignore"):
        for k in range(K + 1):
            if k:
                a_k, b_k = a_k * a, b_k * b
                h_k = b * h_k + a_k
                b_sum = a * b_sum + k * b_k
            out[k] = (two_h / ((k + 1) * (k + 2))
                      * (e0 * h_k + e1 * (b_sum + h_k)) + middle * b_k)
    return out.T


def _norm_orders_collapsed(spec: SobolevSpec) -> np.ndarray:
    """Raw per-order integrals, exact in the shift variables.

    Writing the two intervals as [a, a+tau1] and [a+eta, a+eta+tau2], the
    integrand depends on a only through the admissible length l(eta) and on
    eta only through the overlap, both piecewise linear; the integral over
    (a, eta) of overlap^k is exact per linear piece by a positive recurrence
    (``_shift_integrals``, endpoint overlaps 0, min(tau1, tau2) or
    tau1 + tau2 - 1 in closed form).  That leaves a two-dimensional integral
    over the gaps (tau1, tau2), done on geometric panels.  The order-0 term
    factorizes exactly into the squared one-dimensional mass integral.
    """
    K = spec.K
    r2 = float(np.dot(spec.u, spec.u))
    tau, w_tau = geometric_panels(spec.tau_levels, spec.tau_order)
    log_wp = np.log(w_tau) + log_gaussian_kernel_batch(r2, spec.d, tau)
    keep = log_wp > -800.0
    tau, log_wp = tau[keep], log_wp[keep]
    n_tau = len(tau)
    tables = [normalized_hermite_all(K, spec.u[i] / np.sqrt(tau))
              for i in np.nonzero(spec.u)[0]]
    # the zero-offset coordinates give every pair the same row, so the first
    # convolution is g @ T with T[i, k] = row[k - i] for k >= i, else 0
    lag = np.abs(np.subtract.outer(np.arange(K + 1), np.arange(K + 1)))
    zero_toeplitz = np.triu(_zero_coordinate_factor(spec.u, K)[lag])
    # order-0: exact factorization through the 1-d mass quadrature
    with np.errstate(under="ignore"):
        mass_1d = float(np.dot(np.exp(log_wp), 1.0 - tau))
    acc = np.zeros(K + 1)
    acc[0] = mass_1d * mass_1d
    # every factor is symmetric in (tau1, tau2): off-diagonal pairs weigh 2
    pairs_a, pairs_b = np.triu_indices(n_tau)
    for lo in range(0, len(pairs_a), _CHUNK_PAIRS):
        ia, ib = pairs_a[lo:lo + _CHUNK_PAIRS], pairs_b[lo:lo + _CHUNK_PAIRS]
        with np.errstate(under="ignore"):
            pair_w = np.exp(log_wp[ia] + log_wp[ib]) * np.where(ia == ib, 1.0, 2.0)
        pair_rows = (table[:, ia].T * table[:, ib].T for table in tables)
        s_coef = next(pair_rows) @ zero_toeplitz
        for g in pair_rows:
            s_coef = _convolve_orders(s_coef, g)
        shift = _shift_integrals(tau[ia], tau[ib], K)
        acc[1:] += pair_w @ (shift[:, 1:] * s_coef[:, 1:])
    return acc


def sobolev_norm_sq_truncated(spec: SobolevSpec) -> SobolevNormResult:
    """Truncated squared norm with per-order terms and truncation diagnostics.

    The reported value sums orders until either the cap K or the first order
    whose summand drops below 1e-14 of the running sum; tail_ratio is the
    last included summand relative to the total, or the first dropped one
    when only order 0 is included (order 0 against itself would read 1).
    """
    acc = _norm_orders_collapsed(spec)
    orders = np.arange(spec.K + 1)
    terms = (orders + 1.0) ** spec.gamma * acc
    total = terms[0]
    k_used = 0
    for k in range(1, spec.K + 1):
        if abs(terms[k]) < _TAIL_CUTOFF * abs(total):
            break
        total += terms[k]
        k_used = k
    last = 1 if k_used == 0 and spec.K > 0 else k_used
    tail_ratio = abs(terms[last]) / abs(total) if total != 0 else math.inf
    return SobolevNormResult(value=float(total), terms=terms, K_used=k_used,
                             tail_ratio=float(tail_ratio))


def capacity_lower_bound(spec: SobolevSpec) -> CapacityResult:
    """mass^2 / truncated norm^2: capacity lower bound for the support."""
    u_norm = float(np.linalg.norm(spec.u))
    mass = simplex_moment_integral(0.0, spec.d, u_norm)
    norm = sobolev_norm_sq_truncated(spec)
    if not norm.value > 0:  # every pair weight underflows at far offsets
        raise ValueError(f"the truncated norm underflows to 0 at |u|={u_norm:.3g}")
    return CapacityResult(value=mass * mass / norm.value, mass=mass,
                          norm_sq=norm.value, K_used=norm.K_used,
                          tail_ratio=norm.tail_ratio)
