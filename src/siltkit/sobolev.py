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
admissible-length factors, so their integral is Gauss-exact per linear
piece), leaving quadrature in the two gap variables alone; this stays
accurate when the offset is small and the correlation mass sits on
nearly-coincident interval pairs.

Mass^2 / norm^2 then lower-bounds the capacity of the support of the
intersection measure, by the standard inequality
measure(A)^2 <= norm^2 * capacity(A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import _overlap, geometric_panels, interval_overlap
from .siltcore import Path
from .specfun import SimplexIntegralSpec, log_gaussian_kernel_batch, \
    normalized_hermite_all, simplex_moment_integral

__all__ = [
    "SobolevSpec",
    "SobolevNormResult",
    "CapacityResult",
    "SupportQuery",
    "interval_overlap",
    "sobolev_norm_sq_truncated",
    "capacity_lower_bound",
    "support_distance",
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
    factor = np.zeros(K + 1)
    factor[0] = 1.0
    n_zero = int(np.sum(u == 0.0))
    for _ in range(n_zero):
        out = np.zeros(K + 1)
        for k in range(K + 1):
            out[k] = np.dot(factor[: k + 1], base[k::-1])
        factor = out
    return factor


def _convolve_orders(s_coef: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Order-truncated convolution of per-pair coefficient rows."""
    out = np.zeros_like(s_coef)
    for k in range(s_coef.shape[1]):
        out[:, k] = np.einsum("pj,pj->p", s_coef[:, : k + 1], g[:, k::-1])
    return out


def _norm_orders_collapsed(spec: SobolevSpec) -> np.ndarray:
    """Raw per-order integrals, exact in the shift variables.

    Writing the two intervals as [a, a+tau1] and [a+eta, a+eta+tau2], the
    integrand depends on a only through the admissible length l(eta) (a
    piecewise-linear function) and on eta only through the overlap (also
    piecewise linear), so

        integral over (a, eta) of overlap^k  =  sum over linear pieces of
        Gauss-exact integrals of overlap(eta)^k * l(eta),

    leaving a two-dimensional integral over the gaps (tau1, tau2) that is
    done on geometric panels.  Orders k >= 1 draw only from eta with
    positive overlap; the order-0 term factorizes exactly into the squared
    one-dimensional mass integral.
    """
    K = spec.K
    r2 = float(np.dot(spec.u, spec.u))
    tau, w_tau = geometric_panels(spec.tau_levels, spec.tau_order)
    log_wp = np.log(w_tau) + log_gaussian_kernel_batch(r2, spec.d, tau)
    keep = log_wp > -800.0
    tau, log_wp = tau[keep], log_wp[keep]
    n_tau = len(tau)
    tables = {}
    for i in np.nonzero(spec.u)[0]:
        tables[int(i)] = normalized_hermite_all(K, spec.u[i] / np.sqrt(tau))
    zero_factor = _zero_coordinate_factor(spec.u, K)
    active = sorted(tables.keys())
    # order-0: exact factorization through the 1-d mass quadrature
    with np.errstate(under="ignore"):
        mass_1d = float(np.dot(np.exp(log_wp), 1.0 - tau))
    acc = np.zeros(K + 1)
    acc[0] = mass_1d * mass_1d
    # Gauss nodes exact for polynomials of degree K+1 on each eta piece
    q_eta = max((K + 3) // 2 + 1, 4)
    gx, gw = np.polynomial.legendre.leggauss(q_eta)
    all_pairs = np.arange(n_tau * n_tau)
    for lo in range(0, n_tau * n_tau, _CHUNK_PAIRS):
        pairs = all_pairs[lo: lo + _CHUNK_PAIRS]
        ia, ib = pairs // n_tau, pairs % n_tau
        t1, t2 = tau[ia], tau[ib]
        low = np.maximum(-t2, t1 - 1.0)
        high = np.minimum(t1, 1.0 - t2)
        knots = np.sort(np.stack([
            low,
            np.clip(t1 - t2, low, high),
            np.clip(0.0, low, high),
            high,
        ], axis=1), axis=1)
        # eta nodes per piece: shape (pairs, 3, q_eta)
        mid = 0.5 * (knots[:, 1:] + knots[:, :-1])
        half = 0.5 * np.maximum(knots[:, 1:] - knots[:, :-1], 0.0)
        eta = mid[:, :, None] + half[:, :, None] * gx
        w_eta = half[:, :, None] * gw
        t1e, t2e = t1[:, None, None], t2[:, None, None]
        # first interval [0, t1] against [eta, eta + t2], which collapses
        # where t2 is below the float resolution of eta (large tau_levels at
        # tiny offsets); admissible left ends a: [0, 1 - t1] against
        # [-eta, 1 - eta - t2]
        ov = _overlap(0.0, t1e, eta, eta + t2e)
        ell = _overlap(0.0, 1.0 - t1e, -eta, 1.0 - eta - t2e)
        base = w_eta * ell
        rho = ov / np.sqrt(t1 * t2)[:, None, None]
        with np.errstate(under="ignore"):
            pair_w = np.exp(log_wp[ia] + log_wp[ib])
        s_coef = np.tile(zero_factor, (len(pairs), 1))
        for i in active:
            s_coef = _convolve_orders(s_coef, tables[i][:, ia].T * tables[i][:, ib].T)
        rho_pow = rho.copy()
        for k in range(1, K + 1):
            a_k = np.einsum("pjg,pjg->p", base, rho_pow)
            acc[k] += float(np.dot(pair_w, a_k * s_coef[:, k]))
            if k < K:
                rho_pow = rho_pow * rho
    return acc


def sobolev_norm_sq_truncated(spec: SobolevSpec) -> SobolevNormResult:
    """Truncated squared norm with per-order terms and truncation diagnostics.

    The reported value sums orders until either the cap K or the first order
    whose summand drops below 1e-14 of the running sum; tail_ratio is the
    last included summand relative to the total.
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
    tail_ratio = abs(terms[k_used]) / abs(total) if total != 0 else math.inf
    return SobolevNormResult(value=float(total), terms=terms, K_used=k_used,
                             tail_ratio=float(tail_ratio))


def capacity_lower_bound(spec: SobolevSpec) -> CapacityResult:
    """mass^2 / truncated norm^2: capacity lower bound for the support."""
    mass = simplex_moment_integral(SimplexIntegralSpec(alpha=0.0, d=spec.d, u=spec.u))
    norm = sobolev_norm_sq_truncated(spec)
    return CapacityResult(value=mass * mass / norm.value, mass=mass,
                          norm_sq=norm.value, K_used=norm.K_used,
                          tail_ratio=norm.tail_ratio)


# ---------------------------------------------------------------------------
# Support diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportQuery:
    path: Path
    u: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        object.__setattr__(self, "u", u)
        if not np.linalg.norm(u) > 0:
            raise ValueError("offset must be nonzero")
        if u.shape != (self.path.d,):
            raise ValueError(f"offset has shape {u.shape}, expected ({self.path.d},)")


def support_distance(query: SupportQuery) -> float:
    """min over grid pairs s < t of |path(t) - path(s) - u|.

    Zero exactly when the sampled trajectory realizes the offset u as one of
    its increments; positive distance means the discretized path stays off
    the increment set.
    """
    values = query.path.values
    u = query.u
    best = math.inf
    for i in range(len(values) - 1):
        diff = values[i + 1:] - values[i] - u
        best = min(best, float(np.min(np.sqrt(np.sum(diff * diff, axis=1)))))
    return best
