"""Entropy and quadratic-Wasserstein machinery for the marginal measures.

The reference marginal (the Brownian one on the uniform n-grid) has a smooth
log-density whose Hessian is a fixed tridiagonal matrix with explicit
eigenvalues; their minimum kappa_n is the convexity constant that turns a
relative-entropy bound into a squared-Wasserstein bound (transport
inequality, factor 2/kappa_n).

The entropy side has a closed upper bound

    -log(2 m (2 pi)^(d/2)) - d/(2 m) * integral of log(sigma^2(s, t))
                                       against the Gaussian kernel of u,

where m is the total mass of the marginal intersection measure and sigma^2
the projection residual variance; the integrand's logarithmic singularities
sit on the grid lines, so it is integrated by a fixed rule graded toward
them (geometric panels, and Duffy triangles at the corners of grid cells).
The empirical side draws the normalized intersection marginal theta
exactly.  Its density with respect to the Brownian marginal is q/m, and on a
quadrature rule q is a weighted sum over nodes of Gaussian kernels of
c . dX - u at variance sigma^2, with c = n alpha and dX the grid increments.
As sigma^2 + |c|^2 / n = t - s at every node, theta is then a finite Gaussian
mixture: pick a node with probability proportional to w p_{t-s}(u), and
condition the increments on c . dX + xi = u, xi ~ N(0, sigma^2), by
Matheron's update.  The draws feed a Monte Carlo relative entropy (the mean
of log(q/m)) and an entropic-regularization optimal transport solver with
two-level Richardson debiasing for the squared Wasserstein distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .marginals import TimeGrid, grid_overlaps, marginal_density_q_batch, \
    sample_mu_n
from .quadrature import ConvergenceError, SimplexQuadrature, \
    _unit_gauss_legendre, geometric_panels
from .rng import stream_generator
from .specfun import log_gaussian_kernel_batch, simplex_moment_integral

__all__ = [
    "ConvergenceError",
    "TransportPlanSpec",
    "TalagrandBound",
    "EntropyEstimate",
    "W2Estimate",
    "kappa",
    "log_sigma2_integral",
    "entropy_bound",
    "talagrand_bound",
    "weighted_theta_samples",
    "theta_relative_entropy",
    "sinkhorn_log",
    "entropic_w2",
    "empirical_w2",
]

# stream ids so that one master seed drives independent sampling stages
_STREAM_PROPOSAL = 1
_STREAM_REFERENCE = 2

# the log sigma^2 rule: geometric panels toward each singularity, Gauss
# nodes in the Duffy angle
_SIGMA2_LEVELS = 40
_SIGMA2_RADIAL_ORDER = 8
_SIGMA2_ANGLE_ORDER = 16
_SINKHORN_ABSORB_EVERY = 20


@dataclass(frozen=True)
class TransportPlanSpec:
    """Entropic-transport solver parameters."""

    regularization: float = 0.25
    max_iterations: int = 20000
    tolerance: float = 1e-9

    def __post_init__(self):
        if not self.regularization > 0:
            raise ValueError("regularization must be positive")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class TalagrandBound:
    value: float
    entropy: float
    kappa_n: float
    vacuous: bool


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    stderr: float


@dataclass(frozen=True)
class W2Estimate:
    """marginal_error is the larger violation of the two full-batch solves,
    each the larger of its row and column L1 violations."""

    value: float
    stderr: float
    marginal_error: float
    iterations: int


# ---------------------------------------------------------------------------
# Hessian spectrum of the reference log-density
# ---------------------------------------------------------------------------

def kappa(n: int) -> float:
    """Smallest Hessian eigenvalue, in closed form 2n (1 - cos(pi / (2n+1))).

    The Hessian is n times the n x n tridiagonal matrix with 2 on the
    diagonal except a final 1, and -1 off it; its spectrum is
    2n (1 - cos((2j+1) pi / (2n+1))) for j = 0, ..., n - 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return float(2.0 * n * (1.0 - math.cos(math.pi / (2.0 * n + 1.0))))


# ---------------------------------------------------------------------------
# Entropy bound
# ---------------------------------------------------------------------------

def log_sigma2_integral(u, d: int, n: int) -> float:
    """Integral of log(sigma^2(s, t)) * kernel_d(t - s, u) over the triangle.

    On the uniform n-grid, with h = 1/n and phi(y) = y (1 - n y), it equals
    n T + sum_{k=0}^{n-2} (n - 1 - k) R_k, where
    T = int_0^h (h - x) log(phi(x)) p(x) dx and
    R_k = int int_[0,h]^2 log(phi(a) + phi(b)) p(a + b + k h) da db.  T runs
    geometric panels toward both ends of [0, h]; each corner quadrant of R_k
    runs two Duffy triangles, the panels in the radius and Gauss nodes in the
    angle.  phi is evaluated from the distance to the nearer end, so no node
    rounds onto a zero of sigma^2.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    r2 = float(np.dot(u, u))
    if r2 == 0:
        raise ValueError("offset must be nonzero")
    if n < 1:
        raise ValueError(f"need n >= 1 cells, got {n}")
    h = 1.0 / n

    def kernel(x):
        return np.exp(log_gaussian_kernel_batch(r2, d, x))

    def phi(e):
        return e * (1.0 - n * e)

    y, wy = geometric_panels(_SIGMA2_LEVELS, _SIGMA2_RADIAL_ORDER)
    e, we = 0.5 * h * y, 0.5 * h * wy  # distance to the nearer end
    total = n * float(np.dot(we * np.log(phi(e)),
                             (h - e) * kernel(e) + e * kernel(h - e)))
    # corner quadrant, triangle 0 < eb = rho theta < ea = rho <= h/2; the
    # other triangle swaps ea and eb and keeps log(phi(ea) + phi(eb))
    theta, wt = _unit_gauss_legendre(_SIGMA2_ANGLE_ORDER)
    rho = e[:, None]
    log_w = (we[:, None] * rho * wt) * np.log(phi(rho) + phi(rho * theta))
    near, skew = rho * (1.0 + theta), rho * (1.0 - theta)  # ea + eb, ea - eb
    shift = h * np.arange(n - 1)[:, None, None]
    # a + b over the corners (0, 0), (h, h), (h, 0) and (0, h), both triangles
    mass = kernel(shift + near) + kernel(shift + (2.0 * h - near)) \
        + kernel(shift + (h - skew)) + kernel(shift + (h + skew))
    r_k = 2.0 * np.sum(mass * log_w, axis=(1, 2))
    return total + float(np.dot(np.arange(n - 1, 0, -1), r_k))


def entropy_bound(u, d: int, n: int) -> float:
    """Closed upper bound for the relative entropy of the normalized marginal
    intersection measure with respect to the Brownian marginal."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    m = simplex_moment_integral(0.0, d, float(np.linalg.norm(u)))
    if not m > 0:
        raise ValueError(f"the intersection mass m underflows to 0 at "
                         f"|u|={np.linalg.norm(u):.3g}")
    e_log = log_sigma2_integral(u, d, n)
    return -math.log(2.0 * m * (2.0 * math.pi) ** (0.5 * d)) \
        - 0.5 * d / m * e_log


def talagrand_bound(u, d: int, n: int) -> TalagrandBound:
    """(2 / kappa_n) times the entropy bound, flagged vacuous when negative.

    A negative value still upper-bounds the (non-negative) relative entropy
    times 2/kappa_n in the formal sense but carries no information about the
    Wasserstein distance; it is reported raw rather than clamped.
    """
    eb = entropy_bound(u, d, n)
    k = kappa(n)
    return TalagrandBound(value=2.0 * eb / k, entropy=eb, kappa_n=k,
                          vacuous=eb < 0.0)


# ---------------------------------------------------------------------------
# Empirical side: exact draws of theta and the entropy estimate
# ---------------------------------------------------------------------------

def weighted_theta_samples(u, d: int, n: int, seed: int, count: int,
                           quad: SimplexQuadrature) -> np.ndarray:
    """Exact draws of the grid values under theta, shape (count, n, d).

    The name predates the exact sampler; perfbench's tracer binds the
    function by it.  Node k is picked with
    probability proportional to w_k p_{t-s}(u); with Z ~ N(0, I/n) and
    xi ~ N(0, sigma^2 I_d), the increments are Z + (c / (n (t - s)))
    (u - c . Z - xi), the law of Z given c . Z + xi = u.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    s, t = quad.nodes[:, 0], quad.nodes[:, 1]
    alpha, sigma2 = grid_overlaps(s, t, TimeGrid.make_uniform(n))
    log_p = np.log(quad.weights) + log_gaussian_kernel_batch(float(u @ u), d,
                                                            t - s)
    p = np.exp(log_p - log_p.max())
    gen = stream_generator(seed, _STREAM_PROPOSAL)
    k = gen.choice(len(p), size=count, p=p / p.sum())
    c = n * alpha[k]
    z = gen.standard_normal((count, n, d)) / math.sqrt(n)
    xi = gen.standard_normal((count, d)) * np.sqrt(sigma2[k])[:, None]
    miss = u - np.einsum("kj,kjd->kd", c, z) - xi
    gain = c / (n * (t - s)[k, None])
    return np.cumsum(z + gain[:, :, None] * miss[:, None, :], axis=1)


def theta_relative_entropy(u, points: np.ndarray,
                           quad: SimplexQuadrature) -> EntropyEstimate:
    """Relative entropy of theta to the Brownian marginal: the mean of
    log(q/m) over theta draws of shape (count, n, d), with its standard error.
    """
    count, n, d = points.shape
    if count < 2:
        raise ValueError(f"count must be >= 2 for a standard error, got {count}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    q = marginal_density_q_batch(u, TimeGrid.make_uniform(n), points, quad)
    m = simplex_moment_integral(0.0, d, float(np.linalg.norm(u)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = np.log(q / m)
    if not np.isfinite(log_ratio).all():
        raise ValueError(f"log(q/m) is not finite at "
                         f"|u|={np.linalg.norm(u):.3g}: q or m underflows")
    return EntropyEstimate(value=float(np.mean(log_ratio)),
                           stderr=float(np.std(log_ratio, ddof=1)
                                        / math.sqrt(count)))


# ---------------------------------------------------------------------------
# Entropic optimal transport
# ---------------------------------------------------------------------------

def _squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x_i|^2 + |y_j|^2 - 2 x_i . y_j, clipped at 0, in the Gram's buffer."""
    gram = x @ y.T
    gram *= 2.0
    np.subtract(np.add.outer(np.sum(x * x, axis=1), np.sum(y * y, axis=1)),
                gram, out=gram)
    return np.maximum(gram, 0.0, out=gram)


def sinkhorn_log(cost: np.ndarray, reg: float, max_iterations: int,
                 tolerance: float):
    """Alternating dual scaling against a cost matrix, uniform marginals.

    The scaling vectors are iterated in linear space (two matrix-vector
    products per sweep, into preallocated vectors) and absorbed into the
    log-domain potentials whenever they threaten to overflow, which keeps
    the scheme stable at small regularization without paying a log-sum-exp
    per entry.

    Plain sweeps run until two successive ratios of the violation agree to
    within 5% of one minus the ratio, Theta; then u <- u (a / (u K v))^omega,
    v likewise, with omega = 2 / (1 + sqrt(1 - Theta)).  A relaxed scaling
    that is not finite takes the plain step; a violation past twice its value
    at the switch makes the rest plain; an absorption re-measures Theta.  The
    violation, the larger of the row and column L1 violations of the plan
    P = diag(u) K diag(v), is tested after every sweep.

    Returns (<P, C> = u . ((K * C) v) at the final scalings, the violation,
    sweeps); raises ValueError for a cost with non-finite entries, and
    ConvergenceError when the violation is not pushed under the tolerance
    within the budget.
    """
    u, kernel, v, err, it = _sinkhorn_scalings(cost, reg, max_iterations,
                                               tolerance)
    kernel *= cost
    return float(u @ (kernel @ v)), err, it


def _sinkhorn_scalings(cost, reg, max_iterations, tolerance):
    """sinkhorn_log's sweeps: (u, K, v, violation, sweeps), with
    K = exp((f + g - cost) / reg) at the last absorption's potentials."""
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix has non-finite entries")
    (n, m), tiny, it = cost.shape, 1e-300, 0
    a, f = np.full(n, 1.0 / n), np.zeros(n)
    b, g = np.full(m, 1.0 / m), np.zeros(m)
    u, kv, row = np.ones(n), np.empty(n), np.empty(n)  # row, col: scratch
    v, ktu, col = np.ones(m), np.empty(m), np.empty(m)
    kernel = np.divide(cost, -reg, out=np.empty_like(cost, dtype=float))

    def absorb():
        """Fold the scalings into f and g; rebuild the kernel in place."""
        nonlocal f, g
        f = f + reg * np.log(np.maximum(u, tiny))
        g = g + reg * np.log(np.maximum(v, tiny))
        np.subtract(np.subtract(cost, f[:, None], out=kernel), g, out=kernel)
        np.exp(np.divide(kernel, -reg, out=kernel), out=kernel)
        u.fill(1.0)
        v.fill(1.0)

    def violation(x, product, target, buf):
        return np.sum(np.abs(np.subtract(np.multiply(x, product, out=buf),
                                         target, out=buf), out=buf))

    def scale(x, target, product, buf):
        """x <- target / product in place, or its relaxed form."""
        if omega > 1.0:
            np.maximum(np.multiply(x, product, out=buf), tiny, out=buf)
            np.power(np.divide(target, buf, out=buf), omega, out=buf)
            if np.isfinite(np.multiply(x, buf, out=buf)).all():
                x[:] = buf
                return
        np.divide(target, np.maximum(product, tiny, out=buf), out=x)

    # under: kernel entries; over, invalid: a relaxed scaling (then plain)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        np.exp(kernel, out=kernel)
        omega, relax = 1.0, True
        col_err, last_err, last_ratio = np.inf, np.nan, np.nan
        while True:
            if (it % _SINKHORN_ABSORB_EVERY == 0 or it >= max_iterations) \
                    and (max(u.max(), v.max()) > 1e150
                         or min(u.min(), v.min()) < 1e-150):
                absorb()
                omega, last_err = 1.0, np.nan
            np.matmul(kernel, v, out=kv)
            err = float(np.maximum(violation(u, kv, a, row), col_err))
            if not err >= tolerance or it >= max_iterations:
                break
            if omega > 1.0 and err > 2.0 * switch_err:
                omega, relax = 1.0, False
            elif relax and omega == 1.0:
                ratio = err / last_err
                if ratio < 1.0 and abs(ratio - last_ratio) <= 0.05 * (1 - ratio):
                    omega, switch_err = 2.0 / (1.0 + math.sqrt(1.0 - ratio)), err
                last_ratio = ratio
            last_err = err
            scale(u, a, kv, row)
            scale(v, b, np.matmul(kernel.T, u, out=ktu), col)
            col_err = float(violation(v, ktu, b, col))
            it += 1
    if not err < tolerance:
        raise ConvergenceError(
            f"entropic transport stopped at marginal violation {err:.3e} "
            f"after {it} iterations (tolerance {tolerance:.1e})"
        )
    return u, kernel, v, err, it


def _solve(plan: TransportPlanSpec, task):
    """sinkhorn_log for task (x, y, reg) on a cost matrix built here (so a
    forked worker builds its own); a ConvergenceError is returned."""
    try:
        return sinkhorn_log(_squared_distances(*task[:2]), task[2],
                            plan.max_iterations, plan.tolerance)
    except ConvergenceError as exc:
        return exc


def _debiased(solves):
    """2 cost(eps) - cost(2 eps), the larger violation and the summed sweeps
    of the solves at eps and 2 eps; the first failed solve raises."""
    for solve in solves:
        if isinstance(solve, ConvergenceError):
            raise solve
    (c1, err1, it1), (c2, err2, it2) = solves
    return 2.0 * c1 - c2, max(err1, err2), it1 + it2


def entropic_w2(x: np.ndarray, y: np.ndarray, plan: TransportPlanSpec):
    """Debiased squared-Wasserstein estimate between two point clouds.

    Runs the solver at the plan's regularization eps and at 2 eps and
    extrapolates linearly to eps = 0:  2 cost(eps) - cost(2 eps).
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    return _debiased([_solve(plan, (x, y, scale * plan.regularization))
                      for scale in (1.0, 2.0)])


def empirical_w2(points: np.ndarray, seed: int, plan: TransportPlanSpec,
                 mapper=map) -> W2Estimate:
    """Squared Wasserstein distance between the normalized marginal
    intersection measure and the Brownian marginal, from samples.

    The intersection side is the theta draws ``points``, shape
    (count, n, d), as they are; the Brownian side is as many independent
    draws from a stream of the master seed ``seed``.  The error bar is half
    the gap between two disjoint half-batch estimates.  The six solves run
    slowest first through ``mapper(fn, tasks)`` (serial by default); the
    first failure in the order full batch, first half, second half raises.
    """
    count, n, d = points.shape
    if not 2 <= count <= 5000:
        raise ValueError(f"count must be in 2..5000 at desk scale, got {count}")
    if d * n > 16:
        raise ValueError(f"flattened dimension d*n capped at 16, got {d * n}")
    theta_cloud = points.reshape(count, n * d)
    mu_cloud = sample_mu_n(n, d, seed, count, stream=_STREAM_REFERENCE)
    mu_cloud = mu_cloud.reshape(count, n * d)
    full, a, b = slice(None), slice(count // 2), slice(count // 2, None)
    solves = list(mapper(partial(_solve, plan), [
        (theta_cloud[s], mu_cloud[s], scale * plan.regularization) for s, scale
        in ((full, 1.0), (full, 2.0), (a, 1.0), (b, 1.0), (b, 2.0), (a, 2.0))]))
    value, err, iters = _debiased(solves[:2])
    w_a = _debiased([solves[2], solves[5]])[0]
    w_b = _debiased(solves[3:5])[0]
    return W2Estimate(value=value, stderr=0.5 * abs(w_a - w_b),
                      marginal_error=err, iterations=iters)
