"""Finite-dimensional marginal machinery.

Conditioning the increment w(t) - w(s) on the grid values w(t_1), ..., w(t_n)
replaces it by its projection onto the grid increments plus an independent
Gaussian remainder.  The projection coefficients are Lebesgue overlap lengths
alpha_j = |[s,t] cap [t_{j-1}, t_j]| and the remainder variance is

    sigma^2 = (t - s) - sum_j alpha_j^2 / (t_j - t_{j-1}),

the squared L^2 distance from the indicator of [s, t] to the span of the cell
indicators.  The density q of the marginal intersection measure with respect
to the Brownian marginal is built from that decomposition: a triangle
integral of the Gaussian kernel at variance sigma^2 of the projected
increment minus u (the conditional kernel at eps = 0).  At a rule node with
both ends on grid times sigma^2 vanishes and that kernel is a Dirac mass, so q
refuses such a rule rather than repairing it.  A sampler for the Brownian
marginal completes the module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import SimplexQuadrature, interval_overlap
from .rng import stream_generator

__all__ = [
    "TimeGrid",
    "grid_overlaps",
    "marginal_density_q_batch",
    "sample_mu_n",
]

SINGULAR_VARIANCE = 1e-12
_CHUNK = 512


@dataclass(frozen=True)
class TimeGrid:
    """Partition 0 = t_0 < t_1 < ... < t_n <= 1."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "t", t)
        if t.ndim != 1 or len(t) < 2 or t[0] != 0.0 or t[-1] > 1.0:
            raise ValueError("grid must start at 0, end at most at 1, n >= 1")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid nodes must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.t) - 1

    @property
    def cell_lengths(self) -> np.ndarray:
        return np.diff(self.t)

    @property
    def uniform(self) -> bool:
        return np.array_equal(self.t, np.linspace(0.0, 1.0, self.n + 1))

    @classmethod
    def make_uniform(cls, n: int) -> "TimeGrid":
        if n < 1:
            raise ValueError(f"need n >= 1 cells, got {n}")
        return cls(t=np.linspace(0.0, 1.0, n + 1))


def grid_overlaps(s, t, grid: TimeGrid):
    """alpha rows for arrays of (s, t); returns (alpha, sigma2) batched."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    alpha = interval_overlap(s[:, None], t[:, None], grid.t[:-1][None, :],
                             grid.t[1:][None, :])
    sigma2 = (t - s) - np.sum(alpha * alpha / grid.cell_lengths[None, :], axis=1)
    sigma2 = np.clip(sigma2, 0.0, t - s)  # cancellation can leave tiny negatives
    return alpha, sigma2


def marginal_density_q_batch(u, grid: TimeGrid, points: np.ndarray,
                             quad: SimplexQuadrature) -> np.ndarray:
    """Density values q(x) for a batch of points of shape (count, n, d).

    q is the triangle integral of the zero-eps conditional kernel, with the
    uniform-grid coefficients c_j = n alpha_j.  For the grid increments X_s
    of sample s, |c X_s - u|^2 = sum_{j<=k} m_jk c_j c_k G_s[j, k]
    - 2 sum_j c_j (X_s[j] . u) + |u|^2, with G_s their Gram matrix and m_jk
    1 on the diagonal, 2 off it: a node-side times a sample-side factor, so
    each chunk's (nodes x samples) block is one GEMM whose cost is free of d.
    The expansion's rounding error (a few ulps of (|c X_s| + |u|)^2; negative
    results are clipped at 0) is amplified by 1/(2 sigma^2) in the exponent,
    most at small-sigma^2 nodes (tiny gaps, or near two grid times).  Such a
    node contributes only when c X_s lies within a few sigma of u; the nodes
    where no sample of the batch can (exact exponent below -800) are dropped
    before the GEMM, as their factor is exactly 0 in floating point.
    A rule with a node on two grid times (sigma^2 < SINGULAR_VARIANCE (t - s);
    off them sigma^2 ~ t - s) raises ValueError naming the node and n.
    """
    if not grid.uniform:
        raise ValueError("the marginal density is defined on the uniform grid only")
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[1] != grid.n:
        raise ValueError(f"expected (count, {grid.n}, d) points, got {points.shape}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if float(np.linalg.norm(u)) == 0.0:
        raise ValueError("offset must be nonzero")
    d = points.shape[2]
    increments = np.diff(points, axis=1, prepend=np.zeros((len(points), 1, d)))
    s, t, w = quad.nodes[:, 0], quad.nodes[:, 1], quad.weights
    alpha, sigma2 = grid_overlaps(s, t, grid)
    singular = np.flatnonzero(sigma2 < SINGULAR_VARIANCE * (t - s))
    if singular.size:
        i = singular[0]
        raise ValueError(f"rule node (s, t) = ({s[i]:.17g}, {t[i]:.17g}) sits on "
                         f"two grid times of n = {grid.n}: sigma^2 = {sigma2[i]:.3g}")
    coeff = alpha * grid.n  # alpha_j / cell length on the uniform grid
    log_norm = -0.5 * d * np.log(2.0 * np.pi * sigma2)  # per-node, hoisted
    # |c X_s - u| >= |u| - |c|_1 max_{s,j} |X_s[j]| at every sample: drop the
    # nodes whose exponent is then below -800 (exp is exactly 0 below -745.13)
    reach = coeff.sum(axis=1) * np.linalg.norm(increments, axis=2).max(initial=0.0)
    least = np.maximum(np.linalg.norm(u) - reach, 0.0)
    keep = log_norm - least * least / (2.0 * sigma2) >= -800.0
    w, coeff, sigma2, log_norm = w[keep], coeff[keep], sigma2[keep], log_norm[keep]
    inv_two_var = 0.5 / sigma2
    j, k = np.triu_indices(grid.n)
    gram = np.matmul(increments, increments.transpose(0, 2, 1))[:, j, k]
    node_side = np.hstack([np.where(j == k, 1.0, 2.0) * coeff[:, j] * coeff[:, k],
                           -2.0 * coeff, np.ones((len(w), 1))])
    sample_side = np.hstack([gram, increments @ u,
                             np.full((len(points), 1), u @ u)])
    out = np.empty(len(points))
    block = np.empty(len(w) * min(_CHUNK, len(points)))  # reused by each chunk
    for lo in range(0, len(points), _CHUNK):
        side = sample_side[lo:lo + _CHUNK]
        sq = block[:len(w) * len(side)].reshape(len(w), len(side))
        np.matmul(node_side, side.T, out=sq)
        np.maximum(sq, 0.0, out=sq)
        sq *= inv_two_var[:, None]
        np.subtract(log_norm[:, None], sq, out=sq)
        with np.errstate(under="ignore"):
            out[lo:lo + _CHUNK] = w @ np.exp(sq, out=sq)
    return out


def sample_mu_n(n: int, d: int, seed: int, count: int, stream: int = 0) -> np.ndarray:
    """i.i.d. draws of (W(1/n), ..., W(1)): shape (count, n, d).

    Cumulative sums of N(0, 1/n) increments; deterministic given (seed, stream).
    """
    if n < 1 or d < 1 or count < 1:
        raise ValueError("n, d and count must all be >= 1")
    gen = stream_generator(seed, stream)
    increments = gen.standard_normal((count, n, d)) * np.sqrt(1.0 / n)
    return np.cumsum(increments, axis=1)
