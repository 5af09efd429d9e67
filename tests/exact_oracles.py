"""Exact second-moment oracles for triangle functionals of Brownian paths.

All of these rest on one reduction: for a pair of increments over intervals
[a, a+tau1] and [a+eta, a+eta+tau2], each coordinate pair is bivariate normal
with covariance matrix [[tau1+eps1, overlap], [overlap, tau2+eps2]], so
second moments of mollified kernels are classical Gaussian densities; the
shift variables (a, eta) then integrate out against the piecewise-linear
admissible-length factor.  Those oracles are quadrature in the two gap
variables only, independent of the package's path-functional code paths.

The rest of the file keeps reference versions of package routines as they
ran before an optimization (checked against the package with ==), and the
silt variants, heat kernel, mollifier, conditional kernel and Hessian
spectrum that only tests use.
"""

import heapq
import math

import numpy as np

from siltkit.marginals import TimeGrid, grid_overlaps
from siltkit.quadrature import ConvergenceError, _unit_gauss_legendre, \
    adaptive_partition_integral, triangle_grid_cells
from siltkit.siltcore import _as_offset, silt_adjustment, silt_epsilon
from siltkit.specfun import log_gaussian_kernel_batch


def gap_rule(levels=50, order=5):
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = (x + 1) / 2, w / 2
    taus, ws = [], []
    edges = [2.0 ** -j for j in range(levels + 1)] + [0.0]
    for hi, lo in zip(edges[:-1], edges[1:]):
        taus.append(lo + (hi - lo) * x)
        ws.append((hi - lo) * w)
    return np.concatenate(taus), np.concatenate(ws)


def _pair_geometry(tau, eta_order=64):
    gx, gw = np.polynomial.legendre.leggauss(eta_order)
    t1, t2 = tau[:, None], tau[None, :]
    low = np.maximum(-t2, t1 - 1.0)
    high = np.minimum(t1, 1.0 - t2)
    knots = np.sort(np.stack(np.broadcast_arrays(
        low, np.clip(t1 - t2, low, high), np.clip(0.0 * t1, low, high), high,
    ), axis=-1), axis=-1)
    mid = (knots[..., 1:] + knots[..., :-1]) / 2
    half = np.maximum(knots[..., 1:] - knots[..., :-1], 0) / 2
    eta = mid[..., None] + half[..., None] * gx
    weta = half[..., None] * gw
    overlap = np.clip(np.minimum(t1[..., None, None], eta + t2[..., None, None])
                      - np.maximum(0.0, eta), 0, None)
    ell = np.clip(np.minimum(1 - t1[..., None, None],
                             1 - eta - t2[..., None, None])
                  - np.maximum(0.0, -eta), 0, None)
    return t1, t2, weta, overlap, ell


def mollified_covariance(d, r, eps1, eps2, levels=50, order=5):
    """Cov of the mollified functionals at offset norm r, scales eps1, eps2."""
    tau, wtau = gap_rule(levels, order)
    t1, t2, weta, overlap, ell = _pair_geometry(tau)
    w12 = wtau[:, None] * wtau[None, :]
    a = (t1 + eps1)[..., None, None]
    b = (t2 + eps2)[..., None, None]
    det = a * b - overlap ** 2
    r2 = r * r
    with np.errstate(under="ignore"):
        joint = (2 * math.pi) ** -d * det ** (-0.5 * d) \
            * np.exp(-(a + b - 2 * overlap) * r2 / (2 * det))
        prod = (2 * math.pi) ** -d * (a * b) ** (-0.5 * d) \
            * np.exp(-r2 * (1 / a + 1 / b) / 2)
    integ = np.sum(weta * ell * (joint - prod), axis=(-1, -2))
    return float(np.sum(w12 * integ))


def mollified_variance(d, r, eps, levels=50, order=5):
    return mollified_covariance(d, r, eps, eps, levels=levels, order=order)


def single_index_second_moment(idx, u, levels=34, order=6):
    """Exact E[I^2] of one Hermite-product expansion term."""
    from siltkit.specfun import log_gaussian_kernel_batch, normalized_hermite_all

    k = sum(idx)
    d = len(idx)
    r2 = float(np.dot(u, u))
    tau, wtau = gap_rule(levels, order)
    log_wp = np.log(wtau) + log_gaussian_kernel_batch(r2, d, tau)
    keep = log_wp > -800
    tau, log_wp = tau[keep], log_wp[keep]
    h_per_node = np.ones(len(tau))
    for i, n in enumerate(idx):
        if n == 0:
            continue
        h_per_node = h_per_node * normalized_hermite_all(
            n, u[i] / np.sqrt(tau))[n]
    t1, t2, weta, overlap, ell = _pair_geometry(
        tau, eta_order=max((k + 3) // 2 + 1, 8))
    rho = overlap / np.sqrt(t1 * t2)[..., None, None]
    a_k = np.sum(weta * ell * rho ** k, axis=(-1, -2))
    pair_w = np.exp(log_wp[:, None] + log_wp[None, :])
    return float(np.sum(pair_w * a_k * np.outer(h_per_node, h_per_node)))


# Tensor-product Sobolev norm: the independent cross-check of the collapsed
# scheme in siltkit.sobolev.  Shared with it are only the order-convolution
# helpers; the 4-d integral here is a plain product of two triangle rules.

SELF_PAIR_RHO = 1.0 - 1e-9


def tensor_norm_sq(u, gamma, K, quad):
    """Sum over k <= K of (k+1)^gamma times the order-k integral at offset u,
    by the tensor product of the triangle rule ``quad`` with itself.

    Nodes whose kernel log-weight is below -800 are dropped outright: their
    pairs cannot contribute above e-1000 of the norm scale, while their huge
    Hermite factors would otherwise turn 0 * inf into NaN.  Identical-interval
    pairs (correlation 1, hit exactly by the tensor diagonal) are excluded
    from every order k >= 1: the continuum diagonal has measure zero, while
    fixed nodes sample it with positive weight and its order series diverges
    there.
    """
    from siltkit.sobolev import _convolve_orders, _zero_coordinate_factor
    from siltkit.specfun import log_gaussian_kernel_batch, normalized_hermite_all

    tau = quad.nodes[:, 1] - quad.nodes[:, 0]
    log_wp = np.log(quad.weights) + log_gaussian_kernel_batch(
        float(np.dot(u, u)), len(u), tau)
    keep = log_wp > -800.0
    tau, log_wp, nodes = tau[keep], log_wp[keep], quad.nodes[keep]
    tables = [normalized_hermite_all(K, u[i] / np.sqrt(tau))
              for i in np.nonzero(u)[0]]
    zero_factor = _zero_coordinate_factor(u, K)
    n = len(tau)
    acc = np.zeros(K + 1)
    all_pairs = np.arange(n * n)
    for lo in range(0, n * n, 30000):
        ia, ib = np.divmod(all_pairs[lo: lo + 30000], n)
        overlap = np.clip(np.minimum(nodes[ia, 1], nodes[ib, 1])
                          - np.maximum(nodes[ia, 0], nodes[ib, 0]), 0.0, None)
        rho = overlap / np.sqrt(tau[ia] * tau[ib])
        with np.errstate(under="ignore"):
            pair_w = np.exp(log_wp[ia] + log_wp[ib])
        off_diagonal = rho < SELF_PAIR_RHO
        s_coef = np.tile(zero_factor, (len(ia), 1))
        for table in tables:
            s_coef = _convolve_orders(s_coef, table[:, ia].T * table[:, ib].T)
        rho_pow = np.ones(len(ia))
        for k in range(K + 1):
            w_eff = pair_w if k == 0 else pair_w * off_diagonal
            acc[k] += float(np.dot(w_eff * rho_pow, s_coef[:, k]))
            rho_pow = rho_pow * rho
    return float(np.sum((np.arange(K + 1) + 1.0) ** gamma * acc))


# Marginal density q by direct contraction: the form siltkit.marginals used
# before it became a quadratic form in the grid increments.  It shares only
# the rule and the overlaps (alpha, sigma^2) of its nodes with the library,
# and forms every kernel argument c X_s - u explicitly, so the GEMM's
# expansion and its cancellation are checked against a sum of squares.

def marginal_density_q_einsum(u, grid, points, quad):
    """q(x) for points of shape (count, n, d) on the uniform grid."""
    from siltkit.marginals import grid_overlaps

    points = np.asarray(points, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    d = points.shape[2]
    w = quad.weights
    alpha, sigma2 = grid_overlaps(quad.nodes[:, 0], quad.nodes[:, 1], grid)
    coeff = alpha * grid.n  # alpha_j / cell length on the uniform grid
    log_norm = -0.5 * d * np.log(2.0 * np.pi * sigma2)
    inv_two_var = 0.5 / sigma2
    out = np.empty(len(points))
    increments = np.diff(points, axis=1, prepend=np.zeros((len(points), 1, d)))
    for lo in range(0, len(points), 512):
        hi = min(lo + 512, len(points))
        # args[q, s, :] = sum_j coeff[q, j] * increments[s, j, :] - u
        args = np.einsum("qj,sjc->qsc", coeff, increments[lo:hi]) - u
        sq = np.einsum("qsc,qsc->qs", args, args)
        with np.errstate(under="ignore"):
            out[lo:hi] = w @ np.exp(log_norm[:, None] - inv_two_var[:, None] * sq)
    return out


# Collapsed Sobolev orders with the shift variable done by Gauss quadrature:
# the form siltkit.sobolev used before the closed-form piece integral.  It
# shares the gap rule, the Hermite tables and the order convolution with the
# library; only the integral over eta differs, which is what it checks.

def _overlap(s1, t1, s2, t2):
    """Interval overlap without a length check: an interval that collapses
    in floating point (a tiny length absorbed by a large endpoint) overlaps
    nothing."""
    return np.clip(np.minimum(t1, t2) - np.maximum(s1, s2), 0.0, None)


def collapsed_orders_gauss_eta(u, K, tau_levels=34, tau_order=6):
    """Raw per-order integrals of ``siltkit.sobolev._norm_orders_collapsed``,
    with the shift variable eta integrated by a Gauss rule per linear piece
    that is exact for polynomials of degree K+1."""
    from siltkit.quadrature import geometric_panels
    from siltkit.sobolev import _CHUNK_PAIRS, _convolve_orders, \
        _zero_coordinate_factor
    from siltkit.specfun import log_gaussian_kernel_batch, normalized_hermite_all

    r2 = float(np.dot(u, u))
    tau, w_tau = geometric_panels(tau_levels, tau_order)
    log_wp = np.log(w_tau) + log_gaussian_kernel_batch(r2, len(u), tau)
    keep = log_wp > -800.0
    tau, log_wp = tau[keep], log_wp[keep]
    n_tau = len(tau)
    tables = {}
    for i in np.nonzero(u)[0]:
        tables[int(i)] = normalized_hermite_all(K, u[i] / np.sqrt(tau))
    zero_factor = _zero_coordinate_factor(u, K)
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


# Collapsed Sobolev orders with every coordinate convolved by the per-order
# loop: the form siltkit.sobolev used before the zero-offset coordinates
# became one Toeplitz GEMM.  It shares everything else with the library, so
# it checks the GEMM alone.

def collapsed_orders_convolution_loop(u, K, tau_levels=34, tau_order=6):
    """Raw per-order integrals of ``siltkit.sobolev._norm_orders_collapsed``,
    with the zero-offset factor tiled per pair and every nonzero coordinate
    folded in by ``_convolve_orders``."""
    from siltkit.quadrature import geometric_panels
    from siltkit.sobolev import _CHUNK_PAIRS, _convolve_orders, \
        _shift_integrals, _zero_coordinate_factor
    from siltkit.specfun import log_gaussian_kernel_batch, normalized_hermite_all

    r2 = float(np.dot(u, u))
    tau, w_tau = geometric_panels(tau_levels, tau_order)
    log_wp = np.log(w_tau) + log_gaussian_kernel_batch(r2, len(u), tau)
    keep = log_wp > -800.0
    tau, log_wp = tau[keep], log_wp[keep]
    n_tau = len(tau)
    tables = [normalized_hermite_all(K, u[i] / np.sqrt(tau))
              for i in np.nonzero(u)[0]]
    zero_factor = _zero_coordinate_factor(u, K)
    with np.errstate(under="ignore"):
        mass_1d = float(np.dot(np.exp(log_wp), 1.0 - tau))
    acc = np.zeros(K + 1)
    acc[0] = mass_1d * mass_1d
    for lo in range(0, n_tau * n_tau, _CHUNK_PAIRS):
        ia, ib = np.divmod(np.arange(lo, min(lo + _CHUNK_PAIRS, n_tau * n_tau)),
                           n_tau)
        with np.errstate(under="ignore"):
            pair_w = np.exp(log_wp[ia] + log_wp[ib])
        s_coef = np.tile(zero_factor, (len(ia), 1))
        for table in tables:
            s_coef = _convolve_orders(s_coef, table[:, ia].T * table[:, ib].T)
        shift = _shift_integrals(tau[ia], tau[ib], K)
        acc[1:] += pair_w @ (shift[:, 1:] * s_coef[:, 1:])
    return acc


# Collapsed Sobolev orders over every ordered gap pair: the form
# siltkit.sobolev used before each unordered pair was visited once with
# weight 2.  It shares everything else with the library, so it checks the
# pair folding alone.

def collapsed_orders_ordered_pairs(u, K, tau_levels=34, tau_order=6):
    """Raw per-order integrals of ``siltkit.sobolev._norm_orders_collapsed``,
    with the pairs (i, j) and (j, i) summed separately."""
    from siltkit.quadrature import geometric_panels
    from siltkit.sobolev import _CHUNK_PAIRS, _convolve_orders, \
        _shift_integrals, _zero_coordinate_factor
    from siltkit.specfun import log_gaussian_kernel_batch, normalized_hermite_all

    r2 = float(np.dot(u, u))
    tau, w_tau = geometric_panels(tau_levels, tau_order)
    log_wp = np.log(w_tau) + log_gaussian_kernel_batch(r2, len(u), tau)
    keep = log_wp > -800.0
    tau, log_wp = tau[keep], log_wp[keep]
    n_tau = len(tau)
    tables = [normalized_hermite_all(K, u[i] / np.sqrt(tau))
              for i in np.nonzero(u)[0]]
    # the zero-offset coordinates give every pair the same row, so the first
    # convolution is g @ T with T[i, k] = row[k - i] for k >= i, else 0
    lag = np.abs(np.subtract.outer(np.arange(K + 1), np.arange(K + 1)))
    zero_toeplitz = np.triu(_zero_coordinate_factor(u, K)[lag])
    # order-0: exact factorization through the 1-d mass quadrature
    with np.errstate(under="ignore"):
        mass_1d = float(np.dot(np.exp(log_wp), 1.0 - tau))
    acc = np.zeros(K + 1)
    acc[0] = mass_1d * mass_1d
    for lo in range(0, n_tau * n_tau, _CHUNK_PAIRS):
        ia, ib = np.divmod(np.arange(lo, min(lo + _CHUNK_PAIRS, n_tau * n_tau)),
                           n_tau)
        with np.errstate(under="ignore"):
            pair_w = np.exp(log_wp[ia] + log_wp[ib])
        pair_rows = (table[:, ia].T * table[:, ib].T for table in tables)
        s_coef = next(pair_rows) @ zero_toeplitz
        for g in pair_rows:
            s_coef = _convolve_orders(s_coef, g)
        shift = _shift_integrals(tau[ia], tau[ib], K)
        acc[1:] += pair_w @ (shift[:, 1:] * s_coef[:, 1:])
    return acc


def path_interpolation_gather(path, t):
    """Path.at as it was before its stencil was shared: the cell index and
    weight are searched again on every call, and the values are gathered as
    2-d rows."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    idx = np.clip(np.searchsorted(path.times, t, side="right") - 1, 0, path.m - 1)
    left = path.times[idx]
    span = path.times[idx + 1] - left
    lam = ((t - left) / span)[:, None]
    return path.values[idx] + lam * (path.values[idx + 1] - path.values[idx])


# Adaptive refinement with one integrand call per box: the form
# siltkit.quadrature used before boxes were evaluated in batches.  Each push
# evaluates the box and its four halves on their own, so a child's one-panel
# estimate is computed again rather than taken from its parent.

def _cell_apply(f, cell, box, gl):
    """Gauss-Legendre estimate of the integral of f over one sub-box of a cell.

    For 'rect' cells the box lives directly in (s, t).  For 'tri' cells the
    box lives in the unit (a, b) square mapped by s = c0 + h a,
    t = s + b (c1 - s) with Jacobian h^2 (1 - a); splitting boxes toward b = 0
    chases the t -> s edge where log-type singularities sit.
    """
    kind, c0, c1, d0, d1 = cell
    x, w = gl
    lo_a, hi_a, lo_b, hi_b = box
    xa = lo_a + (hi_a - lo_a) * x
    xb = lo_b + (hi_b - lo_b) * x
    A, B = np.meshgrid(xa, xb, indexing="ij")
    W = np.outer(w, w) * (hi_a - lo_a) * (hi_b - lo_b)
    if kind == "rect":
        s = c0 + (c1 - c0) * A
        t = d0 + (d1 - d0) * B
        jac = (c1 - c0) * (d1 - d0)
    else:
        h = c1 - c0
        s = c0 + h * A
        t = s + B * (c1 - s)
        jac = h * h * (1.0 - A)
    return float(np.sum(W * jac * f(s.ravel(), t.ravel()).reshape(s.shape)))


def adaptive_partition_integral_per_box(f, cells, rel_tol: float = 1e-6,
                                        max_refinements: int = 40000) -> float:
    """Greedy adaptive integral of a vectorized f(s, t) over starting cells.

    Each parameter box is scored by comparing its one-panel estimate against
    both directional bisections; the worse disagreement picks the split
    direction, so refinement toward edge singularities grades the boxes
    anisotropically instead of exploding a quadtree along the edge.  Boxes
    are split worst-first until the summed scores fall under rel_tol times
    the running total (boxes narrower than 1e-14 on a side score 0).  Ties
    break on insertion order, so the result is deterministic.
    """
    gl = _unit_gauss_legendre(8)

    def splits(box):
        lo_a, hi_a, lo_b, hi_b = box
        ma, mb = 0.5 * (lo_a + hi_a), 0.5 * (lo_b + hi_b)
        return (
            [(lo_a, ma, lo_b, hi_b), (ma, hi_a, lo_b, hi_b)],
            [(lo_a, hi_a, lo_b, mb), (lo_a, hi_a, mb, hi_b)],
        )

    heap = []
    seq = 0
    total = 0.0
    err_total = 0.0

    def push(cell, box):
        nonlocal seq, total, err_total
        coarse = _cell_apply(f, cell, box, gl)
        in_a, in_b = splits(box)
        fine_a = [_cell_apply(f, cell, child, gl) for child in in_a]
        fine_b = [_cell_apply(f, cell, child, gl) for child in in_b]
        err_a = abs(sum(fine_a) - coarse)
        err_b = abs(sum(fine_b) - coarse)
        if err_a >= err_b:
            children, value, err = in_a, sum(fine_a), err_a
        else:
            children, value, err = in_b, sum(fine_b), err_b
        if (box[1] - box[0]) < 1e-14 or (box[3] - box[2]) < 1e-14:
            err = 0.0
        total += value
        err_total += err
        heapq.heappush(heap, (-err, seq, cell, children, value))
        seq += 1

    for cell in cells:
        push(cell, (0.0, 1.0, 0.0, 1.0))
    refinements = 0
    while heap and err_total > rel_tol * max(abs(total), 1e-300):
        if refinements >= max_refinements:
            raise ConvergenceError(
                f"adaptive refinement exceeded {max_refinements} splits "
                f"(remaining error {err_total:.3e} on total {total:.6e})"
            )
        neg_err, _, cell, children, value = heapq.heappop(heap)
        err_total += neg_err  # removes the popped box's score
        if -neg_err <= 0:
            break
        total -= value
        for child in children:
            push(cell, child)
        refinements += 1
    return total


# The entropy bound's log integral as siltkit.transport computed it before
# its fixed graded rule: the integrand on (s, t) from the grid overlaps,
# driven by the adaptive refiner over the grid-cell partition.

def log_sigma2_integrand(u, d: int, n: int):
    """log(sigma^2(s, t)) * kernel_d(t - s, u) on the uniform n-grid, as a
    vectorized f(s, t); sigma^2 is clipped at 1e-300."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    r2 = float(np.dot(u, u))
    grid = TimeGrid.make_uniform(n)

    def integrand(s, t):
        _, sigma2 = grid_overlaps(s, t, grid)
        sigma2 = np.clip(sigma2, 1e-300, None)
        return np.log(sigma2) * np.exp(log_gaussian_kernel_batch(r2, d, t - s))

    return integrand


def log_sigma2_integral_adaptive(u, d: int, n: int, rel_tol: float) -> float:
    """The log sigma^2 integral by adaptive refinement of the grid cells,
    through the module's adaptive_partition_integral (a test may swap it)."""
    cells = triangle_grid_cells(TimeGrid.make_uniform(n).t)
    return adaptive_partition_integral(log_sigma2_integrand(u, d, n), cells,
                                       rel_tol=rel_tol, max_refinements=60000)


# Plain Sinkhorn, checked every 20 sweeps, as it was before the Gibbs kernel
# was built in one buffer: each build allocates the intermediate arrays of
# the expression.

_SINKHORN_CHECK_EVERY = 20


def sinkhorn_log_temporaries(cost: np.ndarray, reg: float, max_iterations: int,
                 tolerance: float):
    """Alternating dual scaling against a cost matrix, uniform marginals.

    The scaling vectors are iterated in linear space (two matrix-vector
    products per sweep) and absorbed into the log-domain potentials whenever
    they threaten to overflow, which keeps the scheme stable at small
    regularization without paying a log-sum-exp per entry.

    Returns (transport cost <P, C>, marginal L1 violation, iterations);
    raises ConvergenceError when the violation cannot be pushed under the
    tolerance within the iteration budget.
    """
    n, m = cost.shape
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    f = np.zeros(n)
    g = np.zeros(m)
    with np.errstate(under="ignore"):
        kernel = np.exp(-(cost - f[:, None] - g[None, :]) / reg)
    u = np.ones(n)
    v = np.ones(m)
    err = np.inf
    it = 0
    tiny = 1e-300

    def absorb():
        nonlocal f, g, kernel, u, v
        f = f + reg * np.log(np.maximum(u, tiny))
        g = g + reg * np.log(np.maximum(v, tiny))
        with np.errstate(under="ignore"):
            kernel = np.exp(-(cost - f[:, None] - g[None, :]) / reg)
        u = np.ones(n)
        v = np.ones(m)

    while it < max_iterations:
        for _ in range(_SINKHORN_CHECK_EVERY):
            u = a / np.maximum(kernel @ v, tiny)
            v = b / np.maximum(kernel.T @ u, tiny)
            it += 1
            if it >= max_iterations:
                break
        if max(u.max(), v.max()) > 1e150 or min(u.min(), v.min()) < 1e-150:
            absorb()
        row_sums = u * (kernel @ v)
        err = float(np.sum(np.abs(row_sums - a)))
        if err < tolerance:
            break
    if err >= tolerance:
        raise ConvergenceError(
            f"entropic transport stopped at marginal violation {err:.3e} "
            f"after {it} iterations (tolerance {tolerance:.1e})"
        )
    absorb()  # fold the final scalings into the potentials; kernel is now the plan
    plan_cost = float(u @ ((kernel * cost) @ v))
    return plan_cost, err, it


def normalized_hermite_log_sign_own_loop(n: int, x):
    """The overflow-rescaled normalized Hermite recurrence as
    ``specfun.normalized_hermite_log_sign`` ran it in a loop of its own, with
    the step (x G_m - sqrt(m) G_{m-1}) / sqrt(m+1) the library now takes:
    (sign, log|H_n(x)/sqrt(n!)|)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g_prev = np.ones_like(x)
    shift = np.zeros_like(x)
    if n == 0:
        g = g_prev
    else:
        g = x.copy()
        for m in range(1, n):
            g, g_prev = (x * g - math.sqrt(m) * g_prev) / math.sqrt(m + 1), g
            big = np.abs(g) > 1e150
            if big.any():
                scale = np.where(big, 1e-150, 1.0)
                g = g * scale
                g_prev = g_prev * scale
                shift = shift + np.where(big, 150.0 * math.log(10.0), 0.0)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(g)) + shift
    return np.sign(g), log_abs


# The centered and renormalized silt variants and the planar Gaussian
# mollifier, as siltkit.siltcore exported them while only tests called them:
# each variant is silt_adjustment applied to silt_epsilon, behind its own
# argument checks.

def silt_centered_2d(path, eps: float, quad) -> float:
    """Planar functional at the origin minus its deterministic mean."""
    if path.d != 2:
        raise ValueError(f"centered functional is planar only, got d={path.d}")
    return silt_adjustment(silt_epsilon(path, eps, 0, quad), eps, 2, 0.0)[0]


def _renormalized(path, eps: float, u, quad, d: int) -> float:
    if path.d != d:
        raise ValueError(f"expected a {d}-d path, got d={path.d}")
    u = _as_offset(u, d)
    r = float(np.linalg.norm(u))
    if r == 0:
        raise ValueError("offset must be nonzero")
    if d == 3 and r >= 1:
        raise ValueError("offset norm must be < 1 for the log scaling")
    return silt_adjustment(silt_epsilon(path, eps, u, quad), eps, d, r)[0]


def renormalized_2d(path, eps: float, u, quad) -> float:
    """Planar functional at offset u minus the (1/pi) log(1/|u|) divergence."""
    return _renormalized(path, eps, u, quad, 2)


def renormalized_3d(path, eps: float, u, quad) -> float:
    """3-d functional minus 1/(2 pi |u|), scaled by log(1/|u|)^(-1/2)."""
    return _renormalized(path, eps, u, quad, 3)


def gaussian_kernel_batch(offsets, t, d=None):
    """Heat kernel for an array of offsets with last axis of length ``d``."""
    offsets = np.asarray(offsets, dtype=float)
    if d is None:
        d = offsets.shape[-1]
    sq = np.sum(offsets * offsets, axis=-1)
    return np.exp(log_gaussian_kernel_batch(sq, d, t))


def conditional_kernel(s: float, t: float, grid, eps: float, u, x) -> float:
    """E[p_eps(w(t) - w(s) - u) | w at the grid times = x, shape (n, d)]: the
    Gaussian kernel at variance eps + sigma^2 of the projected increment
    minus u.  The overlaps alpha_j and sigma^2 come from a scalar loop over
    the cells, not from marginals.grid_overlaps, so summed over a rule at
    eps = 0 this checks marginal_density_q_batch independently."""
    if not 0.0 <= s < t <= 1.0 or eps < 0:
        raise ValueError(f"need 0 <= s < t <= 1 and eps >= 0, got {s}, {t}, {eps}")
    x = np.asarray(x, dtype=float)
    arg = -np.atleast_1d(np.asarray(u, dtype=float))
    shares = []
    for j, (lo, hi) in enumerate(zip(grid.t[:-1], grid.t[1:])):
        alpha = max(min(t, hi) - max(s, lo), 0.0)
        arg = arg + alpha / (hi - lo) * (x[j] - (x[j - 1] if j else 0.0))
        shares.append(alpha * alpha / (hi - lo))
    variance = eps + max((t - s) - sum(shares), 0.0)
    if variance == 0.0:
        if not np.any(arg):
            raise ValueError("degenerate kernel: zero variance at zero argument")
        return 0.0
    return float(np.exp(log_gaussian_kernel_batch(float(arg @ arg), x.shape[1],
                                                  variance)))


def hessian_matrix_diagonals(n: int):
    """(diagonal, off-diagonal) of the Hessian of the Brownian marginal's
    negative log-density on the uniform n-grid, per coordinate: 2n except a
    final n on the diagonal, -n off it."""
    diag = np.full(n, 2.0 * n)
    diag[-1] = float(n)
    return diag, np.full(n - 1, -float(n))


def hessian_eigenvalues(n: int) -> np.ndarray:
    """Its closed-form spectrum 2n (1 - cos((2j+1) pi / (2n+1))), ascending."""
    j = np.arange(n)
    return 2.0 * n * (1.0 - np.cos((2.0 * j + 1.0) * np.pi / (2.0 * n + 1.0)))


def gaussian_mollifier(x, eps: float):
    """Planar Gaussian mollifier in variance parameterization: the density of
    N(0, eps I_2), dynkin_T's kernel.  Within the scale family
    delta^-2 q(./delta) this is the member at delta = sqrt(eps)."""
    return gaussian_kernel_batch(np.asarray(x, dtype=float), eps, d=2)


# Per-node references for the pathwise functionals, as siltcore computed them
# before its per-rule plans: every node's times are searched and interpolated
# on their own (path_interpolation_gather), and every kernel and Hermite
# factor is evaluated at every node, for every scale, offset and index.  No
# distinct-time map, no shared factor and no Path.at.

def silt_epsilon_per_node(path, scales, u, quad) -> list:
    """silt_epsilon at each scale, as a list of floats."""
    s, t = quad.nodes[:, 0], quad.nodes[:, 1]
    inc = path_interpolation_gather(path, t) - path_interpolation_gather(
        path, s) - np.asarray(u, dtype=float)
    sq = np.sum(inc * inc, axis=-1)
    return [float(np.dot(quad.weights, np.exp(log_gaussian_kernel_batch(
        sq, path.d, e)))) for e in scales]


def dynkin_T_per_node(path, scales, phi, nodes, weights) -> list:
    """dynkin_T of order len(nodes[0]) at each scale, as a list of floats;
    the kernel is the planar Gaussian mollifier."""
    columns = tuple(nodes.T)
    points = [path_interpolation_gather(path, c) for c in columns]
    phi_vals = np.broadcast_to(np.asarray(phi(*columns), dtype=float),
                               columns[0].shape)
    out = []
    for e in scales:
        product = 1
        for a, b in zip(points[:-1], points[1:]):
            product = product * gaussian_kernel_batch(b - a, e, d=2)
        out.append(float(np.dot(weights, phi_vals * product)))
    return out


def chaos_term_per_node(path, idx, offsets, quad) -> list:
    """chaos_term at each row of offsets, as a list of floats."""
    s, t = quad.nodes[:, 0], quad.nodes[:, 1]
    tau = t - s
    sqrt_tau = np.sqrt(tau)
    inc = path_interpolation_gather(path, t) - path_interpolation_gather(path, s)
    offsets = np.array(offsets, dtype=float, ndmin=2)
    r2 = np.array([float(np.dot(v, v)) for v in offsets])[:, None]
    log_mag = log_gaussian_kernel_batch(r2, path.d, tau) + np.log(quad.weights)
    sign = np.ones_like(log_mag)
    for j, n in enumerate(idx):
        if n == 0:
            continue
        sg_w, lg_w = normalized_hermite_log_sign_own_loop(n, inc[:, j] / sqrt_tau)
        sg_u, lg_u = normalized_hermite_log_sign_own_loop(
            n, offsets[:, j, None] / sqrt_tau)
        sign *= sg_w * sg_u
        log_mag += lg_w + lg_u
    out = []
    for sg, lm in zip(sign, log_mag):
        peak = np.max(lm)
        if not np.isfinite(peak):
            out.append(0.0)
            continue
        terms = sg * np.exp(lm - peak)
        out.append(math.exp(peak) * math.fsum(terms[terms != 0.0].tolist()))
    return out


# The shift integrals column by column, as sobolev._shift_integrals wrote them
# before it filled an order-major buffer.

def shift_integrals_by_column(t1, t2, K):
    lo, hi = np.minimum(t1, t2), np.maximum(t1, t2)
    excess, root = t1 + t2 - 1.0, np.sqrt(t1 * t2)
    h = np.where(excess > 0.0, 1.0 - hi, lo)
    a, b = np.maximum(excess, 0.0) / root, lo / root
    e0, e1 = np.maximum(-excess, 0.0), 1.0 - hi
    out = np.empty((len(t1), K + 1))
    a_k, b_k, h_k, b_sum = np.ones_like(a), np.ones_like(a), np.ones_like(a), 0.0
    with np.errstate(under="ignore"):
        for k in range(K + 1):
            if k:
                a_k, b_k = a_k * a, b_k * b
                h_k = b * h_k + a_k
                b_sum = a * b_sum + k * b_k
            out[:, k] = (2.0 * h / ((k + 1) * (k + 2))
                         * (e0 * h_k + e1 * (b_sum + h_k)) + (hi - lo) * e1 * b_k)
    return out
