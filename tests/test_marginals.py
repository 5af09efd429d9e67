import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad

from siltkit.marginals import (
    TimeGrid,
    grid_overlaps,
    marginal_density_q_batch,
    sample_mu_n,
)
from siltkit.quadrature import SimplexQuadrature
from siltkit.rng import stream_generator
from siltkit.specfun import simplex_moment_integral

from conftest import axis_offset
from exact_oracles import conditional_kernel, gaussian_kernel_batch, \
    marginal_density_q_einsum


def exact_projection_residual(s, t, grid):
    """Squared L2 distance from the indicator of [s, t] to the span of cell
    indicators, via exact piecewise integration and a least-squares solve.

    Independent of the overlap formulas: inner products come from merged
    breakpoint intervals, coefficients from the normal equations.
    """
    nodes = grid.t
    breaks = np.unique(np.concatenate([nodes, [s, t]]))
    n = grid.n
    gram = np.zeros((n, n))
    rhs = np.zeros(n)
    norm_sq = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        width = hi - lo
        mid = 0.5 * (lo + hi)
        ind = 1.0 if (s <= mid <= t) else 0.0
        cell = np.searchsorted(nodes, mid) - 1
        gram[cell, cell] += width
        rhs[cell] += width * ind
        norm_sq += width * ind
    coeffs = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    residual = norm_sq - 2 * coeffs @ rhs + coeffs @ gram @ coeffs
    return max(residual, 0.0)


def bridge_conditional_mc(s, t, grid, eps, u, x, count, seed):
    """Conditional-simulation estimate of E[kernel_eps(W(t)-W(s)-u) | grid].

    Simulates W(s), W(t) from Brownian bridges between the pinned grid
    values, never using the projection decomposition.
    """
    gen = stream_generator(seed, 17)
    nodes = grid.t
    values = np.vstack([np.zeros((1, x.shape[1])), x])
    d = x.shape[1]
    i = np.searchsorted(nodes, s, side="right") - 1
    j = np.searchsorted(nodes, t, side="right") - 1
    j = min(j, grid.n - 1)

    def bridge(time, cell, count):
        left, right = nodes[cell], nodes[cell + 1]
        lam = (time - left) / (right - left)
        mean = values[cell] + lam * (values[cell + 1] - values[cell])
        var = (time - left) * (right - time) / (right - left)
        return mean + math.sqrt(max(var, 0.0)) * gen.standard_normal((count, d))

    ws = bridge(s, i, count)
    if i == j:
        # refine inside one cell: W(t) given W(s) and the right endpoint
        right = nodes[i + 1]
        lam = (t - s) / (right - s)
        mean = ws + lam * (values[i + 1] - ws)
        var = (t - s) * (right - t) / (right - s)
        wt = mean + math.sqrt(max(var, 0.0)) * gen.standard_normal((count, d))
    else:
        wt = bridge(t, j, count)
    kernel = gaussian_kernel_batch(wt - ws - u, eps)
    return float(np.mean(kernel)), float(np.std(kernel, ddof=1)
                                         / math.sqrt(count))


class TestTimeGrid:
    def test_uniform(self):
        grid = TimeGrid.make_uniform(4)
        assert grid.n == 4 and grid.uniform
        assert np.allclose(grid.cell_lengths, 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.5]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ValueError):
            TimeGrid.make_uniform(0)

    def test_uniform_read_from_the_nodes(self, quad64):
        # a uniform grid given by its nodes is uniform and q accepts it; a
        # non-uniform one cannot be declared uniform
        grid = TimeGrid(np.linspace(0.0, 1.0, 3))
        assert grid.uniform and not TimeGrid(np.array([0.0, 0.3, 1.0])).uniform
        points = sample_mu_n(2, 2, 0, 4)
        assert marginal_density_q_batch(np.array([0.3, 0.0]), grid, points,
                                        quad64).tolist() == \
            marginal_density_q_batch(np.array([0.3, 0.0]),
                                     TimeGrid.make_uniform(2), points,
                                     quad64).tolist()
        with pytest.raises(TypeError):
            TimeGrid(np.array([0.0, 0.3, 1.0]), uniform=True)


class TestOverlapDecomposition:
    """grid_overlaps, one increment at a time."""

    def test_hand_example(self):
        grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
        alpha, sigma2 = grid_overlaps(0.25, 0.75, grid)
        assert np.allclose(alpha[0], [0.25, 0.25])
        assert sigma2[0] == pytest.approx(0.25, abs=1e-15)

    def test_grid_aligned_endpoints(self):
        grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
        assert grid_overlaps(0.5, 1.0, grid)[1][0] == pytest.approx(
            0.0, abs=1e-15)

    def test_single_cell(self):
        grid = TimeGrid.make_uniform(8)
        sigma2 = grid_overlaps(0.3, 0.35, grid)[1][0]
        expected = 0.05 * (1 - 0.05 / 0.125)
        assert sigma2 == pytest.approx(expected, abs=1e-15)
        assert sigma2 == pytest.approx(
            exact_projection_residual(0.3, 0.35, grid), abs=1e-12)

    def test_domain_error(self):
        grid = TimeGrid.make_uniform(2)
        with pytest.raises(ValueError):
            grid_overlaps(0.7, 0.7, grid)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariants_and_residual_oracle(self, data):
        n = data.draw(st.integers(1, 6))
        interior = sorted(data.draw(st.lists(
            st.floats(0.05, 0.9), min_size=n - 1, max_size=n - 1,
            unique=True))) if n > 1 else []
        nodes = np.array([0.0] + interior + [1.0])
        if np.any(np.diff(nodes) < 1e-3):
            return
        grid = TimeGrid(nodes)
        s = data.draw(st.floats(0.0, 0.98))
        t = data.draw(st.floats(s + 0.01, 1.0))
        (alpha,), (sigma2,) = grid_overlaps(s, t, grid)
        assert np.all(alpha >= 0)
        assert np.all(alpha <= grid.cell_lengths + 1e-15)
        assert sum(alpha) == pytest.approx(t - s, abs=1e-12)
        assert 0.0 <= sigma2 <= (t - s) + 1e-15
        assert sigma2 == pytest.approx(
            exact_projection_residual(s, t, grid), abs=1e-10)


class TestConditionalKernel:
    """The conditional-kernel oracle that checks marginal_density_q_batch."""

    def test_zero_values(self):
        grid = TimeGrid.make_uniform(3)
        u = np.array([0.2, -0.1])
        x = np.zeros((3, 2))
        sigma2 = grid_overlaps(0.1, 0.6, grid)[1][0]
        expected = float(gaussian_kernel_batch(-u, 0.05 + sigma2))
        got = conditional_kernel(0.1, 0.6, grid, 0.05, u, x)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_tower_collapse_on_grid(self):
        # both endpoints on the grid: sigma2 = 0, kernel of the plain
        # increment at variance eps
        grid = TimeGrid.make_uniform(4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3)) * 0.3
        u = np.array([0.1, 0.0, -0.2])
        got = conditional_kernel(0.25, 0.75, grid, 0.07, u, x)
        expected = float(gaussian_kernel_batch(x[2] - x[0] - u, 0.07))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_degenerate_kernel_error(self):
        grid = TimeGrid.make_uniform(2)
        x = np.zeros((2, 2))
        with pytest.raises(ValueError):
            conditional_kernel(0.5, 1.0, grid, 0.0, np.zeros(2), x)
        assert conditional_kernel(0.5, 1.0, grid, 0.0, np.array([0.3, 0.0]),
                                  x) == 0.0

    def test_matches_bridge_simulation(self):
        # conditional-simulation oracle over mixed same-cell/cross-cell cases
        rng = np.random.default_rng(42)
        configs = [
            (2, 2, 0.2, 0.6, 0.05),
            (3, 2, 0.15, 0.45, 0.02),
            (4, 3, 0.3, 0.33, 0.1),   # same cell
            (2, 4, 0.05, 0.95, 0.08),
            (5, 2, 0.55, 0.62, 0.04),
        ]
        for n, d, s, t, eps in configs:
            grid = TimeGrid.make_uniform(n)
            x = np.cumsum(rng.standard_normal((n, d)) * math.sqrt(1 / n),
                          axis=0)
            u = rng.standard_normal(d) * 0.2
            exact = conditional_kernel(s, t, grid, eps, u, x)
            mc, se = bridge_conditional_mc(s, t, grid, eps, u, x, 200_000, 7)
            assert abs(mc - exact) <= 3 * se


def oblique_offset(r, d):
    """Offset of norm r touching every coordinate, so no column drops out."""
    direction = np.linspace(1.0, -0.5, d) if d > 1 else np.ones(1)
    return r * direction / np.linalg.norm(direction)


def assert_matches_einsum(u, grid, points, quad, rel=1e-12):
    got = marginal_density_q_batch(u, grid, points, quad)
    ref = marginal_density_q_einsum(u, grid, points, quad)
    assert got.shape == ref.shape
    assert np.all(ref > 0)
    worst = float(np.max(np.abs(got - ref) / ref))
    assert worst <= rel, worst


class TestMarginalDensity:
    def test_zero_point_against_raw_quadrature(self, quad64):
        d, n, r = 4, 2, 0.3
        u = axis_offset(r, d)
        grid = TimeGrid.make_uniform(n)
        got = marginal_density_q_batch(u, grid, np.zeros((1, n, d)), quad64)[0]

        def sigma2(s, t):
            alpha = np.clip(np.minimum(t, grid.t[1:])
                            - np.maximum(s, grid.t[:-1]), 0, None)
            return (t - s) - float(np.sum(alpha * alpha)) * n

        ref, _ = dblquad(
            lambda t, s: (2 * math.pi * sigma2(s, t)) ** (-0.5 * d)
            * math.exp(-r * r / (2 * sigma2(s, t))),
            0, 1, lambda s: s, 1, epsabs=1e-12, epsrel=1e-10)
        assert got == pytest.approx(ref, rel=2e-3)

    def test_single_cell_reduction(self, quad64):
        # n=1: alpha = t-s, sigma2 = (t-s)(1-(t-s)), one-dimensional formula
        d, r = 3, 0.4
        u = axis_offset(r, d)
        grid = TimeGrid.make_uniform(1)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, d))
        got = marginal_density_q_batch(u, grid, x[None], quad64)[0]

        def f(t, s):
            tau = t - s
            var = tau * (1 - tau)
            arg = tau * x[0] - u
            if var < 1e-14:
                return 0.0
            return float(gaussian_kernel_batch(arg, var))

        ref, _ = dblquad(f, 0, 1, lambda s: s, 1, epsabs=1e-11, epsrel=1e-9)
        assert got == pytest.approx(ref, rel=2e-3)

    def test_zero_offset_rejected(self, quad64):
        grid = TimeGrid.make_uniform(2)
        with pytest.raises(ValueError):
            marginal_density_q_batch(np.zeros(3), grid, np.zeros((1, 2, 3)),
                                     quad64)

    def test_non_uniform_grid_rejected(self, quad64):
        grid = TimeGrid(np.array([0.0, 0.3, 1.0]))
        with pytest.raises(ValueError):
            marginal_density_q_batch(np.ones(2), grid, np.zeros((1, 2, 2)),
                                     quad64)

    def test_node_on_two_grid_times_is_refused(self):
        # a quadrature node sitting exactly on two grid times has sigma2 = 0:
        # a Dirac kernel there, which q refuses rather than repairs
        grid = TimeGrid.make_uniform(3)
        base = SimplexQuadrature.gauss_legendre(24)
        nodes = np.vstack([base.nodes, [[1 / 3, 2 / 3]]])
        weights = np.concatenate([base.weights * (0.5 - 1e-4) / 0.5, [1e-4]])
        dirty = SimplexQuadrature(nodes, weights)
        x = np.array([[0.05, 0.0], [0.3, -0.2], [0.1, 0.4]])
        node = re.escape(f"(s, t) = ({1 / 3:.17g}, {2 / 3:.17g})")
        with pytest.raises(ValueError, match=node + ".* n = 3"):
            marginal_density_q_batch(np.array([0.25, 0.1]), grid, x[None], dirty)
        marginal_density_q_batch(np.array([0.25, 0.1]), grid, x[None], base)

    def test_everywhere_finite_nonnegative(self, quad64):
        grid = TimeGrid.make_uniform(3)
        points = sample_mu_n(3, 4, 11, 200)
        q = marginal_density_q_batch(axis_offset(0.35, 4), grid, points,
                                     quad64)
        assert np.all(np.isfinite(q)) and np.all(q >= 0)

    def test_grid_refinement_diagnostic_logged(self, quad64):
        # diagnostic only: the marginal density at the grid values of a fine
        # path and the path-level mollified functional at matched smoothing
        # should land in the same order of magnitude (logged, not asserted)
        from siltkit.siltcore import sample_path, silt_epsilon
        d, n = 4, 4
        u = axis_offset(0.4, d)
        grid = TimeGrid.make_uniform(n)
        path = sample_path(2048, d, 314)
        x = path.at(grid.t[1:])
        q = marginal_density_q_batch(u, grid, x[None], quad64)[0]
        typical_sigma2 = 1.0 / (6.0 * n)  # mean residual variance scale
        mollified = silt_epsilon(path, typical_sigma2, u, quad64)
        print(f"grid-refinement diagnostic: q={q:.4f}, "
              f"mollified={mollified:.4f}, ratio={q / mollified:.2f}")
        assert math.isfinite(q) and math.isfinite(mollified)

    @pytest.mark.parametrize("d,n", [(4, 1), (4, 3), (5, 2)])
    def test_tower_property(self, d, n, quad64):
        u = axis_offset(0.35, d)
        grid = TimeGrid.make_uniform(n)
        points = sample_mu_n(n, d, 1000 + 10 * d + n, 8000)
        q = marginal_density_q_batch(u, grid, points, quad64)
        m = simplex_moment_integral(0.0, d, float(np.linalg.norm(u)))
        mc = float(np.mean(q))
        se = float(np.std(q, ddof=1) / math.sqrt(len(q)))
        assert abs(mc - m) <= 3 * se

    # the GEMM form of q against the explicit sum of squares
    @pytest.mark.parametrize("d", [1, 2, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_dimensions_and_offsets(self, n, d, quad64):
        grid = TimeGrid.make_uniform(n)
        points = sample_mu_n(n, d, 70 + 10 * n + d, 200)
        for r in (1e-3, 0.2, 2.0):
            assert_matches_einsum(oblique_offset(r, d), grid, points, quad64)

    @pytest.mark.parametrize("count", [1, 511, 513, 1025])
    def test_counts_across_chunk_edges(self, count):
        grid = TimeGrid.make_uniform(3)
        quad = SimplexQuadrature.gauss_legendre(24)
        points = sample_mu_n(3, 4, 5, count)
        for r in (1e-3, 0.2, 2.0):
            assert_matches_einsum(oblique_offset(r, 4), grid, points, quad)

    def test_reused_chunk_buffer(self):
        # a short last chunk reads only its own columns of the shared block.
        # On the diagonal rule the underflow cut acts, and one sample scaled
        # by 1e4 widens the whole batch's reach: the whole call keeps 984
        # nodes, its later parts 936, and the extra zero terms move no bit
        grid = TimeGrid.make_uniform(2)
        far = sample_mu_n(2, 4, 9, 1100)
        far[0] *= 1e4
        for quad, points, r in [
                (SimplexQuadrature.gauss_legendre(16), sample_mu_n(2, 4, 9, 1100), 0.3),
                (SimplexQuadrature.geometric_diagonal(36, 4, 12), far, 0.05)]:
            u = oblique_offset(r, 4)
            whole = marginal_density_q_batch(u, grid, points, quad)
            for lo in (0, 512, 1024):
                part = marginal_density_q_batch(u, grid, points[lo:lo + 512], quad)
                assert np.array_equal(whole[lo:lo + 512], part)

    @pytest.mark.parametrize("order,count", [(24, 300), (64, 300), (128, 40)])
    def test_rules(self, order, count):
        # the 128^2 rule reaches sigma^2 ~ 8e-9, where a rounding error in
        # the expanded square is amplified most in the exponent
        quad = SimplexQuadrature.gauss_legendre(order)
        for n in (2, 4):
            grid = TimeGrid.make_uniform(n)
            points = sample_mu_n(n, 4, order + n, count)
            for r in (1e-3, 0.2, 2.0):
                assert_matches_einsum(oblique_offset(r, 4), grid, points, quad)

    def test_rule_with_on_grid_node(self):
        # nodes with one end on a grid time keep sigma^2 ~ t - s, however
        # small the gap, so q takes them as they are: only a node on two
        # grid times is refused
        grid = TimeGrid.make_uniform(3)
        base = SimplexQuadrature.gauss_legendre(24)
        extra = np.array([[1 / 3, 0.5], [0.2, 2 / 3], [1 / 3, 1 / 3 + 1e-6],
                          [2 / 3 - 1e-6, 2 / 3]])
        nodes = np.vstack([base.nodes, extra])
        weights = np.concatenate([base.weights * (0.5 - 4e-4) / 0.5,
                                  np.full(len(extra), 1e-4)])
        dirty = SimplexQuadrature(nodes, weights)
        sigma2 = grid_overlaps(extra[:, 0], extra[:, 1], grid)[1]
        assert np.all(sigma2 >= 0.1 * (extra[:, 1] - extra[:, 0]))
        x = np.array([[0.05, 0.0], [0.3, -0.2], [0.1, 0.4]])
        points = np.concatenate([x[None], sample_mu_n(3, 2, 8, 300)])
        for u in (np.array([0.25, 0.1]), oblique_offset(1e-3, 2),
                  oblique_offset(2.0, 2)):
            assert_matches_einsum(u, grid, points, dirty)

    @pytest.mark.parametrize("n", [2, 4])
    def test_diagonal_rule_against_per_node_kernels(self, n):
        # the CLI's rule, on which most near-diagonal nodes are cut before
        # the GEMM: q against a plain sum of conditional kernels over every
        # node of the rule
        quad = SimplexQuadrature.geometric_diagonal(36, 4, 12)
        grid = TimeGrid.make_uniform(n)
        points = sample_mu_n(n, 4, 40 + n, 3)
        for r in (0.02, 0.3, 5.0):
            u = oblique_offset(r, 4)
            got = marginal_density_q_batch(u, grid, points, quad)
            ref = [math.fsum(w * conditional_kernel(s, t, grid, 0.0, u, x)
                             for (s, t), w in zip(quad.nodes, quad.weights))
                   for x in points]
            assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("rule", [
        *(pytest.param((SimplexQuadrature.geometric_diagonal, levels, 4, 12),
                       id=str(levels))
          for levels in (1, 2, 4, 8, 12, 20, 36, 40, 44, 50)),
        *(pytest.param((SimplexQuadrature.gauss_legendre, order), id=f"gl{order}")
          for order in (8, 16, 24, 64, 128))])
    def test_diagonal_rules_keep_every_node(self, rule):
        # q refuses a node with sigma^2 < 1e-12 of its gap t - s; on the CLI's
        # rules and uniform grids up to n = 64 the smallest ratio is 8.3e-5
        # (Gauss-Legendre 64, n = 46), so no command input reaches the refusal
        build, *args = rule
        quad = build(*args)
        s, t = quad.nodes[:, 0], quad.nodes[:, 1]
        for n in range(1, 65):
            sigma2 = grid_overlaps(s, t, TimeGrid.make_uniform(n))[1]
            assert np.all(sigma2 >= 5e-5 * (t - s)), n

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_stress_batch_with_large_increments(self, n, quad64):
        # increments five times their Brownian size: larger terms in the
        # expanded square and more cancellation against |u|^2
        grid = TimeGrid.make_uniform(n)
        points = 5.0 * sample_mu_n(n, 4, 600 + n, 300)
        for r in (1e-3, 0.2, 2.0):
            assert_matches_einsum(oblique_offset(r, 4), grid, points, quad64)


def marginal_batch_to_csv(points: np.ndarray, fp) -> None:
    """Rows are flattened points; columns are labeled x{j}_{coordinate}."""
    points = np.asarray(points, dtype=float)
    count, n, d = points.shape
    header = ",".join(f"x{j + 1}_{c + 1}" for j in range(n) for c in range(d))
    fp.write(header + "\n")
    flat = points.reshape(count, n * d)
    for row in flat:
        fp.write(",".join(f"{v:.17g}" for v in row) + "\n")


def marginal_batch_from_csv(fp) -> np.ndarray:
    header = fp.readline().strip().split(",")
    labels = [tuple(map(int, name[1:].split("_"))) for name in header]
    n = max(j for j, _ in labels)
    d = max(c for _, c in labels)
    data = np.loadtxt(fp, delimiter=",", ndmin=2)
    return data.reshape(len(data), n, d)


class TestSampler:
    def test_brownian_covariance(self):
        n, d = 4, 1
        points = sample_mu_n(n, d, 77, 100_000)
        times = np.arange(1, n + 1) / n
        for i in range(n):
            for j in range(i, n):
                cov = float(np.mean(points[:, i, 0] * points[:, j, 0]))
                target = min(times[i], times[j])
                se = float(np.std(points[:, i, 0] * points[:, j, 0], ddof=1)
                           / math.sqrt(len(points)))
                assert abs(cov - target) <= 3 * se

    def test_mean_zero(self):
        points = sample_mu_n(3, 2, 5, 50_000)
        last = points[:, -1, :]
        se = np.std(last, axis=0, ddof=1) / math.sqrt(len(last))
        assert np.all(np.abs(np.mean(last, axis=0)) <= 3 * se)

    def test_determinism(self):
        a = sample_mu_n(2, 3, 9, 50)
        b = sample_mu_n(2, 3, 9, 50)
        assert np.array_equal(a, b)

    def test_csv_round_trip(self):
        points = sample_mu_n(3, 2, 1, 10)
        buf = io.StringIO()
        marginal_batch_to_csv(points, buf)
        buf.seek(0)
        header = buf.readline().strip()
        assert header.startswith("x1_1,x1_2,x2_1")
        buf.seek(0)
        back = marginal_batch_from_csv(buf)
        assert np.array_equal(points, back)
