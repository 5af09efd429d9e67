import math

import numpy as np
import pytest

from siltkit.quadrature import (
    ConvergenceError,
    SimplexQuadrature,
    adaptive_partition_integral,
    geometric_panels,
    interval_overlap,
    simplex3_gauss_legendre,
    triangle_grid_cells,
)

from exact_oracles import adaptive_partition_integral_per_box


class TestGeometricPanels:
    @pytest.mark.parametrize("levels, order", [(34, 6), (30, 4), (5, 3)])
    def test_weights_sum_to_one(self, levels, order):
        x, w = geometric_panels(levels, order)
        assert len(x) == len(w) == (levels + 1) * order
        assert np.all((x > 0) & (x <= 1)) and np.all(w > 0)
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("levels, order", [(12, 4), (6, 6)])
    def test_each_panel_exact_for_low_degree(self, levels, order):
        x, w = geometric_panels(levels, order)
        edges = [2.0 ** -j for j in range(levels + 1)] + [0.0]
        for p, (hi, lo) in enumerate(zip(edges[:-1], edges[1:])):
            xp = x[p * order:(p + 1) * order]
            wp = w[p * order:(p + 1) * order]
            assert np.all((xp >= lo) & (xp <= hi))
            for j in range(2 * order):
                exact = (hi ** (j + 1) - lo ** (j + 1)) / (j + 1)
                assert float(np.dot(wp, xp ** j)) == pytest.approx(
                    exact, rel=1e-12, abs=1e-300)


class TestIntervalOverlap:
    def test_broadcasts_intervals_against_grid_cells(self):
        gen = np.random.default_rng(3)
        s = gen.uniform(0, 0.9, 40)
        t = s + gen.uniform(0.01, 0.1, 40)
        grid = np.linspace(0.0, 1.0, 8)
        batch = interval_overlap(s[:, None], t[:, None], grid[None, :-1],
                                 grid[None, 1:])
        assert batch.shape == (40, 7)
        for i in range(40):
            for j in range(7):
                assert batch[i, j] == interval_overlap(s[i], t[i], grid[j],
                                                       grid[j + 1])
        # the cells tile [0, 1], so each interval's overlaps sum to its length
        assert np.allclose(batch.sum(axis=1), t - s, rtol=0, atol=1e-15)

    def test_non_positive_length_in_batch_rejected(self):
        with pytest.raises(ValueError):
            interval_overlap(np.array([0.1, 0.5]), np.array([0.2, 0.5]), 0.0, 1.0)
        with pytest.raises(ValueError):
            interval_overlap(0.0, 1.0, np.array([0.3]), np.array([0.2]))


class TestSimplexQuadrature:
    def test_weights_sum_to_triangle_area(self, quad64, quad_geo):
        assert float(np.sum(quad64.weights)) == pytest.approx(0.5, abs=1e-12)
        assert float(np.sum(quad_geo.weights)) == pytest.approx(0.5, abs=1e-12)

    def test_nodes_strictly_interior(self, quad64, quad_geo):
        for q in (quad64, quad_geo):
            s, t = q.nodes[:, 0], q.nodes[:, 1]
            assert np.all(s > 0) and np.all(t < 1) and np.all(s < t)

    def test_polynomial_moments(self, quad64):
        # int over {s<t} of s dsdt = 1/6, of t = 1/3, of (t-s)^2 = 1/12
        s, t = quad64.nodes.T
        assert quad64.weights @ s == pytest.approx(1 / 6, abs=1e-13)
        assert quad64.weights @ t == pytest.approx(1 / 3, abs=1e-13)
        assert quad64.weights @ (t - s) ** 2 == pytest.approx(1 / 12, abs=1e-13)

    def test_geometric_rule_reaches_tiny_gaps(self, quad_geo):
        s, t = quad_geo.nodes.T
        assert (t - s).min() < 1e-12
        assert quad_geo.weights @ (t - s) ** 2 == pytest.approx(1 / 12,
                                                                rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimplexQuadrature(np.array([[0.5, 0.4]]), np.array([0.5]))
        with pytest.raises(ValueError):
            SimplexQuadrature(np.array([[0.2, 0.4]]), np.array([0.3]))
        with pytest.raises(ValueError):
            SimplexQuadrature(np.array([[0.2, 0.4]]), np.array([-0.5]))


class TestSimplex3:
    def test_volume(self):
        rule = simplex3_gauss_legendre(8)
        nodes, w = rule.nodes, rule.weights
        assert float(np.sum(w)) == pytest.approx(1 / 6, abs=1e-13)
        assert np.all((nodes[:, 0] < nodes[:, 1]) & (nodes[:, 1] < nodes[:, 2]))

    def test_first_coordinate_moment(self):
        # integral of t1 over the ordered 3-simplex = E[min of 3 uniforms]/3!
        rule = simplex3_gauss_legendre(8)
        nodes, w = rule.nodes, rule.weights
        assert float(w @ nodes[:, 0]) == pytest.approx(1 / 24, abs=1e-12)


class TestAdaptiveIntegral:
    def test_log_singularity_on_diagonal(self):
        # int over {s<t} of log(t-s) = int_0^1 (1-x) log x dx = -3/4
        cells = triangle_grid_cells([0.0, 1.0])
        value = adaptive_partition_integral(
            lambda s, t: np.log(t - s), cells, rel_tol=1e-9)
        assert value == pytest.approx(-0.75, rel=1e-8)

    def test_partition_area(self):
        cells = triangle_grid_cells(np.linspace(0, 1, 5))
        value = adaptive_partition_integral(
            lambda s, t: np.ones_like(s), cells, rel_tol=1e-10)
        assert value == pytest.approx(0.5, rel=1e-12)

    def test_smooth_integrand(self):
        cells = triangle_grid_cells([0.0, 0.3, 1.0])
        value = adaptive_partition_integral(
            lambda s, t: np.exp(-(t - s)), cells, rel_tol=1e-10)
        # int_0^1 (1-x) e^-x dx = e^-1
        assert value == pytest.approx(math.exp(-1), rel=1e-9)

    def test_budget_error(self):
        cells = triangle_grid_cells([0.0, 1.0])
        with pytest.raises(ConvergenceError):
            adaptive_partition_integral(lambda s, t: np.log(t - s), cells,
                                        rel_tol=1e-13, max_refinements=3)

    @pytest.mark.parametrize("f", [lambda s, t: np.log(t - s),
                                   lambda s, t: 1.0 / (t - s)],
                             ids=["log_gap", "inverse_gap"])
    def test_non_finite_total_raises(self, f):
        # at this tolerance the boxes at the diagonal narrow below the float
        # resolution of t - s, so the integrand is evaluated at t == s
        cells = triangle_grid_cells([0.0, 1.0])
        with np.errstate(divide="ignore"), \
                pytest.raises(ConvergenceError, match="non-finite total"):
            adaptive_partition_integral(f, cells, rel_tol=1e-15)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            triangle_grid_cells([0.0, 0.5, 0.5, 1.0])


class CountingIntegrand:
    """Wraps f(s, t) and counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, s, t):
        self.calls += 1
        return self.f(s, t)


GRIDS = {
    "one_cell": [0.0, 1.0],
    "uniform": np.linspace(0.0, 1.0, 5),
    "non_uniform": [0.0, 0.05, 0.3, 0.35, 0.9, 1.0],
}
INTEGRANDS = {
    "log_gap": lambda s, t: np.log(t - s),
    "one": lambda s, t: np.ones_like(s),
    "exp_gap": lambda s, t: np.exp(-(t - s)),
    "log_product": lambda s, t: np.log(s) * np.log(1.0 - t) * np.cos(3.0 * t),
}


class TestBatchedRefinement:
    """Boxes evaluated in one integrand call per split, against the
    per-box refinement it replaced."""

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("name", INTEGRANDS)
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
    def test_bits_and_calls_match_per_box(self, grid, name, rel_tol):
        cells = triangle_grid_cells(GRIDS[grid])
        assert {cell[0] for cell in cells} == (
            {"tri"} if grid == "one_cell" else {"tri", "rect"})
        batched = CountingIntegrand(INTEGRANDS[name])
        per_box = CountingIntegrand(INTEGRANDS[name])
        got = adaptive_partition_integral(batched, cells, rel_tol=rel_tol)
        want = adaptive_partition_integral_per_box(per_box, cells,
                                                   rel_tol=rel_tol)
        assert got.hex() == want.hex()
        # per box: the box and its four halves; one push per cell, two per split
        refinements = (per_box.calls // 5 - len(cells)) // 2
        assert per_box.calls == 5 * (len(cells) + 2 * refinements)
        assert batched.calls == refinements + 1

    @pytest.mark.parametrize("budget", [0, 1, 3, 17])
    def test_same_convergence_error(self, budget):
        cells = triangle_grid_cells(GRIDS["non_uniform"])
        f = INTEGRANDS["log_gap"]
        with pytest.raises(ConvergenceError) as got:
            adaptive_partition_integral(f, cells, rel_tol=1e-13,
                                        max_refinements=budget)
        with pytest.raises(ConvergenceError) as want:
            adaptive_partition_integral_per_box(f, cells, rel_tol=1e-13,
                                                max_refinements=budget)
        assert str(got.value) == str(want.value)
        assert f"exceeded {budget} splits" in str(got.value)

    @pytest.mark.parametrize("width", [1e-3, 0.05, 1.0])
    def test_min_width_stops_refinement_as_before(self, width):
        # int over {s<t} of 1/s diverges; in the cell's unit (a, b) box it is
        # width * (1-a)/a, so refinement halves toward a = 0 until a box is
        # narrower than the 1e-14 floor, at 2^-47 whatever the cell's width,
        # and ends there instead of exhausting the budget: width times the
        # exact integral above 2^-47 plus that box's two half-panel
        # Gauss-Legendre estimates of 1/a
        cells = triangle_grid_cells([0.0, width])
        f = lambda s, t: 1.0 / s
        got = adaptive_partition_integral(f, cells, rel_tol=1e-15,
                                          max_refinements=10 ** 6)
        want = adaptive_partition_integral_per_box(f, cells, rel_tol=1e-15,
                                                   max_refinements=10 ** 6)
        assert got.hex() == want.hex()
        x, w = np.polynomial.legendre.leggauss(8)
        x, w = 0.5 * (x + 1.0), 0.5 * w
        last_box = np.sum(w / x) + np.sum(w / (1.0 + x))
        assert got == pytest.approx(width * (47 * math.log(2) - 1 + last_box),
                                    rel=1e-12)

