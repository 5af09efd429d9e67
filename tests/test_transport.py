import math
import os
from functools import partial

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.linalg import eigh_tridiagonal

from siltkit.cli import parallel_map
from siltkit.marginals import TimeGrid, grid_overlaps, \
    marginal_density_q_batch, sample_mu_n
from siltkit.quadrature import ConvergenceError, SimplexQuadrature
from siltkit.rng import stream_generator
from siltkit import transport
from siltkit.specfun import log_gaussian_kernel_batch, simplex_moment_integral
from siltkit.transport import (
    TransportPlanSpec,
    empirical_w2,
    entropic_w2,
    entropy_bound,
    kappa,
    log_sigma2_integral,
    sinkhorn_log,
    talagrand_bound,
    theta_relative_entropy,
    weighted_theta_samples,
)

from conftest import axis_offset
import exact_oracles
from exact_oracles import _overlap, adaptive_partition_integral_per_box, \
    hessian_eigenvalues, hessian_matrix_diagonals, \
    log_sigma2_integral_adaptive, log_sigma2_integrand, \
    sinkhorn_log_temporaries

# the bound with the log integral from the adaptive oracle at rel_tol=1e-10,
# d=4, n=2, |u|=0.2; the oracle agrees with per-cell scipy dblquad to 1e-4
ENTROPY_BOUND_BASELINE_4_2_02 = 2.79111484928


def log_sigma2_scipy_cells(u, d, n):
    """Second scheme for the singular log integral: per-cell dblquad."""
    grid = TimeGrid.make_uniform(n)
    r2 = float(np.dot(u, u))
    left, right = grid.t[:-1], grid.t[1:]
    lengths = grid.cell_lengths

    def integrand(t, s):
        alpha = np.clip(np.minimum(t, right) - np.maximum(s, left), 0, None)
        sigma2 = (t - s) - float(np.sum(alpha * alpha / lengths))
        sigma2 = max(sigma2, 1e-300)
        return math.log(sigma2) * math.exp(
            float(log_gaussian_kernel_batch(r2, d, t - s)))

    total = 0.0
    for i in range(n):
        total += dblquad(integrand, grid.t[i], grid.t[i + 1],
                         lambda s: s, grid.t[i + 1],
                         epsabs=1e-10, epsrel=1e-8)[0]
        for j in range(i + 1, n):
            total += dblquad(integrand, grid.t[i], grid.t[i + 1],
                             grid.t[j], grid.t[j + 1],
                             epsabs=1e-10, epsrel=1e-8)[0]
    return total


class TestHessianSpectrum:
    def test_small_cases(self):
        assert np.allclose(hessian_eigenvalues(1), [1.0])
        assert np.allclose(hessian_eigenvalues(2),
                           [3 - math.sqrt(5), 3 + math.sqrt(5)], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 33, 64, 128, 256])
    def test_matches_tridiagonal_solver(self, n):
        diag, off = hessian_matrix_diagonals(n)
        if n == 1:
            reference = np.array([diag[0]])
        else:
            reference = eigh_tridiagonal(diag, off, eigvals_only=True)
        assert np.max(np.abs(hessian_eigenvalues(n) - reference)) < 1e-10
        assert abs(kappa(n) - reference.min()) < 1e-10

    def test_kronecker_structure(self):
        # Hess = A kron I_d has A's eigenvalues with multiplicity d
        n, d = 3, 2
        diag, off = hessian_matrix_diagonals(n)
        a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        dense = np.kron(a, np.eye(d))
        got = np.sort(np.linalg.eigvalsh(dense))
        expected = np.sort(np.repeat(hessian_eigenvalues(n), d))
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_kappa_values(self):
        assert kappa(1) == pytest.approx(1.0, abs=1e-12)
        assert kappa(2) == pytest.approx(3 - math.sqrt(5), abs=1e-12)
        for n in (1, 2, 3, 17, 256):
            assert kappa(n) == pytest.approx(min(hessian_eigenvalues(n)),
                                             abs=1e-13)

    def test_scaled_kappa_limit(self):
        values = [n * kappa(n) for n in range(1, 201)]
        assert all(a < b for a, b in zip(values[:-1], values[1:]))
        assert values[-1] == pytest.approx(math.pi ** 2 / 4, rel=0.01)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kappa(0)


@pytest.fixture(scope="module")
def log_sigma2_oracle():
    """The adaptive oracle at rel_tol=1e-10, memoized per (n, |u|), d=4."""
    values = {}

    def value(n, r):
        if (n, r) not in values:
            values[n, r] = log_sigma2_integral_adaptive(axis_offset(r, 4), 4,
                                                        n, rel_tol=1e-10)
        return values[n, r]

    return value


class TestEntropyBound:
    def test_refinement_converges(self):
        for r in (0.1, 0.5):
            u = axis_offset(r, 4)
            for n in (1, 4, 8):
                coarse = log_sigma2_integral_adaptive(u, 4, n, rel_tol=1e-7)
                fine = log_sigma2_integral_adaptive(u, 4, n, rel_tol=1e-8)
                assert abs(coarse - fine) / abs(fine) < 1e-6

    def test_two_schemes_agree(self):
        u = axis_offset(0.2, 4)
        for n in (1, 2):
            adaptive = log_sigma2_integral_adaptive(u, 4, n, rel_tol=1e-8)
            scipy_val = log_sigma2_scipy_cells(u, 4, n)
            assert adaptive == pytest.approx(scipy_val, rel=1e-4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("r", [0.02, 0.3, 1.0, 5.0])
    def test_fixed_rule_matches_adaptive_oracle(self, log_sigma2_oracle, n, r):
        assert log_sigma2_integral(axis_offset(r, 4), 4, n) == pytest.approx(
            log_sigma2_oracle(n, r), rel=1e-9, abs=0)

    @pytest.mark.parametrize("d, n", [(4, 1), (4, 2), (4, 3), (4, 8), (1, 16)])
    @pytest.mark.parametrize("r", [1e-3, 0.02, 30.0, 37.0])
    def test_no_node_on_a_singularity(self, d, n, r):
        # at |u| = 37 the integral is about -1.75e-304 (n = 1, d = 4)
        value = log_sigma2_integral(axis_offset(r, d), d, n)
        assert math.isfinite(value) and value < 0

    def test_log_term_sign(self):
        # sigma2 <= t-s <= 1 pointwise, so the log integral is <= 0 and the
        # second term of the entropy bound is >= 0
        for n in (1, 3):
            u = axis_offset(0.3, 4)
            assert log_sigma2_integral(u, 4, n) < 0

    def test_regression_baseline(self):
        u = axis_offset(0.2, 4)
        value = entropy_bound(u, 4, 2)
        assert value == pytest.approx(ENTROPY_BOUND_BASELINE_4_2_02, abs=1e-8)

    def test_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            entropy_bound(np.zeros(4), 4, 2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_grid_rejected(self, n):
        with pytest.raises(ValueError, match="need n >= 1 cells"):
            log_sigma2_integral(axis_offset(0.3, 4), 4, n)

    def test_fixed_rule_cross_check(self, quad_geo):
        # the same integrand evaluated directly on an explicit rule
        u = axis_offset(0.5, 4)
        adaptive = log_sigma2_integral_adaptive(u, 4, 1, rel_tol=1e-8)
        f = log_sigma2_integrand(u, 4, 1)
        fixed = float(np.dot(quad_geo.weights,
                             f(quad_geo.nodes[:, 0], quad_geo.nodes[:, 1])))
        assert fixed == pytest.approx(adaptive, rel=1e-3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-8])
    def test_batched_refinement_keeps_bits(self, n, rel_tol, monkeypatch):
        values = [log_sigma2_integral_adaptive(axis_offset(r, 4), 4, n,
                                               rel_tol=rel_tol)
                  for r in (0.1, 0.3, 0.5)]
        monkeypatch.setattr(exact_oracles, "adaptive_partition_integral",
                            adaptive_partition_integral_per_box)
        per_box = [log_sigma2_integral_adaptive(axis_offset(r, 4), 4, n,
                                                rel_tol=rel_tol)
                   for r in (0.1, 0.3, 0.5)]
        assert values == per_box


class TestTalagrandBound:
    def test_scaling_identity(self):
        u = axis_offset(0.3, 4)
        bound = talagrand_bound(u, 4, 2)
        assert bound.value == pytest.approx(2 * bound.entropy / kappa(2),
                                            rel=1e-14)
        assert not bound.vacuous

    def test_kappa_one_case(self):
        u = axis_offset(0.5, 4)
        bound = talagrand_bound(u, 4, 1)
        assert bound.kappa_n == pytest.approx(1.0, abs=1e-12)
        assert bound.value == pytest.approx(2 * bound.entropy, rel=1e-14)

    def test_direction_of_blowup(self):
        # computed direction only: the bound grows as the offset shrinks
        values = [talagrand_bound(axis_offset(r, 4), 4, 1).value
                  for r in (0.5, 0.2, 0.1, 0.05)]
        assert all(a < b for a, b in zip(values[:-1], values[1:]))


def rule_mixture_probabilities(quad, r, d):
    """Node probabilities w_k p_{t-s}(u) / sum, in the log domain."""
    gap = quad.nodes[:, 1] - quad.nodes[:, 0]
    log_p = np.log(quad.weights) - 0.5 * d * np.log(2 * np.pi * gap) \
        - r * r / (2 * gap)
    p = np.exp(log_p - log_p.max())
    return p / p.sum(), gap


@pytest.fixture(scope="module")
def quad_transport():
    """The rule `transport` runs on at its default --quad-levels."""
    return SimplexQuadrature.geometric_diagonal(36, 4, 12)


class TestThetaSampler:
    """Exact theta draws against closed forms taken from the rule's nodes."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_residual_plus_projection_is_gap(self, quad64, quad_transport, n):
        for quad in (quad64, quad_transport):
            s, t = quad.nodes[:, 0], quad.nodes[:, 1]
            lo = np.arange(n) / n
            c = n * _overlap(s[:, None], t[:, None], lo, lo + 1.0 / n)
            _, sigma2 = grid_overlaps(s, t, TimeGrid.make_uniform(n))
            np.testing.assert_allclose(sigma2 + np.sum(c * c, axis=1) / n,
                                       t - s, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("u", [(0.3, 0, 0, 0), (1, -1, 1, 1), (5, 0, 0, 0)],
                             ids=["0.3", "2", "5"])
    def test_moments_match_rule_mixture(self, quad64, quad_transport, u):
        d, count = 4, 200_000
        u = np.array(u, dtype=float)
        r = float(np.linalg.norm(u))
        for seed, quad in ((41, quad_transport), (42, quad64)):
            p, gap = rule_mixture_probabilities(quad, r, d)
            points = weighted_theta_samples(u, d, 2, seed, count, quad)
            assert points.shape == (count, 2, d)
            for values, want in ((points[:, -1], u), (points[:, 0], u / 2)):
                se = values.std(axis=0, ddof=1) / math.sqrt(count)
                assert np.all(np.abs(values.mean(axis=0) - want) <= 4 * se), \
                    (r, values.mean(axis=0), want, se)
            sq = np.sum(points[:, -1] ** 2, axis=1)
            want = float(p @ (r * r + d * (1.0 - gap)))
            se = sq.std(ddof=1) / math.sqrt(count)
            assert abs(sq.mean() - want) <= 4 * se, (r, sq.mean(), want, se)


class TestImportanceSampling:
    """theta against the Brownian marginal, through the density ratio q/m."""

    def test_raw_mean_near_one(self, quad64):
        # E_mu[q/m] = 1, and theta draws agree with the q/m-weighted Brownian
        # draws on a fixed test function
        u, count = axis_offset(0.3, 4), 4000
        mu = sample_mu_n(2, 4, 99, count)
        raw = marginal_density_q_batch(u, TimeGrid.make_uniform(2), mu, quad64) \
            / simplex_moment_integral(0.0, 4, float(np.linalg.norm(u)))
        se = float(np.std(raw, ddof=1) / math.sqrt(count))
        assert abs(float(np.mean(raw)) - 1.0) <= 3 * se
        weights = raw / raw.sum()
        stat = mu[:, -1, 0] ** 2
        weighted = float(weights @ stat)
        weighted_se = math.sqrt(float(weights ** 2 @ (stat - weighted) ** 2))
        drawn = weighted_theta_samples(u, 4, 2, 99, count, quad64)[:, -1, 0] ** 2
        drawn_se = float(np.std(drawn, ddof=1) / math.sqrt(count))
        assert abs(float(np.mean(drawn)) - weighted) \
            <= 3 * math.hypot(weighted_se, drawn_se)

    def test_entropy_nonnegative_and_below_bound(self, quad64):
        for r in (0.2, 0.5):
            u = axis_offset(r, 4)
            for n in (1, 2):
                est = theta_relative_entropy(
                    u, weighted_theta_samples(u, 4, n, 2024, 3000, quad64),
                    quad64)
                bound = entropy_bound(u, 4, n)
                assert est.value >= -3 * est.stderr
                assert est.value <= bound + 3 * est.stderr

    def test_entropy_deterministic_given_seed(self, quad64):
        u = axis_offset(0.3, 4)
        first = weighted_theta_samples(u, 4, 2, 5, 500, quad64)
        second = weighted_theta_samples(u, 4, 2, 5, 500, quad64)
        assert np.array_equal(first, second)
        a = theta_relative_entropy(u, first, quad64)
        b = theta_relative_entropy(u, second, quad64)
        assert a.value == b.value and a.stderr == b.stderr

    def test_non_finite_log_ratio_refused(self, quad64):
        # at |u| = 30, m is about 5e-203 and q(0) underflows to 0
        with pytest.raises(ValueError, match=r"not finite at \|u\|=30"):
            theta_relative_entropy(axis_offset(30.0, 4), np.zeros((4, 2, 4)),
                                   quad64)

    def test_mass_underflow_refused(self):
        with pytest.raises(ValueError, match=r"underflows to 0 at \|u\|=60"):
            entropy_bound(axis_offset(60.0, 4), 4, 2)


class TestEntropicTransport:
    def test_self_distance_small(self):
        gen = stream_generator(1, 2)
        x = gen.standard_normal((600, 2))
        plan = TransportPlanSpec(regularization=0.3, max_iterations=20000,
                                 tolerance=1e-9)
        value, err, _ = entropic_w2(x, x, plan)
        assert abs(value) < 0.05
        assert err < 1e-9

    def test_gaussian_shift_calibration(self):
        gen = stream_generator(9, 50)
        mu0 = np.array([0.7, 0.4])
        x = gen.standard_normal((2000, 2))
        y = gen.standard_normal((2000, 2)) + mu0
        plan = TransportPlanSpec(regularization=0.25, max_iterations=20000,
                                 tolerance=1e-9)
        value, _, _ = entropic_w2(x, y, plan)
        assert value == pytest.approx(float(mu0 @ mu0), rel=0.10)

    def test_triangle_sanity(self):
        gen = stream_generator(3, 4)
        plan = TransportPlanSpec(regularization=0.25, max_iterations=20000,
                                 tolerance=1e-9)
        a = gen.standard_normal((800, 2))
        b = gen.standard_normal((800, 2)) + np.array([1.0, 0.0])
        c = gen.standard_normal((800, 2)) + np.array([1.0, 1.0])

        def w2_with_bar(x, y):
            full, _, _ = entropic_w2(x, y, plan)
            half = len(x) // 2
            wa, _, _ = entropic_w2(x[:half], y[:half], plan)
            wb, _, _ = entropic_w2(x[half:], y[half:], plan)
            return math.sqrt(max(full, 0.0)), 0.5 * abs(wa - wb)

        dab, eab = w2_with_bar(a, b)
        dbc, ebc = w2_with_bar(b, c)
        dac, eac = w2_with_bar(a, c)
        assert dac <= dab + dbc + 3 * (eab + ebc + eac)

    def test_nonconvergence_raises(self):
        gen = stream_generator(5, 6)
        x = gen.standard_normal((100, 2))
        y = gen.standard_normal((100, 2)) + 4.0
        with pytest.raises(ConvergenceError):
            sinkhorn_log(np.sum((x[:, None] - y[None]) ** 2, -1), 0.05, 3,
                         1e-12)

    @pytest.mark.parametrize("reg", [1.0, 2.0])
    def test_relaxed_solve_agrees_with_plain_oracle_at_scale(self, reg):
        gen = stream_generator(11, 7)
        x = gen.standard_normal((1000, 8))
        y = gen.standard_normal((1000, 8)) + 0.3
        cost = transport._squared_distances(x, y)
        got, _, sweeps = sinkhorn_log(cost, reg, 20000, 1e-9)
        want, _, plain_sweeps = sinkhorn_log_temporaries(cost, reg, 20000,
                                                         1e-9)
        assert got == pytest.approx(want, rel=1e-7, abs=0)
        assert sweeps <= plain_sweeps

    def test_relaxed_solve_agrees_with_plain_oracle_across_absorbs(
            self, monkeypatch):
        gen = stream_generator(5, 6)
        x = gen.standard_normal((20, 2))
        y = gen.standard_normal((20, 2)) + 8.0
        cost = np.sum((x[:, None] - y[None]) ** 2, -1)
        want, _, plain_sweeps = sinkhorn_log_temporaries(cost, 0.1, 20000,
                                                         1e-6)
        real_log, log_calls = np.log, []

        def counting_log(x):
            log_calls.append(1)
            return real_log(x)

        monkeypatch.setattr(np, "log", counting_log)
        got, _, sweeps = sinkhorn_log(cost, 0.1, 20000, 1e-6)
        monkeypatch.undo()
        # each absorb takes two logs, and none follows the last sweep: two or
        # more absorbs happen mid-solve
        assert len(log_calls) >= 4
        assert got == pytest.approx(want, rel=1e-7, abs=0)
        assert sweeps <= plain_sweeps

    @pytest.mark.parametrize("reg,relaxed_at_stop", [(0.1, False),
                                                     (1.0, True)])
    def test_violation_bounds_rebuilt_plan_marginals(self, reg,
                                                     relaxed_at_stop):
        # the plan diag(u) K diag(v) of the final scalings is the one the
        # returned cost is read from and whose row and column L1 violations
        # the returned error claims to bound
        # (K = exp((f + g - C) / reg) on the potentials of the last absorb)
        gen = stream_generator(21, 3)
        x = gen.standard_normal((30, 2))
        y = gen.standard_normal((40, 2)) + 0.5
        cost = transport._squared_distances(x, y)
        u, kernel, v, err, it = transport._sinkhorn_scalings(cost, reg, 20000,
                                                             1e-9)
        plan = u[:, None] * kernel * v[None, :]
        rows = np.sum(np.abs(plan.sum(axis=1) - 1 / 30))
        cols = np.sum(np.abs(plan.sum(axis=0) - 1 / 40))
        assert 0 < err < 1e-9
        assert rows <= err + 1e-14
        assert cols <= err + 1e-14
        # a plain last sweep leaves the columns exact to rounding; a relaxed
        # one leaves them off by a share of the tolerance
        assert (cols > 1e-12) == relaxed_at_stop
        assert sinkhorn_log(cost, reg, 20000, 1e-9) == pytest.approx(
            (float(np.sum(plan * cost)), err, it), rel=1e-13, abs=0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_cost_refused(self, entry):
        cost = np.ones((5, 5))
        cost[2, 3] = entry
        with pytest.raises(ValueError, match="non-finite"):
            sinkhorn_log(cost, 1.0, 200, 1e-9)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failure_raised_in_batch_order(self, monkeypatch, workers):
        # the solves run slowest first, but a failure is raised in the order
        # full, first half, second half, whatever the worker count: here the
        # second half at eps and the first half at 2 eps fail
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)

        def fake_sinkhorn(cost, reg, max_iterations, tolerance):
            if (len(cost), reg) in {(21, 0.5), (20, 1.0)}:
                raise ConvergenceError(f"{len(cost)} at {reg}")
            return float(len(cost)) / reg, 0.0, 1

        monkeypatch.setattr(transport, "sinkhorn_log", fake_sinkhorn)
        points = np.arange(41 * 4.0).reshape(41, 2, 2)
        plan = TransportPlanSpec(regularization=0.5)
        mapper = partial(parallel_map, workers=workers)
        with pytest.raises(ConvergenceError, match="^20 at 1.0$"):
            empirical_w2(points, 0, plan, mapper)
        monkeypatch.setattr(transport, "sinkhorn_log", lambda *a: (1.0, 0.0, 1))
        assert empirical_w2(points, 0, plan, mapper) == \
            empirical_w2(points, 0, plan)

    def test_nonconvergence_error_unchanged(self):
        gen = stream_generator(5, 6)
        x = gen.standard_normal((100, 2))
        y = gen.standard_normal((100, 2)) + 4.0
        cost = np.sum((x[:, None] - y[None]) ** 2, -1)
        with pytest.raises(ConvergenceError) as got:
            sinkhorn_log(cost, 0.05, 3, 1e-12)
        with pytest.raises(ConvergenceError) as want:
            sinkhorn_log_temporaries(cost, 0.05, 3, 1e-12)
        assert str(got.value) == str(want.value)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            TransportPlanSpec(regularization=0.0)
        with pytest.raises(ValueError):
            TransportPlanSpec(tolerance=-1.0)

    def test_caps_enforced(self, quad64):
        plan = TransportPlanSpec()
        u = axis_offset(0.3, 4)
        with pytest.raises(ValueError):
            empirical_w2(weighted_theta_samples(u, 4, 2, 1, 6000, quad64), 1,
                         plan)
        with pytest.raises(ValueError):
            empirical_w2(weighted_theta_samples(u, 4, 5, 1, 100, quad64), 1,
                         plan)
        one = weighted_theta_samples(u, 4, 2, 1, 1, quad64)
        with pytest.raises(ValueError):  # a one-sample batch has no halves
            empirical_w2(one, 1, plan)
        with pytest.raises(ValueError):  # ... and no standard error
            theta_relative_entropy(u, one, quad64)

    def test_end_to_end_below_talagrand(self, quad64):
        u = axis_offset(0.3, 4)
        plan = TransportPlanSpec(regularization=0.3, max_iterations=20000,
                                 tolerance=1e-8)
        est = empirical_w2(weighted_theta_samples(u, 4, 2, 31, 1000, quad64),
                           31, plan)
        bound = talagrand_bound(u, 4, 2)
        assert not bound.vacuous
        assert est.value <= bound.value
