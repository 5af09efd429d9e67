import io
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import astuple
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad, quad as scipy_quad
from scipy.stats import kstest

import siltkit
from siltkit import siltcore
from siltkit.cli import _chaos_task, _dynkin_task, _silt_task, build_parser, \
    resolve_config
from siltkit.quadrature import SimplexQuadrature, _shared_rule, \
    _unit_gauss_legendre, simplex3_gauss_legendre
from siltkit.siltcore import (
    _as_offset,
    Path,
    centering_constant_2d,
    chaos_term,
    chaos_term_bound,
    dynkin_B,
    dynkin_renormalized_sum,
    dynkin_T,
    peak_exp_sum,
    sample_path,
    silt_epsilon,
)
from siltkit.specfun import log_gaussian_kernel_batch, simplex_moment_integral

from conftest import axis_offset
from exact_oracles import chaos_term_per_node, dynkin_T_per_node, \
    gaussian_kernel_batch, gaussian_mollifier, mollified_covariance, mollified_variance, \
    path_interpolation_gather, renormalized_2d, renormalized_3d, \
    silt_centered_2d, silt_epsilon_per_node, single_index_second_moment


def task_config(*argv):
    """The resolved configuration a CLI command hands its worker tasks."""
    return resolve_config(build_parser().parse_args(list(argv)))


def zero_path(d, nodes=9):
    return Path(times=np.linspace(0, 1, nodes), values=np.zeros((nodes, d)))


def shifted_mean_oracle(d, eps, u):
    """1-d reduction of the mean of the mollified functional."""
    r2 = float(np.dot(u, u))

    def f(x):
        return (1 - x) * (2 * math.pi * (x + eps)) ** (-0.5 * d) \
            * math.exp(-r2 / (2 * (x + eps)))

    value, _ = scipy_quad(f, 0.0, 1.0, limit=200, epsrel=1e-12)
    return value


class TestPathSampling:
    def test_pinned_start_and_determinism(self):
        p1 = sample_path(256, 3, 11)
        p2 = sample_path(256, 3, 11)
        assert np.all(p1.values[0] == 0)
        assert np.array_equal(p1.values, p2.values)
        assert not np.array_equal(p1.values, sample_path(256, 3, 12).values)

    def test_increment_distribution(self):
        # pooled increments pass a KS test against N(0, 1/m)
        m = 1000
        incs = []
        for i in range(100):
            p = sample_path(m, 1, 321, stream=i)
            incs.append(np.diff(p.values[:, 0]))
        pooled = np.concatenate(incs) * math.sqrt(m)
        assert kstest(pooled, "norm").pvalue > 0.001

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sample_path(0, 2, 1)
        with pytest.raises(ValueError):
            Path(times=np.array([0.0, 0.5]), values=np.array([[1.0], [0.0]]))

    def test_interpolation_hits_nodes(self):
        p = sample_path(64, 2, 5)
        assert np.allclose(p.at(p.times), p.values)


class TestInterpolationStencil:
    """Path.at interpolates one coordinate at a time on the stencil of its
    query times, bit for bit as the gather oracle; the rule plans keep one
    stencil per rule column and grid."""

    @staticmethod
    def assert_matches_gather(path, t):
        got = path.at(t)
        assert got.shape == (np.atleast_1d(t).size, path.d)
        assert np.array_equal(got, path_interpolation_gather(path, t))

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_sampled_grids(self, d):
        p = sample_path(256, d, 8, stream=d)
        quad = SimplexQuadrature.gauss_legendre(24)
        for column in quad.nodes.T:
            self.assert_matches_gather(p, column)
        self.assert_matches_gather(p, p.times)
        self.assert_matches_gather(p, np.random.default_rng(d).random(500))

    def test_non_uniform_grid(self):
        times = np.concatenate([[0.0], np.sort(
            np.random.default_rng(1).random(40)), [1.0]])
        values = np.random.default_rng(2).standard_normal((len(times), 3))
        values[0] = 0.0
        p = Path(times=times, values=values)
        self.assert_matches_gather(p, np.linspace(0.0, 1.0, 333))
        self.assert_matches_gather(p, times)

    def test_grid_ending_before_one_extrapolates(self):
        times = np.array([0.0, 0.1, 0.35, 0.5, 0.6])
        values = np.array([[0.0, 0.0], [0.2, -0.1], [0.1, 0.4],
                           [-0.3, 0.2], [0.5, 0.5]])
        p = Path(times=times, values=values)
        t = np.array([0.55, 0.6, 0.7, 0.95, 1.0])
        self.assert_matches_gather(p, t)
        # the last cell continues past the last node
        assert np.allclose(p.at(1.0), values[-1] + 4.0 * (values[-1] - values[-2]))

    def test_scalar_and_zero_dimensional_queries(self):
        p = sample_path(64, 2, 5)
        for t in (0.3, np.float64(0.3), np.array(0.3), 0.0, 1.0, [0.3]):
            self.assert_matches_gather(p, t)

    def test_equal_length_grids_do_not_share_a_stencil(self):
        values = sample_path(16, 2, 3).values
        uniform = Path(times=np.linspace(0.0, 1.0, 17), values=values)
        squared = Path(times=np.linspace(0.0, 1.0, 17) ** 2, values=values)
        t = np.linspace(0.0, 1.0, 101)
        assert not np.array_equal(uniform.at(t), squared.at(t))
        self.assert_matches_gather(uniform, t)
        self.assert_matches_gather(squared, t)
        # nor a rule plan: each grid gets its own stencils
        quad = SimplexQuadrature.gauss_legendre(16)
        for p in (uniform, squared, uniform):
            assert silt_epsilon(p, np.array([0.2]), 0, quad).tolist() == \
                silt_epsilon_per_node(p, [0.2], np.zeros(2), quad)

    def test_silt_replicas_build_each_stencil_once(self):
        # the s and t stencils on the task grid are in one rule plan, built
        # by the first replica and read by the other seven
        siltcore._rule_plan.cache_clear()
        config = task_config("silt", "--seed", "4", "--grid-m", "128",
                             "--eps-ladder", "0.2,0.1", "--quad-order", "16")
        for stream in range(8):
            rows = _silt_task(config, stream)
            assert len(rows) == 2
        info = siltcore._rule_plan.cache_info()
        assert (info.misses, info.hits) == (1, 7)
        quad = _shared_rule(SimplexQuadrature.gauss_legendre, 16)
        stencils, _ = siltcore._rule_plan(
            quad, np.linspace(0.0, 1.0, 129).tobytes())
        assert [len(idx) for idx, _ in stencils] == [
            len(np.unique(c)) for c in quad.nodes.T]

    def test_rules_copy_their_arrays_and_plan_once_each(self):
        # a rule keeps read-only copies of its arrays, so a plan keyed on the
        # rule object cannot go stale: the caller's arrays stay writable,
        # and replicas of the k = 3 dynkin task build one plan per rule
        nodes, weights = np.array([[0.2, 0.4]]), np.array([0.5])
        rule = SimplexQuadrature(nodes, weights)
        nodes[0, 0], weights[0] = 0.1, 0.25
        assert rule.nodes.tolist() == [[0.2, 0.4]]
        assert rule.weights.tolist() == [0.5]
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.3
        siltcore._rule_plan.cache_clear()
        config = task_config("dynkin", "--seed", "4", "--k", "3",
                             "--grid-m", "128", "--eps-ladder", "0.4,0.2",
                             "--quad-order", "8", "--quad3-order", "6")
        for stream in range(4):
            assert len(_dynkin_task(config, stream)) == 2
        # per replica T_3 on the 3-simplex rule and T_2 on the triangle rule
        info = siltcore._rule_plan.cache_info()
        assert (info.misses, info.hits) == (2, 6)


class TestSiltEpsilon:
    def test_constant_zero_path(self, quad64):
        u = np.array([0.3, 0.1])
        expected = 0.5 * float(gaussian_kernel_batch(-u, 0.2))
        assert silt_epsilon(zero_path(2), 0.2, u, quad64) == pytest.approx(
            expected, rel=1e-14)

    def test_domain_error(self, quad64):
        with pytest.raises(ValueError):
            silt_epsilon(zero_path(2), 0.0, np.zeros(2), quad64)
        with pytest.raises(ValueError):
            silt_epsilon(zero_path(2), np.array([0.1, -0.1]), np.zeros(2),
                         quad64)

    def test_scale_array_matches_scalar_calls(self, quad64):
        # one interpolation serves every scale, with the same bits per scale
        path = sample_path(256, 3, 8)
        u = np.array([0.2, 0.0, -0.1])
        ladder = [0.2, 0.1, 0.05, 0.025]
        values = silt_epsilon(path, np.array(ladder), u, quad64)
        assert isinstance(values, np.ndarray) and values.shape == (4,)
        singles = [silt_epsilon(path, eps, u, quad64) for eps in ladder]
        assert all(type(v) is float for v in singles)
        assert values.tolist() == singles

    def test_mean_matches_convolution_identity(self, quad64):
        u = np.array([0.4, 0.2])
        eps = 0.05
        oracle = shifted_mean_oracle(2, eps, u)
        values = [silt_epsilon(sample_path(512, 2, 42, stream=i), eps, u, quad64)
                  for i in range(300)]
        mc = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        assert abs(mc - oracle) <= 3 * se

    def test_nonnegative_and_finite_down_to_tiny_eps(self, quad64):
        p = sample_path(512, 2, 9)
        for eps in (1.0, 1e-2, 1e-6, 1e-10):
            v = silt_epsilon(p, eps, 0, quad64)
            assert math.isfinite(v) and v >= 0.0

    def test_one_dimensional_local_time_stabilizes(self, quad64):
        # d=1, u=0: values form a Cauchy sequence in eps on average
        gaps = {}
        ladder = [0.04, 0.02, 0.01, 0.005, 0.0025]
        for hi, lo in zip(ladder[:-1], ladder[1:]):
            diffs = []
            for i in range(60):
                p = sample_path(4096, 1, 13, stream=i)
                diffs.append(abs(silt_epsilon(p, hi, 0, quad64)
                                 - silt_epsilon(p, lo, 0, quad64)))
            gaps[(hi, lo)] = float(np.mean(diffs))
        values = list(gaps.values())
        assert values[-1] < values[0]

    def test_occupation_identity_mollified(self, quad64):
        # pairing a Gaussian f with the mollified occupation density equals
        # the triangle integral of (f * kernel_eps)(increment); the left side
        # is evaluated by tensor-grid quadrature in u
        p = sample_path(256, 2, 21)
        eps, sigma = 0.25, 0.5
        x, w = np.polynomial.legendre.leggauss(80)
        half = 6.0
        x, w = half * x, half * w
        uu, vv = np.meshgrid(x, x, indexing="ij")
        grid_pts = np.column_stack([uu.ravel(), vv.ravel()])
        f_vals = gaussian_kernel_batch(grid_pts, sigma)
        silt_vals = np.array([
            silt_epsilon(p, eps, grid_pts[i], quad64)
            for i in range(len(grid_pts))
        ])
        lhs = float((np.outer(w, w).ravel() * f_vals) @ silt_vals)
        s, t = quad64.nodes[:, 0], quad64.nodes[:, 1]
        inc = p.at(t) - p.at(s)
        rhs = float(quad64.weights @ gaussian_kernel_batch(inc, sigma + eps))
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestCenteredAndRenormalized:
    def test_zero_path_centered(self, quad64):
        # the zero path pins every increment at the origin, so the raw
        # functional is (1/2) kernel(0) and centering subtracts the mean
        eps = 0.1
        expected = 0.5 / (2 * math.pi * eps) - centering_constant_2d(eps)
        assert silt_centered_2d(zero_path(2), eps, quad64) == pytest.approx(
            expected, rel=1e-12)

    def test_centering_constant_matches_quadrature(self):
        for eps in (0.3, 0.05):
            ref, _ = scipy_quad(lambda x: (1 - x) / (2 * math.pi * (x + eps)),
                                0, 1, epsrel=1e-12)
            assert centering_constant_2d(eps) == pytest.approx(ref, rel=1e-10)

    def test_centered_mean_is_zero(self, quad64):
        values = [silt_centered_2d(sample_path(512, 2, 3, stream=i), 0.05,
                                   quad64) for i in range(1000)]
        mc = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        assert abs(mc) <= 3 * se

    def test_difference_variance_tracks_exact_oracle(self):
        # MC variance of L_eps - L_eps' matches the exact 3-d reduction; the
        # exact sequence decreases once past its pre-asymptotic hump,
        # consistent with an eps^alpha rate at the origin
        quad = SimplexQuadrature.gauss_legendre(128)
        ladder = [0.2, 0.1, 0.05]
        values = {}
        for i in range(120):
            p = sample_path(2048, 2, 42, stream=i)
            for eps in ladder:
                values[(i, eps)] = silt_centered_2d(p, eps, quad)
        for hi, lo in zip(ladder[:-1], ladder[1:]):
            diffs = np.array([values[(i, hi)] - values[(i, lo)]
                              for i in range(120)])
            mc_var = float(np.var(diffs, ddof=1))
            exact = mollified_variance(2, 0.0, hi) \
                + mollified_variance(2, 0.0, lo) \
                - 2 * mollified_covariance(2, 0.0, hi, lo)
            # variance-of-variance noise ~ var * sqrt(2/(N-1))
            assert abs(mc_var - exact) <= 4 * exact * math.sqrt(2 / 119)
        deep = [0.05, 0.025, 0.0125, 0.00625, 0.003125]
        exact_seq = [
            mollified_variance(2, 0.0, hi) + mollified_variance(2, 0.0, lo)
            - 2 * mollified_covariance(2, 0.0, hi, lo)
            for hi, lo in zip(deep[:-1], deep[1:])
        ]
        assert all(a > b for a, b in zip(exact_seq[:-1], exact_seq[1:]))

    def test_renormalized_2d_zero_path(self, quad64):
        u = np.array([0.2, 0.0])
        eps = 0.04
        expected = 0.5 * float(gaussian_kernel_batch(-u, eps)) \
            - math.log(1 / 0.2) / math.pi
        assert renormalized_2d(zero_path(2), eps, u, quad64) == pytest.approx(
            expected, rel=1e-12)

    def test_renormalized_2d_variance_bounded_while_mean_diverges(self, quad64):
        norms = [2.0 ** -k for k in range(2, 7)]
        means, variances = [], []
        for r in norms:
            u = axis_offset(r, 2)
            vals = [renormalized_2d(sample_path(1024, 2, 8, stream=i),
                                    r * r, u, quad64) for i in range(150)]
            means.append(float(np.mean(vals)))
            variances.append(float(np.var(vals, ddof=1)))
        raw_means = [m + math.log(1 / r) / math.pi
                     for m, r in zip(means, norms)]
        slope = np.polyfit([math.log(1 / r) for r in norms], raw_means, 1)[0]
        assert slope == pytest.approx(1 / math.pi, rel=0.15)
        assert max(variances) <= 5 * variances[0] + 0.05

    def test_renormalized_3d_zero_path(self, quad64):
        u = np.array([0.3, 0.0, 0.0])
        eps = 0.02
        expected = (0.5 * float(gaussian_kernel_batch(-u, eps))
                    - 1 / (2 * math.pi * 0.3)) / math.sqrt(math.log(1 / 0.3))
        assert renormalized_3d(zero_path(3), eps, u, quad64) == pytest.approx(
            expected, rel=1e-12)

    @pytest.mark.parametrize("d, u_norm, u_dir, mode", [
        (2, "0", "1,0", "centered2d"), (2, "0.3", "0.6,0.8", "renorm2d"),
        (3, "0.3", "1,2,2", "renorm3d"), (3, "1.5", "1,0,0", "raw"),
        (4, "0.3", "1,0,0,0", "raw")])
    def test_cli_task_reads_the_library_adjustment(self, d, u_norm, u_dir,
                                                   mode):
        # each silt.csv row's adjusted value is the library function's, bit
        # for bit, on the path and rule of its replica
        config = task_config("silt", "--seed", "6", "--dim", str(d),
                             "--grid-m", "64", "--eps-ladder", "0.2,0.05",
                             "--u-norm", u_norm, "--u-dir", u_dir,
                             "--quad-order", "12")
        quad = SimplexQuadrature.gauss_legendre(12)
        path = sample_path(64, d, 6, stream=2)
        u = config.values.u_norm * config.values.u_dir
        library = {"centered2d": lambda eps: silt_centered_2d(path, eps, quad),
                   "renorm2d": lambda eps: renormalized_2d(path, eps, u, quad),
                   "renorm3d": lambda eps: renormalized_3d(path, eps, u, quad),
                   "raw": lambda eps: silt_epsilon(path, eps, u, quad)}[mode]
        rows = _silt_task(config, 2)
        assert [row[-1] for row in rows] == [mode, mode]
        for _, eps, _, _, adjusted, _ in rows:
            assert adjusted == library(eps)

    def test_3d_compensation_constant(self):
        # 1/(2 pi |u|) is the alpha=0, d=3 asymptotic constant
        from siltkit.specfun import simplex_moment_asymptotic
        assert simplex_moment_asymptotic(0.0, 3, 0.01) == pytest.approx(
            1 / (2 * math.pi * 0.01), rel=1e-12)

    def test_3d_variance_grows_slower_than_log(self):
        # Var(raw - 1/(2 pi |u|)) = Var(raw); the exact two-increment
        # reduction shows Var / log(1/|u|) saturating (growth slower than
        # the log itself), and MC matches the exact values where the path
        # discretization and quadrature resolve the mollifier scale
        norms = [2.0 ** -k for k in range(2, 9)]
        ratios = [mollified_variance(3, r, r ** 4) / math.log(1 / r)
                  for r in norms]
        increments = np.diff(ratios)
        assert np.all(increments[2:] < increments[1:-1])
        assert ratios[-1] - ratios[-2] < 0.05 * ratios[-1]
        quad = SimplexQuadrature.gauss_legendre(128)
        r = 0.25
        u = axis_offset(r, 3)
        for eps in (0.0625, 0.03125):
            vals = [silt_epsilon(sample_path(4096, 3, 17, stream=i),
                                 eps, u, quad) for i in range(150)]
            mc_var = float(np.var(vals, ddof=1))
            exact = mollified_variance(3, r, eps)
            assert abs(mc_var - exact) <= 4 * exact * math.sqrt(2 / 149)


class TestChaosTerm:
    def test_order_zero_recovers_mass(self, quad_geo):
        u = np.array([0.3, 0.1, 0.0, 0.05])
        p = sample_path(128, 4, 2)
        m_exact = simplex_moment_integral(0.0, 4, float(np.linalg.norm(u)))
        assert chaos_term(p, (0, 0, 0, 0), u, quad_geo) == pytest.approx(
            m_exact, rel=1e-5)

    def test_odd_parity_vanishes(self, quad_geo):
        u = axis_offset(0.4, 3)  # zero second and third coordinates
        p = sample_path(128, 3, 4)
        assert chaos_term(p, (0, 1, 0), u, quad_geo) == 0.0
        assert chaos_term(p, (2, 0, 3), u, quad_geo) == 0.0

    def test_domain_error_zero_offset(self, quad_geo):
        with pytest.raises(ValueError):
            chaos_term(sample_path(64, 2, 1), (1, 0), np.zeros(2), quad_geo)

    def test_offset_array_matches_scalar_calls(self, quad_geo):
        # one interpolation and one set of increment factors serve every
        # offset, with the same bits per offset; the last index vanishes at
        # the second offset (H_1(0) = 0), the non-finite-peak branch
        p = sample_path(256, 4, 9)
        offsets = np.array([[0.3, 0.1, 0.0, 0.05], [0.05, 0.0, 0.0, 0.0],
                            [0.4, -0.2, 0.1, 0.3]])
        for idx in [(0, 0, 0, 0), (2, 1, 0, 0), (1, 0, 0, 1)]:
            values = chaos_term(p, idx, offsets, quad_geo)
            assert isinstance(values, np.ndarray) and values.shape == (3,)
            singles = [chaos_term(p, idx, u, quad_geo) for u in offsets]
            assert all(type(v) is float for v in singles)
            assert values.tolist() == singles
        assert singles[1] == 0.0

    def test_offset_array_domain_errors(self, quad_geo):
        p = sample_path(64, 2, 1)
        with pytest.raises(ValueError):
            chaos_term(p, (1, 0), np.array([[0.2, 0.1], [0.0, 0.0]]), quad_geo)
        with pytest.raises(ValueError):
            chaos_term(p, (1, 0), np.ones((2, 3)), quad_geo)
        with pytest.raises(ValueError):
            chaos_term(p, (1, 0), np.ones((2, 2, 2)), quad_geo)

    def test_peak_sum_drops_only_zero_terms(self, quad_geo):
        # the node log-magnitudes of chaos_term rows: kernel times weight on
        # the diagonal-refined rule, where the smallest gaps underflow
        gen = np.random.default_rng(12)
        log_w = np.log(quad_geo.weights)
        for r, d in [(0.3, 4), (0.05, 2), (0.8, 3)]:
            gaps = quad_geo.nodes[:, 1] - quad_geo.nodes[:, 0]
            log_mag = log_gaussian_kernel_batch(r * r, d, gaps) + log_w \
                + gen.normal(0.0, 5.0, len(log_w))
            sign = gen.choice([-1.0, 1.0], len(log_w))
            peak = float(np.max(log_mag))
            terms = sign * np.exp(log_mag - peak)
            assert np.count_nonzero(terms == 0.0) > 0
            unfiltered = math.exp(peak) * math.fsum(terms.tolist())
            assert peak_exp_sum(sign, log_mag, peak).hex() == unfiltered.hex()

    def test_second_moment_matches_exact_term(self, quad_geo_fine):
        # E[term^2] for one multi-index against the exact collapsed integral
        from siltkit.sobolev import SobolevSpec, sobolev_norm_sq_truncated
        r = 0.5
        u = axis_offset(r, 4)
        for idx in ((1, 0, 0, 0), (2, 0, 0, 0)):
            k = sum(idx)
            spec = SobolevSpec(gamma=0.0 - 0.5, K=k, u=u, d=4)
            # single-index share of the order-k term: isolate by zeroing the
            # other coordinates' contributions via direct computation
            samples = []
            for i in range(400):
                p = sample_path(4096, 4, 777, stream=i)
                samples.append(chaos_term(p, idx, u, quad_geo_fine))
            samples = np.array(samples)
            mc = float(np.mean(samples ** 2))
            se = float(np.std(samples ** 2, ddof=1) / math.sqrt(len(samples)))
            exact = single_index_second_moment(idx, u)
            assert abs(mc - exact) <= 3 * se

    def test_chaos_orthogonality(self, quad_geo):
        pairs = [((1, 0, 0), (0, 1, 0)), ((2, 0, 0), (0, 2, 0)),
                 ((1, 1, 0), (2, 0, 0))]
        u = np.array([0.5, 0.2, 0.1])
        indices = sorted({idx for pair in pairs for idx in pair})
        table = {idx: [] for idx in indices}
        for i in range(1000):
            p = sample_path(512, 3, 2024, stream=i)
            for idx in indices:
                table[idx].append(chaos_term(p, idx, u, quad_geo))
        for a, b in pairs:
            xs, ys = np.array(table[a]), np.array(table[b])
            prods = (xs - xs.mean()) * (ys - ys.mean())
            cov = float(np.mean(prods))
            se = float(np.std(prods, ddof=1) / math.sqrt(len(prods)))
            assert abs(cov) <= 3 * se


class TestChaosTermBound:
    def test_log_branch_trivial(self):
        p = sample_path(64, 2, 3)
        u = axis_offset(math.exp(-1), 2)
        from siltkit.specfun import calibrate_log_branch_constant
        expected = math.log(calibrate_log_branch_constant())
        assert chaos_term_bound(p, (0, 0), u) == pytest.approx(expected,
                                                               abs=1e-12)

    def test_monotone_in_path_maxima(self, quad_geo):
        p = sample_path(128, 4, 5)
        bigger = Path(times=p.times, values=2.0 * p.values, seed=p.seed)
        u = axis_offset(0.1, 4)
        idx = (1, 1, 0, 0)
        assert chaos_term_bound(bigger, idx, u) > chaos_term_bound(p, idx, u)

    def test_offset_array_matches_scalar_calls(self):
        offsets = np.array([[0.3, 0.1, 0.0, 0.05], [0.05, 0.0, 0.0, 0.0],
                            [0.4, -0.2, 0.1, 0.3]])
        p = sample_path(128, 4, 7)
        for idx in [(0, 0, 0, 0), (2, 1, 0, 0), (1, 0, 3, 1)]:
            values = chaos_term_bound(p, idx, offsets)
            assert isinstance(values, np.ndarray) and values.shape == (3,)
            singles = [chaos_term_bound(p, idx, u) for u in offsets]
            assert all(type(v) is float for v in singles)
            assert values.tolist() == singles
        planar = sample_path(64, 2, 3)  # the logarithmic branch
        offsets = np.array([[0.3, 0.1], [0.0, 0.02]])
        assert chaos_term_bound(planar, (0, 0), offsets).tolist() == [
            chaos_term_bound(planar, (0, 0), u) for u in offsets]
        # an empty sweep has no rows to bound, in either branch
        for idx in [(0, 0), (1, 0)]:
            assert chaos_term_bound(planar, idx, np.zeros((0, 2))).shape == (0,)

    def test_offset_array_domain_errors(self):
        p = sample_path(64, 2, 1)
        with pytest.raises(ValueError):
            chaos_term_bound(p, (1, 0), np.array([[0.2, 0.1], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            chaos_term_bound(p, (0, 0), np.array([[0.2, 0.1], [1.0, 0.5]]))
        with pytest.raises(ValueError):
            chaos_term_bound(p, (1, 0), np.ones((2, 3)))

    def test_no_violations_and_slope(self, quad_geo):
        direction = np.ones(4) / 2.0
        norms = [2.0 ** -j for j in range(3, 11)]
        indices = [(0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 0), (1, 1, 1, 1),
                   (3, 2, 1, 0)]
        for stream in range(6):
            p = sample_path(1024, 4, 99, stream=stream)
            for idx in indices:
                logs = []
                for r in norms:
                    u = r * direction
                    term = chaos_term(p, idx, u, quad_geo)
                    bound = chaos_term_bound(p, idx, u)
                    log_abs = math.log(abs(term)) if term != 0 else -math.inf
                    assert log_abs <= bound
                    logs.append(log_abs)
                if all(math.isfinite(v) for v in logs):
                    slope = np.polyfit(np.log(norms), logs, 1)[0]
                    assert slope >= -(sum(idx) + 4 - 2) - 0.1


class TestDynkin:
    @given(st.integers(2, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_operator_matches_brute_force(self, k, data):
        l = data.draw(st.integers(1, k))
        args = np.sort(np.array(data.draw(st.lists(
            st.floats(0.01, 0.99), min_size=l, max_size=l, unique=True))))

        def phi(*ts):
            return math.sin(sum((i + 1) * t for i, t in enumerate(ts)))

        # the non-decreasing maps {1..k} -> {1..l}, kept when surjective
        total = 0.0
        for mapping in combinations_with_replacement(range(1, l + 1), k):
            if set(mapping) == set(range(1, l + 1)):
                total += phi(*[args[j - 1] for j in mapping])
        assert dynkin_B(k, l, phi)(*args) == pytest.approx(total, abs=1e-12)

    def test_counting_identity(self):
        for k in range(2, 9):
            for l in range(1, k + 1):
                count = dynkin_B(k, l, lambda *ts: 1.0)(*([0.5] * l))
                assert count == math.comb(k - 1, l - 1)

    def test_identity_at_top_order(self):
        phi = lambda s, t, v: s + 2 * t + 3 * v
        assert dynkin_B(3, 3, phi)(0.1, 0.2, 0.3) == pytest.approx(
            phi(0.1, 0.2, 0.3))

    def test_collapse_to_one_argument(self):
        phi = lambda s, t: s + t
        assert dynkin_B(2, 1, phi)(0.3) == pytest.approx(0.6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            dynkin_B(2, 3, lambda *ts: 1.0)

    def test_order2_coincides_with_silt(self, quad64):
        # one integral behind both: the same bits at every scale
        p = sample_path(512, 2, 5)
        one = lambda s, t: np.ones_like(s)
        scales = np.array([0.4, 0.09, 0.01])
        a = dynkin_T(p, scales, one, quad64)
        b = silt_epsilon(p, scales, 0, quad64)
        assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("k, missing", [(2, "quad"), (3, "quad3"),
                                            (3, "quad")])
    def test_order_needs_its_rule(self, quad64, k, missing):
        # the order-k sum takes the order-2 rule, then for k = 3 the order-3
        # rule; with one missing and the other rule in its slot, the orders
        # read off the rules are refused
        rules = dict(quad=quad64, quad3=simplex3_gauss_legendre(4))
        other = dict(quad="quad3", quad3="quad")
        seq = tuple(rules[other[name] if name == missing else name]
                    for name in ["quad", "quad3"][:k - 1])
        with pytest.raises(ValueError, match="rules must have orders"):
            dynkin_renormalized_sum(sample_path(64, 2, 1), 0.1,
                                    lambda *ts: 1.0, seq)

    def test_zero_path_order2(self, quad64):
        one = lambda s, t: np.ones_like(s)
        got = dynkin_T(zero_path(2), 0.2, one, quad64)
        assert got == pytest.approx(
            0.5 * float(gaussian_mollifier(np.zeros((1, 2)), 0.2)[0]),
            rel=1e-14)

    def test_unhashable_and_stateful_symbols(self, quad64):
        # the symbol is evaluated on each call: an unhashable callable works,
        # and one whose output changes between calls is read afresh
        class Scaled:
            __hash__ = None

            def __init__(self):
                self.c = 1.0

            def __call__(self, *ts):
                return self.c * (1.0 + ts[0] * ts[-1])

        p, phi = sample_path(256, 2, 3), Scaled()
        first = dynkin_T(p, 0.1, phi, quad64)
        assert first == dynkin_T(p, 0.1, lambda *ts: 1.0 + ts[0] * ts[-1],
                                 quad64)
        assert math.isfinite(dynkin_renormalized_sum(p, 0.1, phi, (quad64,)))
        phi.c = 2.0
        assert dynkin_T(p, 0.1, phi, quad64) == pytest.approx(
            2.0 * first, rel=1e-14)

    def test_scalar_only_symbol_is_refused(self, quad64):
        # the symbol is called once on arrays of node times, never per node
        p, phi = sample_path(64, 2, 1), lambda s, t: math.sin(s)
        with pytest.raises(TypeError):
            dynkin_T(p, 0.1, phi, quad64)
        with pytest.raises(TypeError):
            dynkin_renormalized_sum(p, 0.1, phi, (quad64,))

    def test_line_rule_built_once_and_read_only(self, quad64):
        # the l = 1 term's rule is cached per process; its symbol is not
        _shared_rule.cache_clear()
        x, w = np.polynomial.legendre.leggauss(48)
        phi = lambda *ts: 1.0 + ts[0]
        sums = [dynkin_renormalized_sum(sample_path(64, 2, 5, stream=i),
                                        0.1, phi, (quad64,))
                for i in range(3)]
        assert _shared_rule.cache_info().misses == 1
        rule = _shared_rule(_unit_gauss_legendre, 48)
        assert _shared_rule.cache_info().misses == 1
        assert rule[0].tolist() == (0.5 * (x + 1.0)).tolist()
        assert rule[1].tolist() == (0.5 * w).tolist()
        for arr in rule:
            with pytest.raises(ValueError):
                arr[0] = 0.5
        doubled = lambda *ts: 2.0 * phi(*ts)
        assert dynkin_renormalized_sum(
            sample_path(64, 2, 5, stream=2), 0.1, doubled,
            (quad64,)) == pytest.approx(2.0 * sums[2], rel=1e-14)

    def test_domain_errors(self, quad64):
        one = lambda *ts: 1.0
        quad4 = SimplexQuadrature(np.array([[0.1, 0.2, 0.3, 0.4]]),
                                  np.array([1.0 / 24]))
        with pytest.raises(ValueError):
            dynkin_T(sample_path(64, 3, 1), 0.1, one, quad64)
        with pytest.raises(ValueError):
            dynkin_T(sample_path(64, 2, 1), 0.1, one, quad4)

    def test_scale_array_matches_scalar_calls(self, quad64):
        # one interpolation per order serves every scale, with the same bits
        # per scale, and a precomputed top-order term changes no bit
        p = sample_path(512, 2, 12)
        quad3 = simplex3_gauss_legendre(10)
        ladder = [0.4, 0.2, 0.1]
        phi = lambda *ts: 1.0 + ts[0] * ts[-1]
        for rules in [(quad64,), (quad64, quad3)]:
            t_vals = dynkin_T(p, np.array(ladder), phi, rules[-1])
            singles = [dynkin_T(p, eps, phi, rules[-1]) for eps in ladder]
            assert isinstance(t_vals, np.ndarray) and t_vals.shape == (3,)
            assert all(type(v) is float for v in singles)
            assert t_vals.tolist() == singles
            sums = [dynkin_renormalized_sum(p, eps, phi, rules)
                    for eps in ladder]
            assert all(type(v) is float for v in sums)
            assert dynkin_renormalized_sum(
                p, np.array(ladder), phi, rules).tolist() == sums
            assert dynkin_renormalized_sum(
                p, np.array(ladder), phi, rules,
                t_top=t_vals).tolist() == sums

    def test_scale_array_domain_errors(self, quad64):
        one = lambda *ts: np.ones_like(ts[0])
        p = sample_path(64, 2, 1)
        for scales in (np.array([0.1, -0.1]), np.full((2, 2), 0.1)):
            with pytest.raises(ValueError):
                dynkin_T(p, scales, one, quad64)
            with pytest.raises(ValueError):
                dynkin_renormalized_sum(p, scales, one, (quad64,))

    def test_renormalized_order2_mean(self):
        quad = SimplexQuadrature.gauss_legendre(96)
        one = lambda *ts: np.ones_like(ts[0])
        for eps in (0.1, 0.05):
            expected = centering_constant_2d(eps) \
                + math.log(eps) / (2 * math.pi)
            vals = [dynkin_renormalized_sum(sample_path(2048, 2, 7, stream=i),
                                            eps, one, (quad,))
                    for i in range(80)]
            mc = float(np.mean(vals))
            se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
            assert abs(mc - expected) <= 3 * se

    def test_renormalized_order3_stabilizes(self):
        # exact mean from 2-d quadrature; stabilization of the deterministic
        # part plus MC consistency of the sampled functional
        def mean_s3(eps):
            value, _ = dblquad(
                lambda y, x: (1 - x - y) / ((x + eps) * (y + eps)),
                0, 1, 0, lambda x: 1 - x, epsabs=1e-12, epsrel=1e-11)
            log_w = math.log(eps) / (2 * math.pi)
            return value / (2 * math.pi) ** 2 \
                + log_w * 2 * centering_constant_2d(eps) + log_w ** 2

        ladder = [0.1, 0.05, 0.025, 0.0125, 0.00625]
        exact = [mean_s3(e) for e in ladder]
        gaps = [abs(a - b) for a, b in zip(exact[:-1], exact[1:])]
        assert all(a > b for a, b in zip(gaps[:-1], gaps[1:]))

        quad = SimplexQuadrature.gauss_legendre(96)
        quad3 = simplex3_gauss_legendre(40)
        one = lambda *ts: np.ones_like(ts[0])
        for eps in (0.1, 0.05):
            vals = [dynkin_renormalized_sum(sample_path(4096, 2, 91, stream=i),
                                            eps, one, (quad, quad3))
                    for i in range(60)]
            mc = float(np.mean(vals))
            se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
            assert abs(mc - mean_s3(eps)) <= 3 * se


class TestInterpolationsPerTask:
    """The chaos and dynkin tasks interpolate each path a fixed number of
    times, however many indices, offsets or scales they evaluate, and only at
    distinct rule times."""

    @staticmethod
    def count_interpolations(monkeypatch):
        stencils = []
        original = siltcore._interpolate

        def counting(values, stencil):
            stencils.append(stencil[0])
            return original(values, stencil)

        monkeypatch.setattr(siltcore, "_interpolate", counting)
        return stencils

    def test_chaos_task(self, monkeypatch):
        stencils = self.count_interpolations(monkeypatch)
        indices = ((0, 0, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0))
        nodes = len(SimplexQuadrature.geometric_diagonal(4).weights)
        for norms, n_norms in [("0.25", 1), ("2^-2..2^-8", 7)]:
            stencils.clear()
            config = task_config(
                "chaos", "--seed", "3", "--grid-m", "128", "--multi-index",
                ";".join(",".join(map(str, idx)) for idx in indices),
                "--u-norms", norms, "--quad-levels", "4")
            rows = _chaos_task(config, 0)
            assert len(rows) == len(indices) * n_norms
            # w(s) and w(t) once for each index with a factor, none for the
            # all-zero index; no node time repeats here
            assert [len(idx) for idx in stencils] == [nodes] * 4

    @pytest.mark.parametrize("k, per_replica", [(2, 2), (3, 5)])
    def test_dynkin_task(self, monkeypatch, k, per_replica):
        # T_2 reads w at 2 node columns and T_3 at 3, each at its distinct
        # times through one stencil per column; T_k is evaluated once for
        # both the t_value and the renormalized sum
        stencils = self.count_interpolations(monkeypatch)
        quad, quad3 = SimplexQuadrature.gauss_legendre(8), \
            simplex3_gauss_legendre(6)
        columns = list(quad.nodes.T) + (list(quad3.nodes.T) if k == 3 else [])
        for ladder in [(0.4,), (0.4, 0.2, 0.1, 0.05)]:
            stencils.clear()
            config = task_config(
                "dynkin", "--seed", "3", "--k", str(k), "--grid-m", "128",
                "--eps-ladder", ",".join(map(str, ladder)),
                "--quad-order", "8", "--quad3-order", "6")
            rows = _dynkin_task(config, 0)
            assert len(rows) == len(ladder)
            distinct = {id(idx): len(idx) for idx in stencils}
            assert len(distinct) == per_replica
            assert sorted(distinct.values()) == sorted(
                len(np.unique(c)) for c in columns)


def doubled_rule(nodes, weights):
    """Every node twice, in two orders, with half its weight: whole node
    pairs repeat."""
    return np.concatenate([nodes, nodes[::-1]]), \
        0.5 * np.concatenate([weights, weights[::-1]])


class TestPlansAgainstPerNodeOracles:
    """Each distinct rule time interpolated once, each factor formed once per
    distinct node pair and broadcast, against per-node references, bit for
    bit, on rules with and without repeated times; two paths per rule, so
    the second reads a cached plan."""

    @pytest.fixture(scope="class")
    def rules(self, quad64, quad_geo):
        doubled = SimplexQuadrature(*doubled_rule(*astuple(
            SimplexQuadrature.gauss_legendre(12))))
        return {"repeated times": quad64, "distinct times": quad_geo,
                "repeated nodes": doubled}

    @pytest.fixture(scope="class")
    def rules3(self):
        rng = np.random.default_rng(5)
        nodes = np.sort(rng.random((600, 3)), axis=1)
        doubled = SimplexQuadrature(*doubled_rule(*astuple(
            simplex3_gauss_legendre(6))))
        return {"repeated times": simplex3_gauss_legendre(10),
                "distinct times": SimplexQuadrature(
                    nodes, np.full(600, 1.0 / 3600)),
                "repeated nodes": doubled}

    @pytest.mark.parametrize("kind", ["repeated times", "distinct times",
                                      "repeated nodes"])
    @pytest.mark.parametrize("d, u", [(2, 0), (2, [0.3, -0.1]),
                                      (3, [0.2, 0.0, 0.1]),
                                      (9, np.linspace(-0.2, 0.2, 9))])
    def test_silt_epsilon(self, rules, kind, d, u):
        ladder = [0.2, 0.05, 0.01]
        for stream in range(2):
            path = sample_path(256, d, 13, stream=stream)
            got = silt_epsilon(path, np.array(ladder), u, rules[kind])
            want = silt_epsilon_per_node(path, ladder, _as_offset(u, d),
                                         rules[kind])
            assert got.tolist() == want

    @pytest.mark.parametrize("kind", ["repeated times", "distinct times",
                                      "repeated nodes"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_dynkin_T(self, rules, rules3, kind, k):
        ladder = [0.4, 0.1]
        phi = lambda *ts: 1.0 + ts[0] * ts[-1]
        rule = rules[kind] if k == 2 else rules3[kind]
        for stream in range(2):
            path = sample_path(256, 2, 17, stream=stream)
            got = dynkin_T(path, np.array(ladder), phi, rule)
            assert got.tolist() == dynkin_T_per_node(
                path, ladder, phi, rule.nodes, rule.weights)

    @pytest.mark.parametrize("kind", ["repeated times", "distinct times",
                                      "repeated nodes"])
    def test_chaos_term(self, rules, kind):
        offsets = np.array([[0.3, 0.1, 0.0], [0.05, -0.2, 0.1],
                            [0.4, 0.0, 0.3]])
        for stream in range(2):
            path = sample_path(256, 3, 19, stream=stream)
            for idx in [(0, 0, 0), (2, 1, 0), (1, 0, 3), (2, 1, 1)]:
                got = chaos_term(path, idx, offsets, rules[kind])
                assert got.tolist() == chaos_term_per_node(
                    path, idx, offsets, rules[kind])

    def test_zero_index_summed_once_per_process(self, quad_geo):
        # the all-zero index has no increment factor: every path gets the
        # per-node value of the first, and no rule plan is built for it
        offsets = np.array([[0.3, 0.1, 0.0], [0.05, -0.2, 0.1]])
        siltcore._chaos_plan.cache_clear()
        siltcore._rule_plan.cache_clear()
        for stream in range(3):
            path = sample_path(256, 3, 23, stream=stream)
            got = chaos_term(path, (0, 0, 0), offsets, quad_geo)
            assert got.tolist() == chaos_term_per_node(path, (0, 0, 0),
                                                       offsets, quad_geo)
            got[:] = 0.0  # the caller's copy, not the cached sums
            assert chaos_term(path, (0, 0, 0), offsets[1], quad_geo) == \
                chaos_term_per_node(path, (0, 0, 0), offsets[1:], quad_geo)[0]
        assert siltcore._chaos_plan.cache_info().misses == 2
        assert siltcore._rule_plan.cache_info().misses == 0

    def test_cached_arrays_read_only(self, quad64, quad_geo):
        times = sample_path(64, 2, 1).times.tobytes()
        stencils, steps = siltcore._rule_plan(quad64, times)
        stencils3, steps3 = siltcore._rule_plan(simplex3_gauss_legendre(6),
                                                times)
        base, factors, zero_sums = siltcore._chaos_plan(
            quad_geo, np.array([[0.3, 0.1]]).tobytes(), 2, (2, 1))
        assert zero_sums is None
        arrays = [arr for plan in (stencils, steps, stencils3, steps3)
                  for part in plan for arr in part] + [base] + [
            arr for factor in factors for arr in factor[2:]]
        assert len(arrays) == 2 * 2 + 3 + 3 * 2 + 2 * 3 + 1 + 2 * 2
        for arr in arrays:
            assert isinstance(arr, np.ndarray) and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_no_plan_built_at_import(self):
        # every cache in every siltkit module, found as the benchmark's runner
        # finds them and named where it is defined, is empty in a fresh
        # interpreter; quadrature defines the rule cache, siltcore two plans
        code = (
            "import importlib, json, pkgutil\nimport siltkit, siltkit.cli\n"
            "caches = {f'{value.__module__}.{value.__qualname__}':\n"
            "          value.cache_info().currsize\n"
            "          for info in pkgutil.iter_modules(siltkit.__path__)\n"
            "          for value in vars(importlib.import_module(\n"
            "              f'siltkit.{info.name}')).values()\n"
            "          if callable(getattr(value, 'cache_clear', None))}\n"
            "print(json.dumps(caches))")
        src = os.path.dirname(os.path.dirname(siltkit.__file__))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        caches = json.loads(proc.stdout)
        assert len(caches) == 5 and set(caches.values()) == {0}
        assert {name for name in caches
                if not name.startswith("siltkit.specfun.")} == {
            "siltkit.quadrature._shared_rule", "siltkit.siltcore._rule_plan",
            "siltkit.siltcore._chaos_plan"}


_BINARY_MAGIC = b"SILTPATH1"


def path_to_csv(path: Path, fp) -> None:
    """Write columns t, w1, ..., wd with a mandatory header row."""
    header = "t," + ",".join(f"w{j + 1}" for j in range(path.d))
    fp.write(header + "\n")
    for i in range(path.m + 1):
        row = [f"{path.times[i]:.17g}"] + [f"{v:.17g}" for v in path.values[i]]
        fp.write(",".join(row) + "\n")


def path_from_csv(fp, seed: int = 0) -> Path:
    header = fp.readline().strip()
    cols = header.split(",")
    if cols[0] != "t" or len(cols) < 2:
        raise ValueError(f"expected header 't,w1,...', got {header!r}")
    data = np.loadtxt(fp, delimiter=",", ndmin=2)
    return Path(times=data[:, 0], values=data[:, 1:], seed=seed)


def path_to_binary(path: Path, fp) -> None:
    """Little-endian cache: magic, d, m, seed, then times and values."""
    fp.write(_BINARY_MAGIC)
    fp.write(struct.pack("<IQq", path.d, path.m, path.seed))
    fp.write(path.times.astype("<f8").tobytes())
    fp.write(path.values.astype("<f8").tobytes())


def path_from_binary(fp) -> Path:
    magic = fp.read(len(_BINARY_MAGIC))
    if magic != _BINARY_MAGIC:
        raise ValueError(f"bad magic bytes {magic!r}")
    d, m, seed = struct.unpack("<IQq", fp.read(struct.calcsize("<IQq")))
    times = np.frombuffer(fp.read(8 * (m + 1)), dtype="<f8").astype(float)
    values = np.frombuffer(fp.read(8 * (m + 1) * d), dtype="<f8").astype(float)
    return Path(times=times, values=values.reshape(m + 1, d), seed=seed)


class TestPathIO:
    def test_csv_round_trip(self):
        p = sample_path(32, 3, 77)
        buf = io.StringIO()
        path_to_csv(p, buf)
        buf.seek(0)
        q = path_from_csv(buf, seed=77)
        assert np.array_equal(p.values, q.values)
        assert np.array_equal(p.times, q.times)

    def test_csv_header_mandatory(self):
        buf = io.StringIO("0.0,0.0\n")
        with pytest.raises(ValueError):
            path_from_csv(buf)

    def test_binary_round_trip(self):
        p = sample_path(64, 2, -5)
        buf = io.BytesIO()
        path_to_binary(p, buf)
        buf.seek(0)
        q = path_from_binary(buf)
        assert np.array_equal(p.values, q.values)
        assert q.seed == -5

    def test_binary_magic(self):
        buf = io.BytesIO(b"NOTMAGIC1" + b"\x00" * 64)
        with pytest.raises(ValueError):
            path_from_binary(buf)

    def test_multi_index_type(self):
        # a multi-index is any sequence of non-negative integers, one per
        # coordinate of the path
        p = sample_path(64, 3, 1)
        u = axis_offset(0.3, 3)
        assert chaos_term_bound(p, np.array([2, 0, 1]), u) == \
            chaos_term_bound(p, (2, 0, 1), u)
        for bad in [(-1, 0, 1), (1, 0)]:
            with pytest.raises(ValueError):
                chaos_term_bound(p, bad, u)
