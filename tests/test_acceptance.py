"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with its runtime.  Criterion 13 checks the shape the capacity
bound mass^2 / norm^2 actually has as |u| -> 0: it tends to 1, with
1/bound - 1 proportional to |u|^2, while the |u|^4 of the theory holds only
as the lower bound bound >= c |u|^4.  The scaling argument is in that test's
docstring and in the README's note on the capacity bound.
"""

import functools
import math
import os
import time
from itertools import combinations_with_replacement, product as iproduct

import numpy as np
import pytest
import sympy
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from siltkit.cli import main as cli_main
from siltkit.marginals import TimeGrid, grid_overlaps, \
    marginal_density_q_batch, sample_mu_n
from siltkit.quadrature import SimplexQuadrature
from siltkit.rng import stream_generator
from siltkit.siltcore import chaos_term, chaos_term_bound, dynkin_B, \
    sample_path
from siltkit.sobolev import SobolevSpec, capacity_lower_bound, \
    sobolev_norm_sq_truncated
from siltkit.specfun import (
    hermite_eval,
    normalized_hermite_log_sign,
    simplex_moment_asymptotic,
    simplex_moment_integral,
)
from siltkit.transport import (
    TransportPlanSpec,
    empirical_w2,
    entropic_w2,
    entropy_bound,
    kappa,
    talagrand_bound,
    theta_relative_entropy,
    weighted_theta_samples,
)

from conftest import axis_offset
from exact_oracles import conditional_kernel, hessian_eigenvalues, \
    hessian_matrix_diagonals
from test_marginals import bridge_conditional_mc, exact_projection_residual
from test_specfun import oracle_simplex_quadrature


def criterion(number, description, budget_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.time() - start
                print(f"ACCEPTANCE {number:02d} FAIL ({elapsed:6.1f}s): "
                      f"{description}")
                raise
            elapsed = time.time() - start
            print(f"ACCEPTANCE {number:02d} PASS ({elapsed:6.1f}s): "
                  f"{description}")
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its {budget_seconds}s budget "
                f"({elapsed:.1f}s)")
        return wrapper
    return decorate


@criterion(1, "closed form vs raw 2-d quadrature on the 36-point grid", 10)
def test_01_simplex_closed_form_vs_oracle():
    for alpha in (0.0, 0.5, 1.0, 2.0):
        for d in (2, 3, 4, 5):
            for r in (0.05, 0.2, 1.0):
                exact = simplex_moment_integral(alpha, d, r)
                oracle = oracle_simplex_quadrature(alpha, d, r)
                assert abs(exact - oracle) <= 1e-8 * abs(oracle), \
                    (alpha, d, r, exact, oracle)


@criterion(2, "asymptotic regime ratios at tiny offsets", 5)
def test_02_asymptotic_regimes():
    for alpha in (0.0, 0.5, 1.0, 2.0):
        for d in (2, 3, 4, 5):
            if alpha > 1 - 0.5 * d:
                args = (alpha, d, 1e-3)
                ratio = simplex_moment_integral(*args) \
                    / simplex_moment_asymptotic(*args)
                assert 0.98 <= ratio <= 1.02, (alpha, d, ratio)
    args = (0.0, 2, 1e-4)
    ratio = simplex_moment_integral(*args) / simplex_moment_asymptotic(*args)
    assert 0.95 <= ratio <= 1.05


@criterion(3, "Hermite recurrence, derivative, generating function", 5)
def test_03_hermite_suite():
    x = sympy.symbols("x")
    for n in range(11):
        poly = sympy.Poly(sympy.polys.orthopolys.hermite_prob_poly(n, x), x)
        for xv in range(-5, 6):
            assert hermite_eval(n, float(xv)) == float(poly.eval(xv))
    step = 1e-5
    xs = np.linspace(-5, 5, 31)
    for n in range(1, 16):
        numeric = (hermite_eval(n, xs + step)
                   - hermite_eval(n, xs - step)) / (2 * step)
        exact = n * hermite_eval(n - 1, xs)
        scale = np.maximum(np.abs(exact), 1.0)
        assert np.max(np.abs(numeric - exact) / scale) <= 1e-6
    fact = np.cumprod(np.concatenate([[1.0], np.arange(1, 61)]))
    for z in (1.0, -1.0, 0.5):
        for xv in (0.0, 0.8, -1.7, 2.5):
            table = np.array([hermite_eval(n, xv) for n in range(61)])
            partial = float(np.sum(table * z ** np.arange(61) / fact))
            assert abs(partial - math.exp(z * xv - 0.5 * z * z)) <= 1e-10


@criterion(4, "Cauchy-integral Hermite envelope on 1e4 draws x n<=30", 30)
def test_04_cauchy_bound_monte_carlo():
    gen = stream_generator(404, 0)
    s = gen.uniform(0, 1, 10_000)
    t = gen.uniform(0, 1, 10_000)
    s, t = np.minimum(s, t), np.maximum(s, t) + 1e-9
    dt = t - s
    inc = gen.standard_normal(10_000) * np.sqrt(dt)
    violations = 0
    for n in range(1, 31):
        _, log_scaled = normalized_hermite_log_sign(n, inc / np.sqrt(dt))
        log_h = log_scaled + 0.5 * gammaln(n + 1)
        bound = gammaln(n + 1) + 0.5 - 0.5 * n * np.log(dt) + np.abs(inc)
        violations += int(np.sum(log_h > bound))
    assert violations == 0


@criterion(5, "chaos-term a.s. envelope: 1000 triples + slope fits", 300)
def test_05_chaos_bound_and_slopes():
    quad = SimplexQuadrature.geometric_diagonal(36, 4, 12)
    direction = np.ones(4) / 2.0
    indices = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0),
               (2, 0, 0, 0), (2, 1, 0, 0), (1, 1, 1, 1), (2, 2, 1, 1)]
    norms = [2.0 ** -3, 2.0 ** -5, 2.0 ** -7, 2.0 ** -9, 2.0 ** -10]
    violations = 0
    total = 0
    for stream in range(25):
        path = sample_path(1024, 4, 505, stream=stream)
        for idx in indices:
            for r in norms:
                u = r * direction
                term = chaos_term(path, idx, u, quad)
                bound = chaos_term_bound(path, idx, u)
                log_abs = math.log(abs(term)) if term != 0 else -math.inf
                total += 1
                if log_abs > bound:
                    violations += 1
    assert total == 1000
    assert violations == 0
    fit_norms = [2.0 ** -j for j in range(3, 11)]
    path = sample_path(1024, 4, 505, stream=0)
    for idx in indices:
        logs = []
        for r in fit_norms:
            term = chaos_term(path, idx, r * direction, quad)
            logs.append(math.log(abs(term)) if term != 0 else -math.inf)
        if not all(math.isfinite(v) for v in logs):
            continue
        slope = float(np.polyfit(np.log(fit_norms), logs, 1)[0])
        assert slope >= -(sum(idx) + 4 - 2) - 0.1, (idx, slope)


@criterion(6, "chaos orthogonality across distinct multi-indices", 120)
def test_06_chaos_orthogonality():
    quad = SimplexQuadrature.geometric_diagonal(36, 4, 12)
    pairs = [((1, 0, 0), (0, 1, 0)), ((2, 0, 0), (0, 2, 0)),
             ((1, 1, 0), (2, 0, 0))]
    u = np.array([0.5, 0.2, 0.1])
    indices = sorted({idx for pair in pairs for idx in pair})
    table = {idx: [] for idx in indices}
    for i in range(1000):
        path = sample_path(512, 3, 606, stream=i)
        for idx in indices:
            table[idx].append(chaos_term(path, idx, u, quad))
    for a, b in pairs:
        xs, ys = np.array(table[a]), np.array(table[b])
        prods = (xs - xs.mean()) * (ys - ys.mean())
        cov = float(np.mean(prods))
        se = float(np.std(prods, ddof=1) / math.sqrt(len(prods)))
        assert abs(cov) <= 3 * se, (a, b, cov, se)


@criterion(7, "monotone-surjection counts vs brute-force enumeration", 1)
def test_07_dynkin_combinatorics():
    for k in range(2, 9):
        for l in range(2, k + 1):
            count = dynkin_B(k, l, lambda *ts: 1.0)(*np.linspace(0.1, 0.9, l))
            # brute force over all nondecreasing maps {1..k} -> {1..l}
            brute = 0
            for values in combinations_with_replacement(range(1, l + 1), k):
                if set(values) == set(range(1, l + 1)):
                    brute += 1
            assert count == brute == math.comb(k - 1, l - 1), (k, l)


@criterion(8, "projection residual exactness + conditional-kernel MC", 120)
def test_08_projection_residuals():
    gen = stream_generator(808, 0)
    for _ in range(1000):
        n = int(gen.integers(1, 8))
        interior = np.sort(gen.uniform(0.02, 0.98, n - 1)) if n > 1 else []
        nodes = np.concatenate([[0.0], interior, [1.0]])
        if np.any(np.diff(nodes) < 1e-3):
            continue
        grid = TimeGrid(nodes)
        s = float(gen.uniform(0.0, 0.95))
        t = float(gen.uniform(s + 0.01, 1.0))
        sigma2 = grid_overlaps(s, t, grid)[1][0]
        assert abs(sigma2 - exact_projection_residual(s, t, grid)) <= 1e-10
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 20:
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        grid = TimeGrid.make_uniform(n)
        s = float(rng.uniform(0.0, 0.9))
        t = float(rng.uniform(s + 0.02, 1.0))
        eps = float(rng.uniform(0.01, 0.15))
        x = np.cumsum(rng.standard_normal((n, d)) * math.sqrt(1 / n), axis=0)
        u = rng.standard_normal(d) * 0.3
        exact = conditional_kernel(s, t, grid, eps, u, x)
        mc, se = bridge_conditional_mc(s, t, grid, eps, u, x, 100_000,
                                       1000 + checked)
        assert abs(mc - exact) <= 3 * se, (n, d, s, t, eps, mc, exact, se)
        checked += 1


@criterion(9, "tower identity: mean marginal density equals the mass", 300)
def test_09_marginal_mass_identity(quad64):
    stream = 0
    for d in (4, 5):
        for n in (1, 2, 3, 4):
            grid = TimeGrid.make_uniform(n)
            for r in (0.2, 0.5):
                stream += 1
                u = axis_offset(r, d)
                points = sample_mu_n(n, d, 909, 10_000, stream=stream)
                q = marginal_density_q_batch(u, grid, points, quad64)
                m = simplex_moment_integral(0.0, d, float(np.linalg.norm(u)))
                mc = float(np.mean(q))
                se = float(np.std(q, ddof=1) / math.sqrt(len(q)))
                assert abs(mc - m) <= 3 * se, (d, n, r, mc, m, se)


@criterion(10, "Hessian spectrum vs tridiagonal solver + Kronecker check", 5)
def test_10_hessian_spectrum():
    for n in range(1, 257):
        diag, off = hessian_matrix_diagonals(n)
        if n == 1:
            reference = np.array([diag[0]])
        else:
            reference = eigh_tridiagonal(diag, off, eigvals_only=True)
        assert np.max(np.abs(hessian_eigenvalues(n) - reference)) <= 1e-10, n
        assert abs(kappa(n) - reference.min()) <= 1e-10, n
    n, d = 3, 2
    diag, off = hessian_matrix_diagonals(n)
    a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    dense = np.sort(np.linalg.eigvalsh(np.kron(a, np.eye(d))))
    assert np.max(np.abs(dense - np.repeat(hessian_eigenvalues(n), d))) <= 1e-10


@criterion(11, "entropy chain: MC relative entropy vs closed bound", 600)
def test_11_entropy_chain(quad64):
    for r in (0.2, 0.5):
        u = axis_offset(r, 4)
        for n in (1, 2):
            estimate = theta_relative_entropy(
                u, weighted_theta_samples(u, 4, n, 1111, 4000, quad64), quad64)
            bound = entropy_bound(u, 4, n)
            assert estimate.value >= -3 * estimate.stderr, (r, n, estimate)
            assert bound >= 0, (r, n, bound)
            assert estimate.value <= bound + 3 * estimate.stderr, \
                (r, n, estimate, bound)


@criterion(12, "transport chain: OT calibration, then W2 below the bound", 600)
def test_12_wasserstein_chain(quad64):
    plan = TransportPlanSpec(regularization=0.25, max_iterations=20000,
                             tolerance=1e-9)
    gen = stream_generator(1212, 0)
    shift = np.array([0.7, 0.4])
    x = gen.standard_normal((2000, 2))
    y = gen.standard_normal((2000, 2)) + shift
    calibration, _, _ = entropic_w2(x, y, plan)
    target = float(shift @ shift)
    assert abs(calibration - target) <= 0.10 * target
    u = axis_offset(0.3, 4)
    estimate = empirical_w2(
        weighted_theta_samples(u, 4, 2, 1212, 2000, quad64), 1212, plan)
    bound = talagrand_bound(u, 4, 2)
    if bound.vacuous:
        print(f"  vacuous bound reported: {bound.value:.4f}")
    else:
        assert estimate.value <= bound.value, (estimate, bound)


@criterion(13, "capacity shape: truncation tail, |u|^2 approach to 1, "
              "|u|^4 lower bound", 900)
def test_13_capacity_shape():
    """The bound mass^2 / norm^2 tends to 1 like 1 - c|u|^2 (d = 4).

    The order-0 term of the norm is the squared mass, so bound <= 1.  For an
    order k >= 1, substitute tau_i = |u|^2 tau_i' and eta = |u|^2 eta' in the
    collapsed integral: the Gaussian kernels give |u|^-d each, the measure
    d tau_1 d tau_2 d eta gives |u|^6, and the correlation
    overlap / sqrt(tau_1 tau_2) and the Hermite arguments u_i / sqrt(tau)
    are scale-free.  Apart from the unit time horizon, |u| drops out, so
    every order is Theta(|u|^(6-2d)) = Theta(|u|^-2).  In the continuum the
    weighted orders decay like (k+1)^(gamma-1), summable exactly when
    gamma < (4-d)/2 = 0, so the untruncated higher-order sum is
    Theta(|u|^-2) too, against mass^2 = Theta(|u|^-4).  Hence

        1/bound - 1 = (norm^2 - mass^2) / mass^2  ~  C |u|^2,

    at K = 64 and at K = infinity alike.  The theory's |u|^4 survives only
    as the one-sided bound >= c |u|^4, so bound * |u|^-4 grows along the
    sweep.  Were norm^2 - mass^2 to grow faster than |u|^-2.1, the fitted
    slope below would fall under 1.9.  The tail clause checks the size of
    the last included order (tail_ratio), not the truncation remainder.
    """
    norms = [2.0 ** -j for j in range(2, 8)]
    values = []
    for r in norms:
        spec = SobolevSpec(gamma=-0.5, K=64, u=axis_offset(r, 4), d=4)
        result = capacity_lower_bound(spec)
        assert result.tail_ratio < 1e-3, (r, result.tail_ratio)
        assert result.value < 1.0, (r, result.value)
        assert result.norm_sq >= result.mass ** 2 * (1.0 - 1e-8), (
            r, result.norm_sq, result.mass ** 2)
        values.append(result.value)
    values = np.array(values)
    slope = float(np.polyfit(np.log(norms), np.log(1.0 / values - 1.0), 1)[0])
    assert abs(slope - 2.0) <= 0.1, (
        f"slope of log(1/bound - 1) is {slope:.3f}, not 2 +- 0.1: "
        f"norm^2 - mass^2 does not scale like |u|^-2, see docstring")
    scaled = values * np.array(norms) ** -4
    assert np.all(np.diff(scaled) > 0), scaled


@criterion(14, "byte-identical CLI reruns across worker counts", 600)
def test_14_reproducibility(tmp_path):
    jobs = [
        ("kernel.csv", ["kernel", "--alpha", "0,1", "--dim", "3,4",
                        "--u-norms", "2^-1..2^-8"]),
        ("chaos.csv", ["chaos", "--paths", "6", "--grid-m", "256",
                       "--u-norms", "2^-3..2^-7"]),
        ("silt.csv", ["silt", "--replicas", "8", "--grid-m", "256",
                      "--quad-order", "32", "--eps-ladder", "0.2,0.1,0.05"]),
        ("marginal.csv", ["marginal", "--count", "500", "--quad-levels", "12",
                          "--u-norms", "0.3,0.5"]),
        ("capacity.csv", ["capacity", "--u-norms", "2^-2..2^-4",
                          "--k-max", "16"]),
    ]
    for name, args in jobs:
        out_a = str(tmp_path / ("a_" + name))
        out_b = str(tmp_path / ("b_" + name))
        assert cli_main(args + ["--seed", "23", "--out", out_a,
                                "--workers", "1"]) == 0
        assert cli_main(args + ["--seed", "23", "--out", out_b,
                                "--workers", "4"]) == 0
        with open(os.path.join(out_a, name), "rb") as fa, \
                open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read(), name
