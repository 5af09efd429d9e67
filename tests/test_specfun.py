import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as scipy_quad

import siltkit
from siltkit.specfun import (
    calibrate_log_branch_constant,
    calibrate_szego_constant,
    hermite_eval,
    log_gaussian_kernel_batch,
    normalized_hermite_all,
    normalized_hermite_log_sign,
    simplex_moment_asymptotic,
    simplex_moment_integral,
    szego_bound,
    upper_incomplete_gamma,
)

from exact_oracles import gaussian_kernel_batch, \
    normalized_hermite_log_sign_own_loop

mp.mp.dps = 40


def oracle_simplex_quadrature(alpha, d, r, epsrel=1e-12):
    """Raw 2-d adaptive quadrature of the weighted kernel over {s < t}.

    Independent of the closed form: integrates in the original (s, t)
    coordinates, with breakpoint hints at the interior ridge t - s ~ peak.
    The roundoff warning at this epsrel is expected and harmless.
    """
    import warnings
    from scipy.integrate import IntegrationWarning

    a = 0.5 * r * r
    peak = a / (alpha + 0.5 * d)

    def inner(s):
        def f(t):
            x = t - s
            return x ** (-alpha - 0.5 * d) * math.exp(-a / x) \
                / (2.0 * math.pi) ** (0.5 * d)

        pts = [s + p for p in (0.1 * peak, peak, 10 * peak, 100 * peak)
               if s + p < 1.0]
        value, _ = scipy_quad(f, s, 1.0, points=pts or None, limit=400,
                              epsabs=1e-300, epsrel=epsrel)
        return value

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = scipy_quad(inner, 0.0, 1.0, limit=400, epsabs=1e-300,
                              epsrel=10 * epsrel)
    return value


class TestHeatKernel:
    """Closed-form values of log_gaussian_kernel_batch, the one Gaussian
    kernel the package evaluates."""

    def test_zero_offset_d2(self):
        assert math.exp(log_gaussian_kernel_batch(0.0, 2, 1.0)) == \
            pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    def test_d4_offset(self):
        # direct high-precision evaluation of the displayed formula
        expected = float(mp.mpf(math.pi) ** -2 * mp.e ** -1)
        assert math.exp(log_gaussian_kernel_batch(1.0, 4, 0.5)) == \
            pytest.approx(expected, rel=1e-14)

    def test_standard_normal_at_zero(self):
        assert math.exp(log_gaussian_kernel_batch(0.0, 1, 1.0)) == \
            pytest.approx((2.0 * math.pi) ** -0.5, rel=1e-15)

    @pytest.mark.parametrize("d,nodes", [(1, 400), (2, 140), (3, 80), (4, 48)])
    def test_normalization_on_box(self, d, nodes):
        # tensor-grid quadrature over a +-8 sqrt(t) box integrates to 1
        t = 0.7
        x, w = np.polynomial.legendre.leggauss(nodes)
        half = 8.0 * math.sqrt(t)
        x = half * x
        w = half * w
        grids = np.meshgrid(*([x] * d), indexing="ij")
        points = np.stack([g.ravel() for g in grids], axis=-1)
        values = gaussian_kernel_batch(points, t)
        weight = np.ones(len(points))
        for axis in range(d):
            idx = np.unravel_index(np.arange(len(points)), (nodes,) * d)[axis]
            weight *= w[idx]
        assert float(weight @ values) == pytest.approx(1.0, abs=1e-6)

    @given(st.integers(1, 4), st.floats(0.01, 5.0),
           st.lists(st.floats(-3, 3), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_log_form_matches(self, d, t, coords):
        # batched over variances, against the product of d one-dimensional
        # normal densities in high precision
        u = np.array(coords[:d])
        variances = [t, 2 * t]
        got = log_gaussian_kernel_batch(u @ u, d, variances)
        for value, var in zip(got.tolist(), variances):
            expected = mp.fprod(mp.npdf(c, 0, mp.sqrt(var)) for c in u)
            assert math.exp(value) == pytest.approx(float(expected), rel=1e-12)


class TestUpperIncompleteGamma:
    def test_s1(self):
        assert upper_incomplete_gamma(1, 0.5) == pytest.approx(math.exp(-0.5),
                                                               rel=1e-14)

    def test_s2(self):
        assert upper_incomplete_gamma(2, 1) == pytest.approx(2.0 * math.exp(-1),
                                                             rel=1e-14)

    def test_negative_s_vs_quadrature_oracle(self):
        oracle = float(mp.quad(lambda z: z ** -2 * mp.exp(-z), [0.25, mp.inf]))
        assert upper_incomplete_gamma(-1, 0.25) == pytest.approx(oracle,
                                                                 rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            upper_incomplete_gamma(1.0, 0.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(1.0, -2.0)

    @given(st.floats(-5.0, 8.0), st.floats(1e-4, 25.0))
    @settings(max_examples=120, deadline=None)
    def test_matches_mpmath(self, s, a):
        # the downward ladder cancels catastrophically within ~1e-4 of
        # negative integers at small a (documented); keep a 1e-3 buffer,
        # exact integers themselves take the well-posed integer ladder
        if s <= 0 and 0 < abs(s - round(s)) < 1e-3:
            s = round(s) + math.copysign(1e-3, s - round(s) or -1.0)
        mine = upper_incomplete_gamma(s, a)
        ref = float(mp.gammainc(mp.mpf(s), mp.mpf(a), mp.inf))
        assert mine == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("s", [k / 2 for k in range(-6, 11)]
                             + [1e-10, 1e-6, 1e-3, 2.2250738585e-313, 5e-324]
                             + [-1.00001, -0.99999, -2.0001, -3.999999])
    def test_grid_matches_mpmath(self, s):
        # integer and half-integer s are every call-site form; tiny s sits
        # just off the s = 0 pole of the finite piece's first term (down to
        # subnormal s, where expm1(s L) / s loses digits), and s next to a
        # negative integer keeps full precision too.  At a <= 1e-20 the
        # finite piece reaches orders whose expm1 overflows; a value past
        # the double range raises OverflowError
        for a in (1e-300, 1e-100, 1e-20, 1e-4, 0.1, 1.0, 1.49, 1.5, 10.0):
            ref = mp.gammainc(mp.mpf(s), mp.mpf(a), mp.inf)
            if ref > sys.float_info.max:
                with pytest.raises(OverflowError):
                    upper_incomplete_gamma(s, a)
                continue
            assert upper_incomplete_gamma(s, a) == pytest.approx(float(ref),
                                                                 rel=1e-13)

    def test_below_the_reciprocal_of_dbl_max(self):
        # at a < 1.5/DBL_MAX = 8.3e-309, 1.5/a overflows; in a subprocess
        # with a timeout, so a loop that never ends fails instead of hanging
        pairs = [(s, a) for s in (0.0, 1e-10, 0.25, 0.5, -0.5)
                 for a in (5e-309, 5e-324)]
        code = ("import sys\nfrom siltkit.specfun import upper_incomplete_gamma"
                f"\nfor s, a in {pairs!r}:\n"
                "    print(repr(upper_incomplete_gamma(s, a)))")
        src = os.path.dirname(os.path.dirname(siltkit.__file__))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        got = [float(v) for v in proc.stdout.split()]
        assert len(got) == len(pairs)
        for (s, a), value in zip(pairs, got):
            ref = float(mp.gammainc(mp.mpf(s), mp.mpf(a), mp.inf))
            assert value == pytest.approx(ref, rel=1e-13)

    def test_near_integer_ladder_step_count(self):
        # float drift in s must not change the number of ladder steps
        for s in (-1e-5, -0.99999, -1.00001, -3.999999, -4.000001):
            mine = upper_incomplete_gamma(s, 1.0)
            ref = float(mp.gammainc(mp.mpf(s), 1.0, mp.inf))
            assert mine == pytest.approx(ref, rel=1e-7)


class TestSimplexMoment:
    def test_rejects_zero_offset(self):
        for moment in (simplex_moment_integral, simplex_moment_asymptotic):
            with pytest.raises(ValueError, match="offset must be nonzero"):
                moment(0.0, 4, 0.0)

    @pytest.mark.parametrize("u_norm", [1e155, 1e-163])
    def test_rejects_offsets_outside_double_range(self, u_norm):
        # a = |u|^2/2 overflows to inf at 1e155 and rounds to 0 at 1e-163
        for moment in (simplex_moment_integral, simplex_moment_asymptotic):
            with pytest.raises(ValueError, match="u_norm") as info:
                moment(0.0, 4, u_norm)
            assert str(info.value).endswith(f"got {u_norm}")

    def test_d4_reduction(self):
        # hand reduction (exp(-a) - a E1(a)) / (2 pi^2 |u|^2) at alpha=0, d=4
        r = 0.37
        a = 0.5 * r * r
        expected = (math.exp(-a) - a * float(mp.e1(a))) \
            / (2.0 * math.pi ** 2 * r * r)
        args = (0.0, 4, r)
        assert simplex_moment_integral(*args) == pytest.approx(expected, rel=1e-12)
        assert simplex_moment_integral(*args) == pytest.approx(
            oracle_simplex_quadrature(0.0, 4, r), rel=1e-9)

    def test_small_offset_power_law(self):
        # c(4) = Gamma(1)/(2 pi^2), mass ~ c(4)/|u|^2 within 1%
        r = 1e-3
        expected = 1.0 / (2.0 * math.pi ** 2 * r * r)
        assert simplex_moment_integral(0.0, 4, r) == pytest.approx(expected,
                                                                   rel=0.01)

    def test_small_offset_log_law(self):
        r = 1e-4
        expected = math.log(1.0 / r) / math.pi
        assert simplex_moment_integral(0.0, 2, r) == pytest.approx(expected,
                                                                   rel=0.05)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_against_raw_quadrature(self, alpha, d):
        for r in (0.05, 0.2, 1.0):
            assert simplex_moment_integral(alpha, d, r) == pytest.approx(
                oracle_simplex_quadrature(alpha, d, r), rel=1e-8)


class TestSimplexAsymptotic:
    def test_d4_constant(self):
        assert simplex_moment_asymptotic(0.0, 4, 1.0) == pytest.approx(
            1.0 / (2.0 * math.pi ** 2), rel=1e-14)

    def test_alpha1_d2(self):
        assert simplex_moment_asymptotic(1.0, 2, 0.01) == pytest.approx(
            1e4 / math.pi, rel=1e-12)

    def test_log_case_unit_value(self):
        assert simplex_moment_asymptotic(0.0, 2, math.exp(-1)) == \
            pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_unsupported_regime(self):
        with pytest.raises(ValueError):
            simplex_moment_asymptotic(0.0, 1, 0.5)

    @pytest.mark.parametrize("alpha,d", [(0, 3), (0, 4), (0, 5), (0.5, 2),
                                         (1, 2), (2, 5)])
    def test_ratio_tends_to_one(self, alpha, d):
        args = (alpha, d, 1e-3)
        ratio = simplex_moment_integral(*args) / simplex_moment_asymptotic(*args)
        assert 0.98 <= ratio <= 1.02


class TestHermite:
    def test_spec_values(self):
        assert hermite_eval(2, 0.0) == -1.0
        assert hermite_eval(3, 2.0) == 2.0
        assert hermite_eval(4, 1.0) == -2.0

    def test_exact_vs_sympy(self):
        x = sympy.symbols("x")
        for n in range(11):
            poly = sympy.Poly(sympy.polys.orthopolys.hermite_prob_poly(n, x), x)
            for xv in range(-6, 7):
                assert hermite_eval(n, float(xv)) == float(poly.eval(xv))

    def test_derivative_identity(self):
        # d/dx H_n = n H_{n-1} by central differences
        h = 1e-5
        xs = np.linspace(-5, 5, 41)
        for n in range(1, 16):
            num = (hermite_eval(n, xs + h) - hermite_eval(n, xs - h)) / (2 * h)
            ref = n * hermite_eval(n - 1, xs)
            scale = np.maximum(np.abs(ref), 1.0)
            assert np.max(np.abs(num - ref) / scale) < 1e-6

    def test_generating_function(self):
        fact = np.cumprod(np.concatenate([[1.0], np.arange(1, 61)]))
        for z in (0.3, -0.7, 1.0):
            for xv in (0.0, 1.3, -2.2):
                table = np.array([hermite_eval(n, xv) for n in range(61)])
                partial = float(np.sum(table * z ** np.arange(61) / fact))
                assert partial == pytest.approx(math.exp(z * xv - z * z / 2),
                                                abs=1e-10)

    @given(st.integers(2, 25), st.floats(-5, 5))
    @settings(max_examples=80, deadline=None)
    def test_recurrence_identity(self, n, x):
        lhs = hermite_eval(n, x)
        rhs = x * hermite_eval(n - 1, x) - (n - 1) * hermite_eval(n - 2, x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hermite_eval(-1, 0.0)

    def test_log_sign_reads_the_shared_recurrence(self):
        # bit for bit the loop it replaced, also where rows are rescaled
        # (|x| = 1e4 passes 1e150 by order 30, 1e-3 never does)
        x = np.array([-1e4, -37.5, -2.0, 0.0, 1e-3, 1.0, 3.3, 250.0, 1e4])
        for n in (0, 1, 2, 3, 7, 30, 61, 200):
            for got, want in zip(normalized_hermite_log_sign(n, x),
                                 normalized_hermite_log_sign_own_loop(n, x)):
                assert np.array_equal(got, want)

    def test_unrescaled_table_unchanged_by_the_rescale(self):
        # normalized_hermite_all keeps rows above 1e150 as they are
        x = np.array([-40.0, 0.5, 3000.0])
        table = normalized_hermite_all(80, x)
        assert np.max(np.abs(table)) > 1e150
        for n in (0, 1, 2, 40, 80):
            sign, log_abs = normalized_hermite_log_sign(n, x)
            np.testing.assert_allclose(np.log(np.abs(table[n])), log_abs,
                                       rtol=1e-13)
            assert np.array_equal(np.sign(table[n]), sign)


def cauchy_hermite_bound(n: int, increment: float, dt: float) -> float:
    """log of n! * sqrt(e) * dt^(-n/2) * exp(|increment|).

    Deterministic envelope for |H_n(increment / sqrt(dt))| valid for
    dt in (0, 1]; evaluated with log-gamma so n ~ 1000 cannot overflow.
    """
    if not dt > 0:
        raise ValueError(f"time increment must be positive, got {dt}")
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    return math.lgamma(n + 1) + 0.5 - 0.5 * n * math.log(dt) + abs(increment)


class TestCauchyHermiteBound:
    def test_zero_order(self):
        assert cauchy_hermite_bound(0, 0.0, 1.0) == pytest.approx(0.5)

    def test_direct_formula(self):
        expected = math.log(2) + 0.5 + math.log(4) + 1.0
        assert cauchy_hermite_bound(2, 1.0, 0.25) == pytest.approx(expected,
                                                                   rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cauchy_hermite_bound(2, 0.0, 0.0)

    def test_no_overflow_at_large_order(self):
        assert math.isfinite(cauchy_hermite_bound(1000, 3.0, 1e-3))

    def test_monte_carlo_domination(self):
        # |H_n(inc/sqrt(dt))| <= n! sqrt(e) dt^(-n/2) e^|inc| on 1e4 draws
        rng = np.random.default_rng(7)
        s = rng.uniform(0, 1, 10_000)
        t = rng.uniform(0, 1, 10_000)
        s, t = np.minimum(s, t), np.maximum(s, t) + 1e-9
        dt = t - s
        inc = rng.standard_normal(10_000) * np.sqrt(dt)
        from scipy.special import gammaln
        violations = 0
        for n in range(1, 31):
            _, log_scaled = normalized_hermite_log_sign(n, inc / np.sqrt(dt))
            log_h = log_scaled + 0.5 * gammaln(n + 1)
            bound = gammaln(n + 1) + 0.5 - 0.5 * n * np.log(dt) + np.abs(inc)
            violations += int(np.sum(log_h > bound))
        assert violations == 0


class TestSzegoBound:
    def test_trivial_case(self):
        assert szego_bound(0, 0.0, 0.5, 3.0) == pytest.approx(math.log(3.0))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            szego_bound(1, 0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            szego_bound(1, 0.0, 0.3, 0.0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_calibrated_constant_dominates(self, alpha):
        c = calibrate_szego_constant(alpha, 200)
        assert math.isfinite(c) and c > 0
        # fresh grid, offset from the calibration grid points
        xs = np.arange(0.005, 35.0, 0.0137)
        power = (8 * alpha - 1) / 12.0
        damp = np.exp(-alpha * xs * xs)
        w_prev = damp.copy()
        w = xs * damp
        margin = 1.05 * c
        assert np.max(np.abs(w_prev)) <= margin
        assert np.max(np.abs(w)) * 1.0 <= margin
        for m in range(1, 200):
            w, w_prev = xs * w / math.sqrt(m + 1) \
                - math.sqrt(m / (m + 1)) * w_prev, w
            assert np.max(np.abs(w)) * (m + 1) ** power <= margin

    def test_log_branch_constant_close_to_inverse_pi(self):
        c0 = calibrate_log_branch_constant()
        assert 1.0 / math.pi < c0 < 1.2 / math.pi
