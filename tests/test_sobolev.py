import math
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siltkit.quadrature import SimplexQuadrature, interval_overlap
from siltkit.siltcore import Path, chaos_term, sample_path
from siltkit.sobolev import (
    SobolevNormResult,
    _norm_orders_collapsed,
    _shift_integrals,
    capacity_lower_bound,
    sobolev_norm_sq_truncated,
)
from siltkit.specfun import simplex_moment_integral

from conftest import axis_offset
from exact_oracles import collapsed_orders_convolution_loop, \
    collapsed_orders_gauss_eta, collapsed_orders_ordered_pairs, \
    shift_integrals_by_column, tensor_norm_sq

# frozen after the collapsed and tensor 4-d schemes agreed to 1e-3 at K=24
# (d=4, gamma=-0.5, |u|=0.5); the recorded value is the default collapsed
# computation at the K=64 cap
CAPACITY_BASELINE_4_HALF = 0.5348449743


class TestIntervalOverlap:
    def test_spec_values(self):
        assert interval_overlap(0, 1, 0, 1) == 1.0
        assert interval_overlap(0, 0.5, 0.5, 1) == 0.0
        assert interval_overlap(0.1, 0.6, 0.4, 0.9) == pytest.approx(0.2)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            interval_overlap(0.5, 0.5, 0, 1)

    @given(st.floats(0, 0.9), st.floats(0.01, 1.0), st.floats(0, 0.9),
           st.floats(0.01, 1.0), st.floats(-0.05, 0.05))
    @settings(max_examples=80, deadline=None)
    def test_symmetric_and_lipschitz(self, s1, w1, s2, w2, shift):
        t1, t2 = s1 + w1, s2 + w2
        assert interval_overlap(s1, t1, s2, t2) == interval_overlap(
            s2, t2, s1, t1)
        moved = interval_overlap(s1, t1 + abs(shift), s2, t2)
        assert abs(moved - interval_overlap(s1, t1, s2, t2)) <= abs(shift) + 1e-12


class TestNormArguments:
    def test_gamma_guard(self):
        for norm in (sobolev_norm_sq_truncated, capacity_lower_bound):
            with pytest.raises(ValueError, match="gamma"):
                norm(axis_offset(0.5, 4), 0.0, 4)
            with pytest.raises(ValueError, match="d >= 4"):
                norm(axis_offset(0.5, 3), -1.0, 4)
            with pytest.raises(ValueError, match="nonzero"):
                norm(np.zeros(4), -1.0, 4)
            # d is the offset's length, so one axis is all the shape check
            with pytest.raises(ValueError, match="1-d"):
                norm(np.full((2, 4), 0.5), -1.0, 4)


class TestSobolevNorm:
    def test_order_zero_factorizes(self):
        u = axis_offset(0.3, 4)
        res = sobolev_norm_sq_truncated(u, -0.5, 0)
        m_exact = simplex_moment_integral(0.0, 4, float(np.linalg.norm(u)))
        assert res.value == pytest.approx(m_exact ** 2, rel=1e-5)
        quad = SimplexQuadrature.gauss_legendre(24)
        tensor = tensor_norm_sq(u, -0.5, 0, quad)
        gaps = quad.nodes[:, 1] - quad.nodes[:, 0]
        mass_quad = float(np.dot(
            quad.weights, np.exp(-0.09 / (2 * gaps)) / (2 * np.pi * gaps) ** 2))
        assert tensor == pytest.approx(mass_quad ** 2, rel=1e-13)

    def test_collapsed_and_tensor_schemes_agree(self):
        u = axis_offset(0.5, 4)
        collapsed = sobolev_norm_sq_truncated(u, -0.5, 24)
        tensor = tensor_norm_sq(
            u, -0.5, 24, SimplexQuadrature.geometric_diagonal(30, 4, 24))
        assert collapsed.value == pytest.approx(tensor, rel=1e-3)

    def test_gaps_below_float_resolution(self):
        # at 50 levels the smallest gaps (~1e-17) vanish against eta ~ 1/2 in
        # floating point; those collapsed intervals overlap nothing
        u = axis_offset(1e-7, 4)
        res = sobolev_norm_sq_truncated(u, -0.5, 2, tau_levels=50)
        m_exact = simplex_moment_integral(0.0, 4, float(np.linalg.norm(u)))
        assert np.all(np.isfinite(res.terms))
        assert res.value == pytest.approx(m_exact ** 2, rel=1e-5)

    def test_tail_ratio_when_cut_at_order_zero(self):
        # order 1 already falls below the 1e-14 cutoff; the ratio reported
        # is that dropped order's, not order 0 against itself
        res = sobolev_norm_sq_truncated(axis_offset(1e-7, 4), -0.5, 4,
                                        tau_levels=50)
        assert res.K_used == 0
        assert res.tail_ratio == abs(res.terms[1]) / res.value
        assert 0 < res.tail_ratio < 1e-14

    def test_monotone_in_truncation_order(self):
        u = axis_offset(0.4, 4)
        values = [sobolev_norm_sq_truncated(u, -0.5, k).value
                  for k in (0, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(values[:-1], values[1:]))

    def test_decreasing_in_gamma(self):
        u = axis_offset(0.4, 4)
        high = sobolev_norm_sq_truncated(u, -0.5, 16).value
        low = sobolev_norm_sq_truncated(u, -1.5, 16).value
        assert low < high

    def test_order_one_closed_form(self):
        # sum over |idx|=1 collapses to |u|^2/sqrt(tau1 tau2) times the
        # correlation; evaluated directly on the same pair geometry
        u = axis_offset(0.3, 4)
        res = sobolev_norm_sq_truncated(u, -0.5, 1)
        from exact_oracles import single_index_second_moment
        direct = single_index_second_moment((1, 0, 0, 0), u)
        assert res.terms[1] == pytest.approx(2.0 ** -0.5 * direct, rel=1e-10)

    def test_offaxis_equals_axis_by_isotropy(self):
        # the norm depends on u only through |u|: compare an axis offset
        # with a rotated one (exercises the multi-coordinate convolution)
        r = 0.4
        axis = sobolev_norm_sq_truncated(axis_offset(r, 4), -0.5, 12)
        tilted_u = r * np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        tilted = sobolev_norm_sq_truncated(tilted_u, -0.5, 12)
        assert tilted.value == pytest.approx(axis.value, rel=1e-6)

    def test_tail_ratio_small_at_selected_order(self):
        res = sobolev_norm_sq_truncated(axis_offset(0.3, 4), -0.5, 64)
        assert res.tail_ratio < 1e-3

    def test_monte_carlo_cross_check(self, quad_geo_fine):
        # sum over k<=2 of (k+1)^gamma E[(sum over order-k terms)^2]
        gamma = -0.5
        u = axis_offset(0.5, 4)
        res = sobolev_norm_sq_truncated(u, gamma, 2)
        indices = {k: [c for c in iproduct(range(3), repeat=4) if sum(c) == k]
                   for k in (1, 2)}
        sums = {k: [] for k in (1, 2)}
        for i in range(400):
            p = sample_path(4096, 4, 555, stream=i)
            for k in (1, 2):
                sums[k].append(sum(chaos_term(p, idx, u, quad_geo_fine)
                                   for idx in indices[k]))
        for k in (1, 2):
            sq = np.array(sums[k]) ** 2
            mc = float(np.mean(sq)) * (k + 1.0) ** gamma
            se = float(np.std(sq, ddof=1) / math.sqrt(len(sq))) \
                * (k + 1.0) ** gamma
            assert abs(mc - res.terms[k]) <= 3 * se


def assert_orders_match_gauss_eta(u, K):
    got = _norm_orders_collapsed(u, K, 34, 6)
    want = collapsed_orders_gauss_eta(u, K)
    assert np.all(want > 0)
    assert np.max(np.abs(got - want) / want) <= 1e-12


class TestClosedFormShiftIntegral:
    """The shift-variable integral in closed form, against the Gauss-in-eta
    form it replaced and against 40-digit quadrature."""

    @pytest.mark.parametrize("j", range(2, 8))
    def test_default_sweep_matches_gauss_eta(self, j):
        assert_orders_match_gauss_eta(axis_offset(2.0 ** -j, 4), 64)

    def test_multi_coordinate_offset_matches_gauss_eta(self):
        assert_orders_match_gauss_eta(np.array([0.3, 0.2, 0.0, 0.1]), 64)

    @pytest.mark.parametrize("K", [0, 1, 2, 256])
    def test_order_caps_match_gauss_eta(self, K):
        assert_orders_match_gauss_eta(axis_offset(0.25, 4), K)

    @pytest.mark.parametrize("k", [8, 32, 64])
    def test_piece_integral_against_mpmath(self, k):
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 40
        rng = np.random.default_rng(7)
        taus = 2.0 ** (-12 * rng.random((20, 2)))
        taus[:5] = 0.5 + 0.5 * rng.random((5, 2))  # pieces with t1 + t2 > 1
        got = _shift_integrals(taus[:, 0], taus[:, 1], k)[:, k]
        for (t1, t2), value in zip(taus, got):
            t1, t2 = mp.mpf(t1), mp.mpf(t2)
            top = min(t1, t2)

            def integrand(eta):
                ov = max(0, min(t1, eta + t2) - max(0, eta))
                ell = max(0, min(1 - t1, 1 - eta - t2) - max(0, -eta))
                return (ov / top) ** k * ell

            # scaled by min(t1, t2)^-k: mpmath's tolerance is absolute
            knots = [max(-t2, t1 - 1), min(0, t1 - t2), max(0, t1 - t2),
                     min(t1, 1 - t2)]
            exact = mp.quad(integrand, knots, method="gauss-legendre") \
                * (top / mp.sqrt(t1 * t2)) ** k
            assert abs(value - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("K", [0, 1, 64])
    def test_order_major_buffer_matches_column_loop(self, K):
        # the same arithmetic into an order-major buffer, returned transposed
        rng = np.random.default_rng(K)
        taus = 2.0 ** (-12 * rng.random((500, 2)))
        taus[:100] = 0.5 + 0.5 * rng.random((100, 2))  # t1 + t2 > 1
        got = _shift_integrals(taus[:, 0], taus[:, 1], K)
        assert got.shape == (500, K + 1)
        assert np.array_equal(got, shift_integrals_by_column(
            taus[:, 0], taus[:, 1], K))


class TestToeplitzConvolution:
    """The zero-offset coordinates folded in by one Toeplitz GEMM, against
    the per-order convolution loop it replaced."""

    @staticmethod
    def assert_orders_match_loop(u, K):
        got = _norm_orders_collapsed(u, K, 34, 6)
        want = collapsed_orders_convolution_loop(u, K)
        assert np.all(want > 0)
        assert np.max(np.abs(got - want) / want) <= 1e-14

    @pytest.mark.parametrize("j", range(2, 8))
    def test_default_sweep_matches_loop(self, j):
        self.assert_orders_match_loop(axis_offset(2.0 ** -j, 4), 64)

    def test_multi_coordinate_offset_matches_loop(self):
        self.assert_orders_match_loop(np.array([0.3, 0.2, 0.0, 0.1]), 64)



class TestUnorderedPairs:
    """Each unordered gap pair visited once with weight 2, against the sum
    over ordered pairs it replaced, order by order."""

    # each case: (u, K, tau_levels, tau_order)
    @pytest.mark.parametrize("spec", [
        *((axis_offset(2.0 ** -j, 4), 64, 34, 6) for j in range(2, 8)),
        (np.array([0.3, 0.2, 0.0, 0.1]), 64, 34, 6),
        (axis_offset(0.25, 4), 1, 34, 6),
        (axis_offset(0.25, 4), 256, 34, 6),
        # 296 gap nodes kept: the unordered pairs span two chunks
        (axis_offset(2.0 ** -7, 4), 16, 34, 12),
    ])
    def test_orders_match_ordered_pairs(self, spec):
        got = _norm_orders_collapsed(*spec)
        want = collapsed_orders_ordered_pairs(*spec)
        assert got[0] == want[0]
        assert np.all(want > 0)
        assert np.max(np.abs(got - want) / want) <= 1e-14

class TestCapacity:
    def test_mass_growth_exponent(self):
        # numerator m^2 scales like |u|^(-2(d-2))
        masses = [simplex_moment_integral(0.0, 4, r)
                  for r in (2.0 ** -4, 2.0 ** -7)]
        slope = (math.log(masses[1]) - math.log(masses[0])) \
            / (math.log(2.0 ** -7) - math.log(2.0 ** -4))
        assert slope == pytest.approx(-2.0, abs=0.05)

    def test_baseline_value(self):
        bound, _, _ = capacity_lower_bound(axis_offset(0.5, 4), -0.5, 64)
        assert bound == pytest.approx(CAPACITY_BASELINE_4_HALF, rel=1e-6)

    def test_scaled_bound_stays_positive(self):
        # capacity_lb * |u|^-4 bounded away from zero along the sweep
        values = []
        for r in [2.0 ** -k for k in range(2, 8)]:
            bound, _, _ = capacity_lower_bound(axis_offset(r, 4), -0.5, 64)
            values.append(bound * r ** -4)
        assert min(values) > 1.0

    def test_bound_at_most_one_or_refused(self):
        # the order-0 term is the gap rule's mass squared, so the bound is at
        # most 1 wherever that mass is m to 1e-6; elsewhere |u| is refused
        refused = []
        for r in (1e-5, 3e-5, 1e-4, 0.25, 4.0, 10.0):
            try:
                bound, _, _ = capacity_lower_bound(axis_offset(r, 4), -0.5, 8)
            except ValueError as exc:
                assert "tau_levels=34" in str(exc), exc
                assert str(exc).endswith(f"|u|={r:.3g}"), exc
                refused.append(r)
                continue
            assert bound <= 1.0 + 3e-6, (r, bound)
        assert refused == [1e-5, 10.0]

    def test_result_fields(self):
        bound, mass, norm = capacity_lower_bound(axis_offset(0.4, 4), -0.5, 8)
        assert isinstance(norm, SobolevNormResult)
        assert bound == pytest.approx(mass ** 2 / norm.value, rel=1e-14)
        assert 0 <= norm.K_used <= 8


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


class TestSupportDistance:
    def test_constructed_membership(self):
        # piecewise-linear path passing through u at t = 1/2
        u = np.array([0.3, -0.2])
        times = np.array([0.0, 0.5, 1.0])
        values = np.vstack([np.zeros(2), u, 0.5 * u])
        q = SupportQuery(path=Path(times=times, values=values), u=u)
        assert support_distance(q) == 0.0

    def test_zero_path(self):
        path = Path(times=np.linspace(0, 1, 5), values=np.zeros((5, 3)))
        r = 0.7
        q = SupportQuery(path=path, u=axis_offset(r, 3))
        assert support_distance(q) == pytest.approx(r, rel=1e-14)

    def test_large_offsets_rarely_hit(self):
        # |u| far above the typical path range: positive distance throughout
        u = axis_offset(8.0, 4)
        hits = 0
        for i in range(50):
            path = sample_path(512, 4, 31, stream=i)
            if support_distance(SupportQuery(path=path, u=u)) <= 0.5:
                hits += 1
        assert hits == 0

    def test_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            SupportQuery(path=sample_path(16, 2, 1), u=np.zeros(2))
