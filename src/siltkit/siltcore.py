"""Brownian paths and the path functionals built on them.

A sampled path is a cumulative-sum Gaussian walk on a uniform grid of [0, 1];
all functionals read it through linear interpolation, so they are defined for
every point of the triangle {s < t} and converge to their continuum values as
the grid refines.

The functionals: the mollified self-intersection functional (a Gaussian
kernel of the increment integrated over the triangle), its centered and
renormalized variants in dimensions 2 and 3, individual terms of the
Hermite-product expansion in a multi-index, the deterministic almost-sure
envelope for those terms, and the order-k mollified multiple-intersection
functionals with their combinatorial renormalization operators.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np

from .quadrature import SimplexQuadrature, _read_only, _shared_rule, \
    _unit_gauss_legendre
from .rng import stream_generator
from .specfun import (
    calibrate_log_branch_constant,
    calibrate_szego_constant,
    log_gaussian_kernel_batch,
    normalized_hermite_log_sign,
)

__all__ = [
    "Path",
    "sample_path",
    "silt_epsilon",
    "centering_constant_2d",
    "silt_adjustment",
    "chaos_term",
    "chaos_term_bound",
    "dynkin_B",
    "dynkin_T",
    "dynkin_renormalized_sum",
]

_LINE_ORDER = 48


@dataclass(frozen=True)
class Path:
    """A d-dimensional trajectory sampled on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    seed: int = 0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or len(times) < 2 or np.any(np.diff(times) <= 0):
            raise ValueError("time grid must be strictly increasing with >= 2 nodes")
        if times[0] != 0.0 or times[-1] > 1.0:
            raise ValueError("time grid must start at 0 and end at most at 1")
        if values.shape[0] != len(times):
            raise ValueError("one value per grid node required")
        if np.any(values[0] != 0.0):
            raise ValueError("path must start at the origin")

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def m(self) -> int:
        return len(self.times) - 1

    def at(self, t) -> np.ndarray:
        """Linear interpolation at times t, shape (len(t), d); past the last
        node it extrapolates."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.column_stack(_interpolate(self.values, _stencil(self.times, t)))

    def max_abs(self) -> np.ndarray:
        """Per-coordinate sup of |w_i| over the grid (interpolation cannot exceed it)."""
        return np.max(np.abs(self.values), axis=0)


def _stencil(times, t) -> tuple:
    """(cell index, weight) of linear interpolation at the query times t on
    the grid times."""
    idx = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
    left = times[idx]
    return idx, (t - left) / (times[idx + 1] - left)


def _interpolate(values, stencil) -> list:
    """Per coordinate, the grid values interpolated on a stencil."""
    idx, lam = stencil
    upper = idx + 1
    return [(a := col.take(idx)) + lam * (col.take(upper) - a) for col in values.T]


@lru_cache(maxsize=16)
def _rule_plan(quad: SimplexQuadrature, times: bytes) -> tuple:
    """Of a rule on a path grid's time bytes, built on first use and
    read-only: the stencil of each node column's distinct times, and per
    step from column i to i + 1 the map of the nodes onto the step's
    distinct time pairs and of those onto each end's times."""
    grid = np.frombuffer(times)
    columns = [np.unique(c, return_inverse=True) for c in quad.nodes.T]
    steps = []
    for (_, ia), (tb, ib) in zip(columns[:-1], columns[1:]):
        codes, pairs = np.unique(ia * len(tb) + ib, return_inverse=True)
        steps.append(_read_only(pairs, *np.divmod(codes, len(tb))))
    return tuple(_read_only(*_stencil(grid, t)) for t, _ in columns), tuple(steps)


def _increments(path, plan) -> list:
    """Per plan step and coordinate, w(t_{i+1}) - w(t_i) on distinct pairs."""
    at = [_interpolate(path.values, stencil) for stencil in plan[0]]
    return [[b.take(ib) - a.take(ia) for a, b in zip(at[i], at[i + 1])]
            for i, (_, ia, ib) in enumerate(plan[1])]


def _squared_norms(rows) -> np.ndarray:
    """np.sum(inc * inc, axis=-1) of the stacked rows; up to two rows it is at
    most one add, the same bits in any order, without np.sum's slow loop."""
    if len(rows) <= 2:
        return sum(r * r for r in rows)
    return np.sum(np.square(np.column_stack(rows)), axis=-1)


def sample_path(m: int, d: int, seed: int, stream: int = 0) -> Path:
    """Cumulative sum of i.i.d. N(0, 1/m) increments per coordinate.

    Distinct (seed, stream) pairs give independent paths; identical pairs give
    bitwise-identical ones.
    """
    if m < 1:
        raise ValueError(f"grid size must be >= 1, got {m}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    gen = stream_generator(seed, stream)
    increments = gen.standard_normal((m, d)) * math.sqrt(1.0 / m)
    values = np.vstack([np.zeros((1, d)), np.cumsum(increments, axis=0)])
    return Path(times=np.linspace(0.0, 1.0, m + 1), values=values, seed=seed)


def _as_offset(u, d) -> np.ndarray:
    if np.isscalar(u) and u == 0:
        return np.zeros(d)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (d,):
        raise ValueError(f"offset has shape {u.shape}, expected ({d},)")
    return u


def _as_offset_rows(u, d) -> np.ndarray:
    """One offset or a 2-d array of offsets, as rows of a 2-d array."""
    offsets = np.array(u, dtype=float, ndmin=2)
    if offsets.ndim != 2 or offsets.shape[1] != d:
        raise ValueError(f"offsets must have shape ({d},) or (n, {d})")
    return offsets


def _as_scales(eps) -> np.ndarray:
    """Mollification scales as a 1-d array; every scale must be positive."""
    scales = np.asarray(eps, dtype=float)
    if scales.ndim > 1 or not np.all(scales > 0):
        raise ValueError(f"mollification scale must be positive, got {eps}")
    return scales.ravel()


def _kernel_integral(path: Path, quad, eps, u, phi_vals=None):
    """Per scale e, sum_i w_i phi_i prod_j p_e(w(t_j+1) - w(t_j) - [j = 1] u)
    on a rule's (N, k) nodes, phi_i = 1 if phi_vals is None: a float, or an
    array for a 1-d array of scales (one interpolation)."""
    scales = _as_scales(eps)
    plan = _rule_plan(quad, path.times.tobytes())
    steps = _increments(path, plan)
    steps[0] = [row - c for row, c in zip(steps[0], _as_offset(u, path.d))]
    # exp on distinct pairs, then onto the nodes; a step whose pairs are all
    # distinct maps its squared norms onto the nodes once instead
    sq_norms = [(sq.take(pairs), slice(None)) if len(sq) == len(pairs) else
                (sq, pairs) for sq, (pairs, _, _) in
                zip(map(_squared_norms, steps), plan[1])]
    values = []
    for e in scales.tolist():
        kernel = reduce(operator.mul, [
            np.exp(log_gaussian_kernel_batch(sq, path.d, e))[pairs]
            for sq, pairs in sq_norms])
        values.append(np.dot(quad.weights, kernel if phi_vals is None
                             else phi_vals * kernel))
    return float(values[0]) if np.ndim(eps) == 0 else np.array(values)


def silt_epsilon(path: Path, eps, u, quad: SimplexQuadrature):
    """Triangle quadrature of the Gaussian kernel of w(t) - w(s) - u at scale
    eps: a float, or an array for a 1-d array of scales (one interpolation)."""
    return _kernel_integral(path, quad, eps, u)


def centering_constant_2d(eps: float) -> float:
    """E of the planar mollified functional at the origin, in closed form.

    The expectation collapses to (2 pi)^-1 * integral_0^1 (1-x)/(x+eps) dx
    = ((1+eps) log((1+eps)/eps) - 1) / (2 pi).
    """
    if not eps > 0:
        raise ValueError(f"mollification scale must be positive, got {eps}")
    return ((1.0 + eps) * math.log((1.0 + eps) / eps) - 1.0) / (2.0 * math.pi)


def silt_adjustment(raw: float, eps: float, d: int, r: float) -> tuple:
    """(adjusted value, mode) of a raw functional value at scale eps and
    offset norm r in dimension d: "centered2d", "renorm2d" or "renorm3d"
    (see the README) where it applies, else "raw"."""
    if d == 2 and r == 0:
        return raw - centering_constant_2d(eps), "centered2d"
    if d == 2:
        return raw - math.log(1.0 / r) / math.pi, "renorm2d"
    if d == 3 and 0 < r < 1:
        return (raw - 1.0 / (2.0 * math.pi * r)) \
            / math.sqrt(math.log(1.0 / r)), "renorm3d"
    return raw, "raw"


# ---------------------------------------------------------------------------
# Hermite-product expansion terms
# ---------------------------------------------------------------------------

def _coerce_index(idx, d) -> tuple:
    idx = tuple(int(v) for v in idx)
    if len(idx) != d:
        raise ValueError(f"multi-index has {len(idx)} entries, path has d={d}")
    if any(v < 0 for v in idx):
        raise ValueError("multi-index entries must be non-negative")
    return idx


def chaos_term(path: Path, idx, u, quad: SimplexQuadrature):
    """One multi-index term of the Hermite-product expansion: a float, or an
    array for a 2-d array of offsets (one row each, one interpolation).

    Per node the integrand is the product over coordinates j of

        H_{n_j}((w_j(t)-w_j(s))/sqrt(t-s)) * H_{n_j}(u_j/sqrt(t-s)) / n_j!

    (each Hermite factor carries 1/sqrt(n_j!)), times the Gaussian kernel of
    u at variance t-s.  Factors are combined as sign/log-magnitude pairs and
    the node sum is compensated, since the products alternate in sign across
    hundreds of orders of magnitude.
    """
    idx = _coerce_index(idx, path.d)
    offsets = _as_offset_rows(u, path.d)
    log_mag, offset_factors, zero_sums = _chaos_plan(
        quad, offsets.tobytes(), path.d, idx)
    if offset_factors:
        (s, t), plan = quad.nodes.T, _rule_plan(quad, path.times.tobytes())
        x = [row.take(plan[1][0][0]) / np.sqrt(t - s)
             for row in _increments(path, plan)[0]]
        sign = np.ones_like(log_mag)
        for j, n, sg_u, lg_u in offset_factors:
            sg_w, lg_w = normalized_hermite_log_sign(n, x[j])
            sign = sign * (sg_w * sg_u)
            log_mag = log_mag + (lg_w + lg_u)
        values = np.array(_node_sums(sign, log_mag))
    else:  # every n_j = 0: no factor reads the path, and the plan holds the sums
        values = np.array(zero_sums)
    return float(values[0]) if np.ndim(u) < 2 else values


def _node_sums(sign, log_mag) -> list:
    """Per row, the compensated node sum of sign * exp(log_mag); 0 where
    every term is 0."""
    return [peak_exp_sum(sg, lm, peak) if np.isfinite(peak) else 0.0
            for sg, lm, peak in zip(sign, log_mag, np.max(log_mag, axis=1))]


@lru_cache(maxsize=16)
def _chaos_plan(quad, offsets: bytes, d: int, idx: tuple) -> tuple:
    """chaos_term's rule- and offset-only parts: log(kernel * weight) per
    (offset, node); (j, n_j, sign, log|H_n_j/sqrt(n_j!)|) of u_j/sqrt(t-s)
    for each n_j > 0; and, at the all-zero index, whose terms read no path,
    the node sum per offset, else None."""
    s, t = quad.nodes.T
    offsets = np.frombuffer(offsets).reshape(-1, d)
    # a dot per row, as for one offset: an array call keeps the scalar bits
    r2 = np.array([float(np.dot(v, v)) for v in offsets])[:, None]
    if np.any(r2 == 0):
        raise ValueError("offset must be nonzero")
    base = log_gaussian_kernel_batch(r2, d, t - s) + np.log(quad.weights)
    factors = tuple((j, n, *_read_only(*normalized_hermite_log_sign(
        n, offsets[:, j, None] / np.sqrt(t - s)))) for j, n in enumerate(idx) if n)
    zero_sums = None if factors else tuple(_node_sums(np.ones_like(base), base))
    return _read_only(base)[0], factors, zero_sums


def peak_exp_sum(sign, log_mag, peak) -> float:
    """exp(peak) * compensated sum of sign * exp(log_mag - peak); terms that
    underflow to zero leave the exact sum unchanged and are dropped first."""
    terms = sign * np.exp(log_mag - peak)
    return math.exp(peak) * math.fsum(terms[terms != 0.0].tolist())


def chaos_term_bound(path: Path, idx, u):
    """Deterministic log-envelope for |chaos_term| at this path, index, offset:
    a float, or an array for a 2-d array of offsets (one row each).

    Power branch (k + d > 2, where the Gamma below is positive): chains the Szego
    envelope at exponent 1/4, with 1.05 times calibrate_szego_constant, over
    the offset factors, the Cauchy-integral envelope over the increment
    factors (which contributes exp(2 Z_j) with Z_j the running maximum of
    |w_j|), and the exact bound

        I(k/2, d, u/sqrt(2)) <= 2^(k/2-1) Gamma((k+d)/2 - 1)
                                / (pi^(d/2) (|u|/sqrt(2))^(k+d-2))

    on the remaining simplex moment integral.  Logarithmic branch (d = 2,
    k = 0): c0 * log(1/|u|) with c0 from calibrate_log_branch_constant.
    Only the |u| term depends on the offset, so an offset array shares the
    rest.
    """
    idx = _coerce_index(idx, path.d)
    offsets = _as_offset_rows(u, path.d)
    # a norm per row, as for one offset: an array call keeps the scalar bits
    norms = [float(np.linalg.norm(v)) for v in offsets]
    if 0.0 in norms:
        raise ValueError("offset must be nonzero")
    d = path.d
    k = sum(idx)
    if d == 2 and k == 0:
        if any(r >= 1 for r in norms):
            raise ValueError("log-branch envelope needs |u| < 1")
        c0 = calibrate_log_branch_constant()
        values = [math.log(c0) + math.log(math.log(1.0 / r)) for r in norms]
    elif k + d <= 2:
        raise ValueError(f"power-branch envelope needs k + d > 2, got k={k}, d={d}")
    else:
        szego_c = 1.05 * calibrate_szego_constant(0.25, 200)
        z_sum = float(np.sum(path.max_abs()))
        log_c = (k + 0.5 * d - 2.0) * math.log(2.0) \
            + math.lgamma(0.5 * (k + d) - 1.0) - 0.5 * d * math.log(math.pi)
        for n in idx:
            log_c += math.log(szego_c) + 0.5 + 0.5 * math.lgamma(n + 1) \
                - math.log(max(n, 1)) / 12.0
        values = [log_c + 2.0 * z_sum - (k + d - 2.0) * math.log(r)
                  for r in norms]
    return values[0] if np.ndim(u) < 2 else np.array(values)


# ---------------------------------------------------------------------------
# Order-k functionals and their renormalization operators
# ---------------------------------------------------------------------------

def dynkin_B(k: int, l: int, phi):
    """Sum of phi over monotone surjections {1..k} -> {1..l}, as a function on
    l arguments.

    Monotone surjections biject with compositions of k into l positive parts
    (the block sizes), so the sum has C(k-1, l-1) terms.
    """
    if not 1 <= l <= k:
        raise ValueError(f"need 1 <= l <= k, got l={l}, k={k}")
    compositions = []
    for cuts in combinations(range(1, k), l - 1):
        edges = (0,) + cuts + (k,)
        compositions.append(tuple(b - a for a, b in zip(edges[:-1], edges[1:])))

    def summed(*args):
        if len(args) != l:
            raise ValueError(f"expected {l} arguments, got {len(args)}")
        total = 0.0
        for comp in compositions:
            expanded = []
            for value, count in zip(args, comp):
                expanded.extend([value] * count)
            total += phi(*expanded)
        return total

    return summed


def dynkin_T(path: Path, eps, phi, quad: SimplexQuadrature):
    """Order-k mollified multiple-intersection functional of a planar path:
    a float, or an array for a 1-d array of scales (one interpolation).

    Integrates the product of q_eps over consecutive increments against phi
    over the ordered k-simplex, with k the width of the rule ``quad``;
    supported for k = 2 and 3.  q_eps is the density of N(0, eps I_2).  phi
    is called once, on k arrays of node times, and must broadcast over them.
    """
    if path.d != 2:
        raise ValueError(f"order-k functionals are planar only, got d={path.d}")
    k = quad.nodes.shape[1]
    if k not in (2, 3):
        raise ValueError(f"only k in {{2, 3}} supported at desk scale, got {k}")
    return _kernel_integral(path, quad, eps, 0,
                            _eval_symbol(phi, tuple(quad.nodes.T)))


def _eval_symbol(phi, columns):
    """Evaluate a simplex symbol in one call on arrays of node times (one
    array per time); a constant result is broadcast over the nodes."""
    return np.broadcast_to(np.asarray(phi(*columns), dtype=float),
                           columns[0].shape).copy()


def dynkin_renormalized_sum(path: Path, eps, phi, rules, t_top=None):
    """Log-weighted combination of the order-l functionals of the collapsed
    symbols: sum over l <= k of (log(eps)/(2 pi))^(k-l) T_l with the order-l
    symbol obtained from phi by summing over monotone surjections.  A float,
    or an array for a 1-d array of scales (one interpolation per order).
    ``rules`` is the order-2 rule, followed by the order-3 rule for k = 3.

    The mean of an order-l functional diverges like (log(1/v)/(2 pi))^(l-1)
    with v the mollifier's variance, so the log in the weights must be the
    log of the variance for the divergences to cancel; with the
    variance-parameterized Gaussian mollifier that is log(eps) itself.  The
    l = 1 functional has no mollifier factor and reduces to a line integral
    over [0, 1], done by a 48-node Gauss-Legendre rule.  phi must broadcast
    over arrays of node times, as in dynkin_T.  ``t_top``, when given, is
    dynkin_T(path, eps, phi, rules[-1]), already evaluated by the caller; it
    is used as the l = k term.
    """
    widths = [rule.nodes.shape[1] for rule in rules]
    if widths not in ([2], [2, 3]):
        raise ValueError(f"rules must have orders [2] or [2, 3], got {widths}")
    k = len(rules) + 1
    scales = _as_scales(eps)
    log_scales = [math.log(e) for e in scales]
    total = np.zeros(len(scales))
    for l in range(1, k + 1):
        weight = np.array([(x / (2.0 * math.pi)) ** (k - l) for x in log_scales])
        collapsed = phi if l == k else dynkin_B(k, l, phi)
        if l == 1:
            x, w = _shared_rule(_unit_gauss_legendre, _LINE_ORDER)
            term = float(np.dot(w, _eval_symbol(collapsed, (x,))))
        elif l == k and t_top is not None:
            term = np.asarray(t_top, dtype=float)
        else:
            term = dynkin_T(path, scales, collapsed, rules[l - 2])
        total += weight * term
    return float(total[0]) if np.ndim(eps) == 0 else total
