"""Quadrature rules on ordered simplices and adaptive refinement.

The 3-simplex has a tensor Gauss-Legendre rule, and the triangle two rules:

* a tensor Gauss-Legendre rule pushed onto the triangle through
  (a, b) -> (s, t) = (a, a + b(1 - a)) with the Jacobian (1 - a) folded into
  the weights (interior nodes, no node on the singular diagonal t = s);
* a diagonal-refined rule that tiles the gap variable x = t - s with
  geometrically shrinking panels, resolving integrands whose mass sits at
  x ~ |u|^2 for very small offsets, which the plain tensor rule cannot see.

Two primitives shared across the package live here as well:
``geometric_panels``, the one-dimensional gap rule on (0, 1] behind the
diagonal-refined rule and the Sobolev norm, and ``interval_overlap``, the
broadcasting length of an interval intersection behind the marginal
projections and the residual variance.

The adaptive machinery at the bottom refines a list of starting cells
(rectangles, or triangles in mapped coordinates) by greedy quadtree splitting
until the summed local error estimates drop below a relative tolerance.  No
package code calls it: the tests integrate the log-singular entropy integrand
with it, as the reference for transport's fixed rule, and the benchmark's
tracer binds it by name.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss  # at import: forked workers inherit it

__all__ = [
    "ConvergenceError",
    "SimplexQuadrature",
    "simplex3_gauss_legendre",
    "geometric_panels",
    "interval_overlap",
    "adaptive_partition_integral",
    "triangle_grid_cells",
]


_ADAPTIVE_ORDER = 8  # Gauss-Legendre nodes per side of an adaptive box
_MIN_WIDTH = 1e-14


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


def _read_only(*arrays) -> tuple:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _unit_gauss_legendre(n: int):
    x, w = leggauss(n)
    return _read_only(0.5 * (x + 1.0), 0.5 * w)


def geometric_panels(levels: int, order: int):
    """Gauss-Legendre rule on (0, 1] with panels shrinking toward 0.

    The panels are [2^-(j+1), 2^-j] for j < levels plus the final sliver
    [0, 2^-levels], each carrying ``order`` nodes; returns (x, w) with the
    nodes grouped panel by panel from the top down.
    """
    xg, wg = _unit_gauss_legendre(order)
    edges = [2.0 ** (-j) for j in range(levels + 1)] + [0.0]
    xs, ws = [], []
    for hi, lo in zip(edges[:-1], edges[1:]):
        xs.append(lo + (hi - lo) * xg)
        ws.append((hi - lo) * wg)
    return np.concatenate(xs), np.concatenate(ws)


def interval_overlap(s1, t1, s2, t2):
    """Lebesgue measure of [s1, t1] intersect [s2, t2], broadcast over arrays;
    every interval must have positive length."""
    if not (np.all(s1 < t1) and np.all(s2 < t2)):
        raise ValueError("intervals must have positive length")
    return np.clip(np.minimum(t1, t2) - np.maximum(s1, s2), 0.0, None)


@dataclass(frozen=True, eq=False)
class SimplexQuadrature:
    """(N, k) nodes, k >= 2, each rising strictly inside (0, 1), with positive
    weights summing to 1/k!; read-only copies, hashed by identity."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes, weights = _read_only(np.array(self.nodes, dtype=float),
                                    np.array(self.weights, dtype=float))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 2 or nodes.shape[1] < 2 or len(weights) != len(nodes):
            raise ValueError("nodes must be (N, k), k >= 2, with matching weights")
        if not (np.all(nodes[:, 0] > 0) and np.all(nodes[:, -1] < 1)
                and np.all(np.diff(nodes, axis=1) > 0)):
            raise ValueError("every node must satisfy 0 < t_1 < ... < t_k < 1")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        k_fact = math.factorial(nodes.shape[1])
        total = float(np.sum(weights))
        if abs(total - 1.0 / k_fact) > 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1/{k_fact}")

    @classmethod
    def gauss_legendre(cls, n_a: int = 64) -> "SimplexQuadrature":
        """Tensor rule mapped by s = a, t = a + b(1 - a); default 64 x 64."""
        a, wa = _unit_gauss_legendre(n_a)
        aa, bb = np.meshgrid(a, a, indexing="ij")
        s = aa.ravel()
        t = (aa + bb * (1.0 - aa)).ravel()
        w = (np.outer(wa, wa) * (1.0 - aa)).ravel()
        return cls(np.column_stack([s, t]), w)

    @classmethod
    def geometric_diagonal(cls, levels: int = 40, order_gap: int = 4,
                           order_pos: int = 12) -> "SimplexQuadrature":
        """Diagonal-refined rule on (x, s) coordinates, x = t - s.

        The gap axis carries the geometric_panels rule; each gap node carries
        a Gauss-Legendre cross with the position variable s on (0, 1 - x).
        """
        if levels < 1:
            raise ValueError("levels must be >= 1")
        x, wx = geometric_panels(levels, order_gap)
        sg, wsg = _unit_gauss_legendre(order_pos)
        # position nodes scale with the remaining room 1 - x
        xx, ss = np.meshgrid(x, sg, indexing="ij")
        wxx, wss = np.meshgrid(wx, wsg, indexing="ij")
        s = ss * (1.0 - xx)
        w = wxx * wss * (1.0 - xx)
        nodes = np.column_stack([s.ravel(), (s + xx).ravel()])
        return cls(nodes, w.ravel())


def simplex3_gauss_legendre(n: int = 12) -> SimplexQuadrature:
    """Tensor Gauss-Legendre rule on {0 < t1 < t2 < t3 < 1} with n^3 nodes;
    n >= 2 (one node per axis misses the volume 1/6)."""
    a, wa = _unit_gauss_legendre(n)
    A, B, C = np.meshgrid(a, a, a, indexing="ij")
    WA, WB, WC = np.meshgrid(wa, wa, wa, indexing="ij")
    t1 = A
    t2 = A + B * (1.0 - A)
    t3 = t2 + C * (1.0 - t2)
    w = WA * WB * WC * (1.0 - A) ** 2 * (1.0 - B)
    nodes = np.column_stack([t1.ravel(), t2.ravel(), t3.ravel()])
    return SimplexQuadrature(nodes, w.ravel())


@lru_cache(maxsize=None)
def _shared_rule(build, *args):
    """build(*args), built once per process and shared (rules are read-only)."""
    return build(*args)


# ---------------------------------------------------------------------------
# Adaptive refinement over a partition of the triangle
# ---------------------------------------------------------------------------

def triangle_grid_cells(grid_nodes) -> list:
    """Partition of {s < t} into the rectangles and diagonal triangles cut by
    the horizontal/vertical lines through the given breakpoints."""
    g = np.asarray(grid_nodes, dtype=float)
    if g.ndim != 1 or len(g) < 2 or np.any(np.diff(g) <= 0):
        raise ValueError("grid nodes must be strictly increasing with >= 2 entries")
    cells = []
    n = len(g) - 1
    for i in range(n):
        cells.append(("tri", g[i], g[i + 1], 0.0, 0.0))
        for j in range(i + 1, n):
            cells.append(("rect", g[i], g[i + 1], g[j], g[j + 1]))
    return cells


def _boxes_apply(f, items, gl) -> list:
    """Gauss-Legendre estimates of the integral of f over sub-boxes of cells,
    one per (cell, box) item, from one call of f on all their nodes.

    For 'rect' cells the box lives directly in (s, t).  For 'tri' cells the
    box lives in the unit (a, b) square mapped by s = c0 + h a,
    t = s + b (c1 - s) with Jacobian h^2 (1 - a); splitting boxes toward b = 0
    chases the t -> s edge where log-type singularities sit.  Every item takes
    the elementwise operations of a lone box and is summed along one
    contiguous axis, so its estimate does not depend on the batch.
    """
    x, w = gl
    rect = np.array([cell[0] == "rect" for cell, _ in items])[:, None, None]
    c0, c1, d0, d1, lo_a, hi_a, lo_b, hi_b = np.array(
        [cell[1:] + box for cell, box in items],
        dtype=float).reshape(-1, 8).T[..., None, None]
    A = lo_a + (hi_a - lo_a) * x[:, None]
    B = lo_b + (hi_b - lo_b) * x
    W = np.outer(w, w) * (hi_a - lo_a) * (hi_b - lo_b)
    h = c1 - c0
    s = np.broadcast_to(c0 + h * A, W.shape)
    t = np.where(rect, d0 + (d1 - d0) * B, s + B * (c1 - s))
    jac = np.where(rect, h * (d1 - d0), h * h * (1.0 - A))
    values = W * jac * f(s.ravel(), t.ravel()).reshape(W.shape)
    return np.sum(values.reshape(len(items), -1), axis=1).tolist()


def adaptive_partition_integral(f, cells, rel_tol: float = 1e-6,
                                max_refinements: int = 40000) -> float:
    """Greedy adaptive integral of a vectorized f(s, t) over starting cells.

    Each parameter box is scored by comparing its one-panel estimate against
    both directional bisections; the worse disagreement picks the split
    direction, so refinement toward edge singularities grades the boxes
    anisotropically instead of exploding a quadtree along the edge.  Boxes
    are split worst-first until the summed scores fall under rel_tol times
    the running total; a box narrower than _MIN_WIDTH on a side scores 0, so
    it is never split.  Ties break on insertion order, so the result is
    deterministic.  A non-finite total raises ConvergenceError.

    f is called on concatenated batches of boxes: once for every starting
    cell's box and its four halves, then once per split for the four halves
    of each of the two children.  A child's one-panel estimate is the half
    estimate its parent already holds.
    """
    gl = _unit_gauss_legendre(_ADAPTIVE_ORDER)

    def halves(box):  # the two bisections in a, then the two in b
        lo_a, hi_a, lo_b, hi_b = box
        ma, mb = 0.5 * (lo_a + hi_a), 0.5 * (lo_b + hi_b)
        return [(lo_a, ma, lo_b, hi_b), (ma, hi_a, lo_b, hi_b),
                (lo_a, hi_a, lo_b, mb), (lo_a, hi_a, mb, hi_b)]

    heap = []
    seq = 0
    total = 0.0
    err_total = 0.0

    def push(cell, box, coarse, fine):
        nonlocal seq, total, err_total
        err_a = abs(sum(fine[:2]) - coarse)
        err_b = abs(sum(fine[2:]) - coarse)
        if err_a >= err_b:
            pick, err = slice(0, 2), err_a
        else:
            pick, err = slice(2, 4), err_b
        children, value = list(zip(halves(box)[pick], fine[pick])), sum(fine[pick])
        if min(box[1] - box[0], box[3] - box[2]) < _MIN_WIDTH:
            err = 0.0
        total += value
        err_total += err
        heapq.heappush(heap, (-err, seq, cell, children, value))
        seq += 1

    unit = (0.0, 1.0, 0.0, 1.0)
    est = _boxes_apply(f, [(cell, box) for cell in cells
                           for box in [unit] + halves(unit)], gl)
    for k, cell in enumerate(cells):
        push(cell, unit, est[5 * k], est[5 * k + 1:5 * k + 5])
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
        est = _boxes_apply(f, [(cell, half) for child, _ in children
                               for half in halves(child)], gl)
        for k, (child, coarse) in enumerate(children):
            push(cell, child, coarse, est[4 * k:4 * k + 4])
        refinements += 1
    if not np.isfinite(total):
        raise ConvergenceError(f"adaptive refinement reached a non-finite total ({total})")
    return total
