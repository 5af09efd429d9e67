"""Command-line front end: experiment orchestration and CSV emission.

Every command is a pure function of its resolved configuration and master
seed: outputs are byte-identical across reruns and across worker counts.
Configuration files are flat ``key=value`` lines with ``#`` comments;
explicit command-line flags override file values, which override defaults.
Floats are written with 17 significant digits so CSVs round-trip exactly.

Exit codes: 0 success, 2 usage or domain error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import __version__
from .marginals import TimeGrid, marginal_density_q_batch, sample_mu_n
from .quadrature import ConvergenceError, SimplexQuadrature, \
    simplex3_gauss_legendre
from .sobolev import SobolevSpec, capacity_lower_bound
from .specfun import (
    SimplexIntegralSpec,
    calibrate_szego_constant,
    hermite_eval,
    simplex_moment_asymptotic,
    simplex_moment_integral,
    szego_bound,
)
from .siltcore import (
    centering_constant_2d,
    chaos_term,
    chaos_term_bound,
    dynkin_renormalized_sum,
    dynkin_T,
    sample_path,
    silt_epsilon,
)
from .transport import (
    DegenerateProposalError,
    TransportPlanSpec,
    empirical_relative_entropy,
    empirical_w2,
    talagrand_bound,
    weighted_theta_samples,
)

USAGE_EXIT = 2
NONCONVERGENCE_EXIT = 3


class UsageError(ValueError):
    """Bad flags, malformed ranges, or out-of-domain parameters."""


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def parse_norm_list(text: str) -> list:
    """Offset-norm sweeps: '2^-2..2^-7' (dyadic range) or '0.5,0.25' or ''."""
    text = text.strip()
    if not text:
        return []
    if ".." in text:
        lo, hi = text.split("..", 1)

        def dyadic_exp(part):
            part = part.strip()
            if not part.startswith("2^"):
                raise UsageError(f"range endpoints must look like 2^-3, got {part!r}")
            try:
                return int(part[2:])
            except ValueError as exc:
                raise UsageError(f"bad dyadic exponent in {part!r}") from exc

        a, b = dyadic_exp(lo), dyadic_exp(hi)
        step = 1 if b >= a else -1
        return [2.0 ** e for e in range(a, b + step, step)]
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad norm list {text!r}") from exc


def parse_multi_indices(text: str, d: int) -> list:
    """Semicolon-separated comma-tuples: '0,0;1,0' -> [(0,0), (1,0)]."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            idx = tuple(int(v) for v in chunk.split(","))
        except ValueError as exc:
            raise UsageError(f"bad multi-index {chunk!r}") from exc
        if len(idx) != d or any(v < 0 for v in idx):
            raise UsageError(f"multi-index {chunk!r} must have {d} entries >= 0")
        out.append(idx)
    return out


def parse_direction(text: str, d: int) -> np.ndarray:
    vec = np.array([float(v) for v in text.split(",")])
    if vec.shape != (d,) or not np.linalg.norm(vec) > 0:
        raise UsageError(f"direction needs {d} coordinates and nonzero length")
    return vec / np.linalg.norm(vec)


@dataclass
class RunConfig:
    """Resolved per-run configuration: command, output dir, seed, workers, and
    the command-specific parameter map (all values as strings)."""

    command: str
    out_dir: str
    seed: int
    workers: int
    params: dict = field(default_factory=dict)

    def digest(self) -> str:
        payload = "\n".join(
            [f"command={self.command}", f"seed={self.seed}"]
            + sorted(f"{k}={v}" for k, v in self.params.items())
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(config: RunConfig, name: str, header: list, rows: list) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(f"# siltkit={__version__} seed={config.seed} "
                 f"config_sha256={config.digest()}\n")
        fp.write(",".join(header) + "\n")
        for row in rows:
            fp.write(",".join(fmt(v) for v in row) + "\n")
    return path


def parallel_map(fn, items, workers: int) -> list:
    """Order-preserving map over independent tasks; fork-join when workers>1."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunk = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def cmd_kernel(config: RunConfig) -> str:
    alphas = [float(v) for v in config.params["alpha"].split(",")]
    dims = [int(v) for v in config.params["dim"].split(",")]
    norms = parse_norm_list(config.params["u_norms"])
    rows = []
    for alpha in alphas:
        for d in dims:
            for r in norms:
                spec = SimplexIntegralSpec(alpha=alpha, d=d, u_norm=r)
                exact = simplex_moment_integral(spec)
                asym = simplex_moment_asymptotic(spec)
                rows.append((alpha, d, r, exact, asym, exact / asym))
    return write_csv(config, "kernel.csv",
                     ["alpha", "d", "u_norm", "exact", "asymptotic", "ratio"], rows)


def cmd_hermite(config: RunConfig) -> str:
    n_max = int(config.params["n_max"])
    x_lo = float(config.params["x_min"])
    x_hi = float(config.params["x_max"])
    count = int(config.params["x_count"])
    alpha = float(config.params["alpha"])
    c = config.params["c"]
    c = 1.05 * calibrate_szego_constant(alpha, max(n_max, 50)) if c == "auto" \
        else float(c)
    xs = np.linspace(x_lo, x_hi, count)
    rows = []
    for n in range(n_max + 1):
        values = hermite_eval(n, xs)
        for x, h in zip(xs, np.atleast_1d(values)):
            bound = szego_bound(n, float(x), alpha, c)
            log_abs = math.log(abs(h)) if h != 0 else -math.inf
            rows.append((n, float(x), float(h), log_abs, bound,
                         int(log_abs <= bound)))
    return write_csv(config, "hermite.csv",
                     ["n", "x", "hermite", "log_abs", "szego_log_bound", "within"],
                     rows)


@lru_cache(maxsize=None)
def _triangle_rule(quad_order: int) -> SimplexQuadrature:
    """The silt and dynkin tasks' triangle rule, built once per process and
    shared read-only."""
    quad = SimplexQuadrature.gauss_legendre(quad_order)
    quad.nodes.flags.writeable = quad.weights.flags.writeable = False
    return quad


@lru_cache(maxsize=None)
def _chaos_rule(levels: int, order_gap: int, order_pos: int) -> SimplexQuadrature:
    """The chaos tasks' diagonal-refined rule, built once per process and
    shared read-only."""
    quad = SimplexQuadrature.geometric_diagonal(levels, order_gap, order_pos)
    quad.nodes.flags.writeable = quad.weights.flags.writeable = False
    return quad


@lru_cache(maxsize=None)
def _simplex3_rule(order: int) -> tuple:
    """The dynkin tasks' 3-simplex rule, built once per process and shared
    read-only."""
    nodes, weights = simplex3_gauss_legendre(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _silt_task(args):
    (seed, stream, d, m, eps_ladder, u, quad_order) = args
    path = sample_path(m, d, seed, stream=stream)
    raws = silt_epsilon(path, np.array(eps_ladder), u,
                        _triangle_rule(quad_order))
    out = []
    u_norm = float(np.linalg.norm(u))
    for eps, raw in zip(eps_ladder, raws.tolist()):
        if d == 2 and u_norm == 0:
            mode, adjusted = "centered2d", raw - centering_constant_2d(eps)
        elif d == 2:
            mode, adjusted = "renorm2d", raw - math.log(1.0 / u_norm) / math.pi
        elif d == 3 and 0 < u_norm < 1:
            mode = "renorm3d"
            adjusted = (raw - 1.0 / (2.0 * math.pi * u_norm)) \
                / math.sqrt(math.log(1.0 / u_norm))
        else:
            mode, adjusted = "raw", raw
        out.append((stream, eps, u_norm, raw, adjusted, mode))
    return out


def cmd_silt(config: RunConfig) -> str:
    d = int(config.params["dim"])
    m = int(config.params["grid_m"])
    replicas = int(config.params["replicas"])
    quad_order = int(config.params["quad_order"])
    eps_ladder = sorted((float(v) for v in config.params["eps_ladder"].split(",")),
                        reverse=True)
    u_norm = float(config.params["u_norm"])
    u = u_norm * parse_direction(config.params["u_dir"], d) if u_norm > 0 \
        else np.zeros(d)
    tasks = [(config.seed, i, d, m, tuple(eps_ladder), u, quad_order)
             for i in range(replicas)]
    results = parallel_map(_silt_task, tasks, config.workers)
    rows = [("point",) + row for chunk in results for row in chunk]
    # Streit-type rate experiment: variance of D_eps = L(eps) - L(next eps)
    # across replicas, regressed against eps on the log scale
    if d == 2 and u_norm == 0 and len(eps_ladder) >= 3 and replicas >= 8:
        table = {}
        for chunk in results:
            for stream, eps, _, _, adjusted, _ in chunk:
                table[(stream, eps)] = adjusted
        variances = []
        for eps_hi, eps_lo in zip(eps_ladder[:-1], eps_ladder[1:]):
            diffs = [table[(i, eps_hi)] - table[(i, eps_lo)]
                     for i in range(replicas)]
            variances.append((eps_hi, float(np.var(diffs, ddof=1))))
        slope = float(np.polyfit([math.log(e) for e, _ in variances],
                                 [math.log(v) for _, v in variances], 1)[0])
        rows.extend(("rate_var", -1, eps, u_norm, v, v, "centered2d")
                    for eps, v in variances)
        rows.append(("rate_fit", -1, 0.0, u_norm, slope, slope, "centered2d"))
    return write_csv(config, "silt.csv",
                     ["row_type", "replica", "eps", "u_norm", "raw", "adjusted",
                      "mode"], rows)


def _chaos_task(args):
    (seed, stream, d, m, indices, norms, direction, levels, order_gap,
     order_pos) = args
    quad = _chaos_rule(levels, order_gap, order_pos)
    path = sample_path(m, d, seed, stream=stream)
    offsets = np.array(norms)[:, None] * direction
    out = []
    for idx in indices:
        terms = chaos_term(path, idx, offsets, quad)
        bounds = chaos_term_bound(path, idx, offsets)
        for r, term, bound in zip(norms, terms.tolist(), bounds.tolist()):
            log_abs = math.log(abs(term)) if term != 0 else -math.inf
            out.append((stream, idx, r, log_abs, bound, bound - log_abs))
    return out


def cmd_chaos(config: RunConfig) -> str:
    d = int(config.params["dim"])
    m = int(config.params["grid_m"])
    n_paths = int(config.params["paths"])
    indices = parse_multi_indices(config.params["multi_index"], d)
    norms = parse_norm_list(config.params["u_norms"])
    direction = parse_direction(config.params["u_dir"], d)
    levels = int(config.params["quad_levels"])
    order_gap = int(config.params["quad_order_gap"])
    order_pos = int(config.params["quad_order_pos"])
    tasks = [(config.seed, i, d, m, tuple(indices), tuple(norms), direction,
              levels, order_gap, order_pos) for i in range(n_paths)]
    results = parallel_map(_chaos_task, tasks, config.workers)
    rows = []
    for chunk in results:
        for stream, idx, r, log_abs, bound, slack in chunk:
            rows.append(("point", stream, " ".join(map(str, idx)), r,
                         log_abs, bound, slack))
    # per-index slope fit of log|term| against log|u| (first path stream)
    if len(norms) >= 3:
        first = results[0]
        for idx in indices:
            pts = [(math.log(r), log_abs) for (_, i2, r, log_abs, _, _) in first
                   if i2 == idx and math.isfinite(log_abs)]
            if len(pts) < 3:
                continue
            slope = float(np.polyfit([p[0] for p in pts],
                                     [p[1] for p in pts], 1)[0])
            threshold = -(sum(idx) + d - 2) - 0.1
            rows.append(("slope", 0, " ".join(map(str, idx)), 0.0, slope,
                         threshold, slope - threshold))
    return write_csv(config, "chaos.csv",
                     ["row_type", "path_stream", "multi_index", "u_norm",
                      "log_abs_term", "bound", "slack"], rows)


def _dynkin_task(args):
    (seed, stream, k, m, eps_ladder, quad_order, quad3_order) = args
    quad = _triangle_rule(quad_order)
    quad3 = _simplex3_rule(quad3_order) if k == 3 else None
    path = sample_path(m, 2, seed, stream=stream)
    one = (lambda *ts: np.ones_like(ts[0], dtype=float))
    scales = np.array(eps_ladder)
    t_vals = dynkin_T(path, k, scales, one, quad=quad, quad3=quad3)
    renorm = dynkin_renormalized_sum(path, k, scales, one, quad=quad,
                                     quad3=quad3, t_top=t_vals)
    return [(stream, eps, t_val, value) for eps, t_val, value
            in zip(eps_ladder, t_vals.tolist(), renorm.tolist())]


def cmd_dynkin(config: RunConfig) -> str:
    k = int(config.params["k"])
    if k not in (2, 3):
        raise UsageError(f"order k must be 2 or 3, got {k}")
    m = int(config.params["grid_m"])
    replicas = int(config.params["replicas"])
    quad_order = int(config.params["quad_order"])
    eps_ladder = sorted((float(v) for v in config.params["eps_ladder"].split(",")),
                        reverse=True)
    tasks = [(config.seed, i, k, m, tuple(eps_ladder), quad_order,
              int(config.params["quad3_order"])) for i in range(replicas)]
    results = parallel_map(_dynkin_task, tasks, config.workers)
    rows = [("point",) + row for chunk in results for row in chunk]
    if len(eps_ladder) >= 2:
        for eps_hi, eps_lo in zip(eps_ladder[:-1], eps_ladder[1:]):
            diffs = []
            for chunk in results:
                values = {eps: renorm for _, eps, _, renorm in chunk}
                diffs.append(abs(values[eps_hi] - values[eps_lo]))
            rows.append(("trend", -1, eps_lo, float(np.mean(diffs)), 0.0))
    return write_csv(config, "dynkin.csv",
                     ["row_type", "replica", "eps", "t_value", "renorm_sum"],
                     rows)


def cmd_marginal(config: RunConfig) -> str:
    d = int(config.params["dim"])
    n = int(config.params["n"])
    count = int(config.params["count"])
    if count < 2:  # the standard error needs two samples
        raise UsageError(f"count must be >= 2, got {count}")
    quad = SimplexQuadrature.gauss_legendre(int(config.params["quad_order"]))
    norms = parse_norm_list(config.params["u_norms"])
    direction = parse_direction(config.params["u_dir"], d)
    grid = TimeGrid.make_uniform(n)
    rows = []
    for stream, r in enumerate(norms):
        u = r * direction
        points = sample_mu_n(n, d, config.seed, count, stream=stream)
        q = marginal_density_q_batch(u, grid, points, quad)
        m_exact = simplex_moment_integral(SimplexIntegralSpec(alpha=0.0, d=d, u=u))
        mc = float(np.mean(q))
        se = float(np.std(q, ddof=1) / math.sqrt(count))
        w = q / q.sum()
        ess = float(1.0 / np.sum(w * w))
        rows.append((d, n, r, count, mc, se, m_exact, (mc - m_exact) / se, ess))
    return write_csv(config, "marginal.csv",
                     ["d", "n", "u_norm", "count", "mc_mean", "mc_se",
                      "m_exact", "z", "ess"], rows)


def cmd_transport(config: RunConfig) -> str:
    d = int(config.params["dim"])
    n = int(config.params["n"])
    count = int(config.params["count"])
    if not 2 <= count <= 5000:
        raise UsageError(f"count must be in 2..5000, got {count}")
    if d * n > 16:
        raise UsageError(f"flattened dimension d*n capped at 16, got {d * n}")
    quad = SimplexQuadrature.gauss_legendre(int(config.params["quad_order"]))
    plan = TransportPlanSpec(
        regularization=float(config.params["reg"]),
        max_iterations=int(config.params["max_iter"]),
        tolerance=float(config.params["tol"]),
    )
    norms = parse_norm_list(config.params["u_norms"])
    direction = parse_direction(config.params["u_dir"], d)
    rows = []
    for r in norms:
        u = r * direction
        m_exact = simplex_moment_integral(SimplexIntegralSpec(alpha=0.0, d=d, u=u))
        bound = talagrand_bound(u, d, n)
        batch = weighted_theta_samples(u, d, n, config.seed, count, quad)
        entropy = empirical_relative_entropy(batch)
        w2 = empirical_w2(batch, config.seed, plan)
        rows.append((d, n, r, m_exact, bound.kappa_n, bound.entropy, bound.value,
                     entropy.value, entropy.stderr, w2.value, w2.stderr,
                     batch.ess, int(bound.vacuous)))
    return write_csv(config, "transport.csv",
                     ["d", "n", "u_norm", "m", "kappa", "entropy_bound",
                      "talagrand_bound", "H_mc", "H_se", "w2_mc", "w2_se",
                      "ess", "vacuous_flag"], rows)


def cmd_capacity(config: RunConfig) -> str:
    d = int(config.params["dim"])
    gamma = float(config.params["gamma"])
    if d < 4:
        raise UsageError(f"capacity machinery needs d >= 4, got {d}")
    if not gamma < 0.5 * (4 - d):
        raise UsageError(f"need gamma < (4-d)/2 = {0.5 * (4 - d)}, got {gamma}")
    k_max = int(config.params["k_max"])
    tau_levels = int(config.params["tau_levels"])
    tau_order = int(config.params["tau_order"])
    norms = parse_norm_list(config.params["u_norms"])
    direction = parse_direction(config.params["u_dir"], d)
    specs = [SobolevSpec(gamma=gamma, K=k_max, u=r * direction, d=d,
                         tau_levels=tau_levels, tau_order=tau_order)
             for r in norms]
    rows = []
    points = []
    for r, res in zip(norms, parallel_map(capacity_lower_bound, specs,
                                          config.workers)):
        rows.append(("point", d, gamma, r, res.K_used, res.mass, res.norm_sq,
                     res.value, res.tail_ratio))
        # the bound tends to 1 like 1 - c|u|^2, so the informative slope is
        # that of log(1/bound - 1)
        if res.value < 1.0:
            points.append((math.log(r), math.log(1.0 / res.value - 1.0)))
    if len(points) >= 3:
        slope = float(np.polyfit([p[0] for p in points],
                                 [p[1] for p in points], 1)[0])
        rows.append(("slope_fit", d, gamma, 0.0, 0, 0.0, 0.0, slope, 0.0))
    return write_csv(config, "capacity.csv",
                     ["row_type", "d", "gamma", "u_norm", "K_used", "m",
                      "norm_sq", "capacity_lb", "tail_ratio"], rows)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

COMMANDS = {
    "kernel": (cmd_kernel, {
        "alpha": "0", "dim": "4", "u_norms": "2^-1..2^-10"}),
    "hermite": (cmd_hermite, {
        "n_max": "30", "x_min": "-8", "x_max": "8", "x_count": "81",
        "alpha": "0.25", "c": "auto"}),
    "silt": (cmd_silt, {
        "dim": "2", "grid_m": "2048", "replicas": "100",
        "eps_ladder": "0.2,0.1,0.05,0.025", "u_norm": "0",
        "u_dir": "1,0", "quad_order": "128"}),
    "chaos": (cmd_chaos, {
        "dim": "4", "grid_m": "1024", "paths": "20",
        "multi_index": "0,0,0,0;1,0,0,0;1,1,0,0;2,1,0,0",
        "u_norms": "2^-3..2^-10", "u_dir": "1,1,1,1",
        "quad_levels": "36", "quad_order_gap": "4", "quad_order_pos": "12"}),
    "dynkin": (cmd_dynkin, {
        "k": "3", "grid_m": "2048", "replicas": "8",
        "eps_ladder": "0.4,0.2,0.1", "quad_order": "64",
        "quad3_order": "32"}),
    "marginal": (cmd_marginal, {
        "dim": "4", "n": "2", "count": "10000", "u_norms": "0.2,0.5",
        "u_dir": "1,0,0,0", "quad_order": "64"}),
    "transport": (cmd_transport, {
        "dim": "4", "n": "2", "count": "2000", "u_norms": "0.3",
        "u_dir": "1,0,0,0", "reg": "0.25", "max_iter": "20000",
        "tol": "1e-9", "quad_order": "64"}),
    "capacity": (cmd_capacity, {
        "dim": "4", "gamma": "-0.5", "u_norms": "2^-2..2^-7",
        "u_dir": "1,0,0,0", "k_max": "64", "tau_levels": "34",
        "tau_order": "6"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siltkit",
        description="Numerics for Brownian self-intersection local times.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: SILT_WORKERS or CPUs)")
        for key in defaults:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    return parser


def resolve_config(args) -> RunConfig:
    runner, defaults = COMMANDS[args.command]
    file_values = load_config(args.config) if args.config else {}
    unknown = set(file_values) - set(defaults)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    params = {}
    for key, default in defaults.items():
        cli_value = getattr(args, key)
        params[key] = cli_value if cli_value is not None \
            else file_values.get(key, default)
    if args.workers is not None:
        workers = args.workers
    elif os.environ.get("SILT_WORKERS"):
        workers = int(os.environ["SILT_WORKERS"])
    else:
        workers = os.cpu_count() or 1
    return RunConfig(command=args.command, out_dir=args.out, seed=args.seed,
                     workers=workers, params=params)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        runner, _ = COMMANDS[args.command]
        path = runner(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ConvergenceError, DegenerateProposalError) as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return NONCONVERGENCE_EXIT
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
