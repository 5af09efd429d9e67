"""Command-line front end: experiment orchestration and CSV emission.

Every command is a pure function of its resolved configuration and master
seed: outputs are byte-identical across reruns and across worker counts.
Each command declares its parameters once, in ``COMMANDS``: a converter and
a default string per key.  Configuration files are flat ``key=value`` lines
with ``#`` comments; command-line flags override file values, which override
defaults.  Each winning string is converted once (a value that does not
convert or leaves its declared domain is a usage error naming its key) and
also feeds each CSV header's ``config_sha256``.  Floats are written with 17
significant digits so CSVs round-trip exactly.

Independent tasks (replicas, paths, offset norms, and the six Sinkhorn
solves of each transport row) run in ``parallel_map``: the calling process
forks at most min(workers, tasks, usable CPUs) children, each on a static
interleaved shard, and only waits for them; the shards come back in input
order.  Without ``os.fork`` the run is serial.
``--workers`` (or ``SILT_WORKERS``) must be an integer of at least 1.

Exit codes: 0 success, 2 usage or domain error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import __version__
from .marginals import TimeGrid, marginal_density_q_batch, sample_mu_n
from .quadrature import ConvergenceError, SimplexQuadrature, _shared_rule, \
    simplex3_gauss_legendre
from .sobolev import SobolevSpec, capacity_lower_bound
from .specfun import (
    _normalized_hermite_rows,
    calibrate_szego_constant,
    simplex_moment_asymptotic,
    simplex_moment_integral,
    szego_bound,
)
from .siltcore import (
    chaos_term,
    chaos_term_bound,
    dynkin_renormalized_sum,
    dynkin_T,
    sample_path,
    silt_adjustment,
    silt_epsilon,
)
from .transport import (
    TransportPlanSpec,
    empirical_w2,
    talagrand_bound,
    theta_relative_entropy,
    weighted_theta_samples,
)

USAGE_EXIT = 2
NONCONVERGENCE_EXIT = 3


class UsageError(ValueError):
    """Bad flags, malformed ranges, or out-of-domain parameters."""


# ---------------------------------------------------------------------------
# Parameter converters: string -> typed value, raising UsageError outside the
# declared domain
# ---------------------------------------------------------------------------

def number(kind, lo=-math.inf, hi=math.inf):
    """Converter to a finite ``kind`` (int or float) in [lo, hi]."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and lo <= value <= hi):
            raise UsageError(f"must be a finite {kind.__name__} in "
                             f"[{lo}, {hi}], got {text!r}")
        return value
    return convert


_float, _size = number(float), number(int, lo=1)
_positive = number(float, lo=math.ulp(0.0))
_levels = number(int, lo=1, hi=50)  # level 51 puts a rule node on s = t
_exponent = number(int, lo=-536, hi=512)  # (2^e)^2/2 finite and positive


def comma_list(convert):
    """Converter of a comma list, each entry by ``convert``."""
    return lambda text: [convert(v) for v in text.split(",")]


def parse_norm_list(text: str) -> list:
    """Offset-norm sweeps: '2^-2..2^-7' (dyadic, exponents -536..512) or
    '0.5,0.25'; one or more norms, |u|^2/2 positive and finite at each."""
    if ".." not in text:
        norms = [_float(v) for v in text.split(",") if v.strip()]
        if not (norms and all(r > 0 and 0 < 0.5 * r * r < math.inf
                              for r in norms)):
            raise UsageError("must be one or more norms |u| with |u|^2/2 "
                             f"positive and finite, got {text!r}")
        return norms
    try:
        a, b = (_exponent(e.strip()[2:]) for e in text.split("..", 1)
                if e.strip().startswith("2^"))
    except ValueError as exc:
        raise UsageError("must be a dyadic range like 2^-2..2^-7 with integer "
                         f"exponents in [-536, 512], got {text!r}") from exc
    step = 1 if b >= a else -1
    return [2.0 ** e for e in range(a, b + step, step)]


def parse_multi_indices(text: str) -> list:
    """Semicolon-separated comma-tuples: '0,0;1,0' -> [(0,0), (1,0)]; at
    least one."""
    entry = comma_list(number(int, lo=0))
    indices = [tuple(entry(chunk)) for chunk in text.split(";") if chunk.strip()]
    if not indices:
        raise UsageError(f"must name one or more multi-indices, got {text!r}")
    return indices


def parse_direction(text: str) -> np.ndarray:
    """Unit vector along comma-separated coordinates of finite nonzero length."""
    vec = np.array(comma_list(_float)(text))
    with np.errstate(over="ignore"):
        length = np.linalg.norm(vec)
    if not 0 < length < math.inf:
        raise UsageError(f"must have finite nonzero length, got {text!r}")
    return vec / length


def parse_eps_ladder(text: str) -> tuple:
    """Mollification scales, largest first; positive and distinct."""
    ladder = sorted(comma_list(_float)(text), reverse=True)
    if not (ladder[-1] > 0 and len(set(ladder)) == len(ladder)):
        raise UsageError(f"must be positive and distinct, got {text!r}")
    return tuple(ladder)


def _check_dim(key: str, d: int, *values) -> None:
    if any(len(value) != d for value in values):
        raise UsageError(f"{key} must have {d} coordinates")


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


@dataclass
class RunConfig:
    """Resolved per-run configuration: command, output dir, seed, workers,
    the command's parameter strings (``params``, which the digest reads) and
    their converted values (``values``, which the command reads)."""

    command: str
    out_dir: str
    seed: int
    workers: int
    params: dict = field(default_factory=dict)
    values: argparse.Namespace = field(default_factory=argparse.Namespace)

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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def parallel_map(fn, items, workers: int) -> list:
    """Order-preserving map over independent tasks, as a POSIX fork-join.

    The caller forks k = min(workers, tasks, usable CPUs) children and only
    waits: child i computes items[i::k] in order and pipes back one pickled
    (ok, results or exception).  A task's exception is re-raised here with
    its own type; a child that leaves no result raises RuntimeError.  No
    child outlives the call.  Serial when k <= 1 or without os.fork.
    """
    items = list(items)
    k = min(workers, len(items), _usable_cpus())
    if k <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    children = {}  # pid -> read end of its pipe, until reaped
    try:
        for i in range(k):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _run_share(fn, items[i::k], read_end, write_end)
            os.close(write_end)
            children[pid] = read_end
        out = [None] * len(items)
        for i, (pid, read_end) in enumerate(list(children.items())):
            with os.fdopen(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(children.pop(pid))
            try:
                ok, value = pickle.loads(data)
            except Exception:
                raise RuntimeError(
                    f"worker {pid} left no result (exit status "
                    f"{os.waitstatus_to_exitcode(status)})") from None
            if not ok:
                raise value
            out[i::k] = value
        return out
    finally:
        for pid, read_end in children.items():  # not reaped: kill, then reap
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_share(fn, share, read_end, write_end) -> None:
    """A forked child's whole life: compute its share, write one pickled
    (ok, results or exception) to its pipe and leave through os._exit,
    never returning into the caller's stack."""
    code = 1
    try:
        os.close(read_end)
        try:
            payload = (True, [fn(item) for item in share])
        except BaseException as exc:  # re-raised in the caller
            if hasattr(exc, "add_note"):  # Python 3.11+: keep this traceback
                import traceback
                exc.add_note(f"in worker {os.getpid()}:\n"
                             + traceback.format_exc())
            payload = (False, exc)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(payload))
        code = 0
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def cmd_kernel(config: RunConfig) -> str:
    p = config.values
    rows = []
    for alpha in p.alpha:
        for d in p.dim:
            for r in p.u_norms:
                try:
                    exact = simplex_moment_integral(alpha, d, r)
                    asym = simplex_moment_asymptotic(alpha, d, r)
                    values = (exact, asym, exact / asym)
                except (OverflowError, ZeroDivisionError):
                    values = (math.nan,)
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"alpha={alpha}, d={d}: exact, asymptotic "
                                     f"or ratio is not finite at u_norm={r}")
                if values[0] == 0.0:
                    raise ValueError(f"alpha={alpha}, d={d}: exact underflows "
                                     f"to 0 at u_norm={r}")
                rows.append((alpha, d, r, *values))
    return write_csv(config, "kernel.csv",
                     ["alpha", "d", "u_norm", "exact", "asymptotic", "ratio"], rows)


def cmd_hermite(config: RunConfig) -> str:
    p = config.values
    c = 1.05 * calibrate_szego_constant(p.alpha, max(p.n_max, 50)) \
        if p.c is None else p.c
    xs = np.linspace(p.x_min, p.x_max, p.x_count)
    rows = []
    # |H_n| = |G_n| exp(shift) sqrt(n!) from one rescaled pass over all
    # orders; an exact zero has no logarithm and meets the envelope trivially
    for n, (g, shift) in enumerate(_normalized_hermite_rows(p.n_max, xs,
                                                            rescale=True)):
        half_log_fact = 0.5 * math.lgamma(n + 1)
        for x, gx, sx in zip(xs.tolist(), g.tolist(), shift.tolist()):
            if gx != 0.0:
                log_abs = math.log(abs(gx)) + sx + half_log_fact
                bound = szego_bound(n, x, p.alpha, c)
                rows.append((n, x, 1 if gx > 0 else -1, log_abs, bound,
                             int(log_abs <= bound)))
    return write_csv(config, "hermite.csv",
                     ["n", "x", "sign", "log_abs", "szego_log_bound", "within"],
                     rows)


def _silt_task(config: RunConfig, stream: int) -> list:
    p = config.values
    u = p.u_norm * p.u_dir if p.u_norm > 0 else np.zeros(p.dim)
    path = sample_path(p.grid_m, p.dim, config.seed, stream=stream)
    raws = silt_epsilon(path, np.array(p.eps_ladder), u, _shared_rule(
        SimplexQuadrature.gauss_legendre, p.quad_order))
    u_norm = float(np.linalg.norm(u))
    return [(stream, eps, u_norm, raw, *silt_adjustment(raw, eps, p.dim, u_norm))
            for eps, raw in zip(p.eps_ladder, raws.tolist())]


def cmd_silt(config: RunConfig) -> str:
    p = config.values
    if p.u_norm > 0:
        _check_dim("u_dir", p.dim, p.u_dir)
    eps_ladder, u_norm, replicas = p.eps_ladder, p.u_norm, p.replicas
    results = parallel_map(partial(_silt_task, config), range(replicas),
                           config.workers)
    rows = [("point",) + row for chunk in results for row in chunk]
    # variance of D_eps = L(eps) - L(next eps) across replicas
    if p.dim == 2 and u_norm == 0 and len(eps_ladder) >= 3 and replicas >= 8:
        table = {}
        for chunk in results:
            for stream, eps, _, _, adjusted, _ in chunk:
                table[(stream, eps)] = adjusted
        variances = []
        for eps_hi, eps_lo in zip(eps_ladder[:-1], eps_ladder[1:]):
            diffs = [table[(i, eps_hi)] - table[(i, eps_lo)]
                     for i in range(replicas)]
            variances.append((eps_hi, float(np.var(diffs, ddof=1))))
        rows.extend(("rate_var", -1, eps, u_norm, v, v, "centered2d")
                    for eps, v in variances)
    return write_csv(config, "silt.csv",
                     ["row_type", "replica", "eps", "u_norm", "raw", "adjusted",
                      "mode"], rows)


def _chaos_task(config: RunConfig, stream: int) -> list:
    p = config.values
    quad = _shared_rule(SimplexQuadrature.geometric_diagonal, p.quad_levels)
    path = sample_path(p.grid_m, p.dim, config.seed, stream=stream)
    offsets = np.array(p.u_norms)[:, None] * p.u_dir
    out = []
    for idx in p.multi_index:
        terms = chaos_term(path, idx, offsets, quad)
        bounds = chaos_term_bound(path, idx, offsets, quad)
        for r, term, bound in zip(p.u_norms, terms.tolist(), bounds.tolist()):
            log_abs = math.log(abs(term)) if term != 0 else -math.inf
            out.append((stream, idx, r, log_abs, bound, bound - log_abs))
    return out


def cmd_chaos(config: RunConfig) -> str:
    p = config.values
    _check_dim("multi_index", p.dim, *p.multi_index)
    _check_dim("u_dir", p.dim, p.u_dir)
    results = parallel_map(partial(_chaos_task, config), range(p.paths),
                           config.workers)
    rows = []
    for chunk in results:
        for stream, idx, r, log_abs, bound, slack in chunk:
            rows.append(("point", stream, " ".join(map(str, idx)), r,
                         log_abs, bound, slack))
    # per-index slope fit of log|term| against log|u| (first path stream)
    if len(p.u_norms) >= 3:
        first = results[0]
        for idx in p.multi_index:
            pts = [(math.log(r), log_abs) for (_, i2, r, log_abs, _, _) in first
                   if i2 == idx and math.isfinite(log_abs)]
            if len(pts) < 3:
                continue
            slope = float(np.polyfit(*zip(*pts), 1)[0])
            threshold = -(sum(idx) + p.dim - 2) - 0.1
            rows.append(("slope", 0, " ".join(map(str, idx)), 0.0, slope,
                         threshold, slope - threshold))
    return write_csv(config, "chaos.csv",
                     ["row_type", "path_stream", "multi_index", "u_norm",
                      "log_abs_term", "bound", "slack"], rows)


def _dynkin_task(config: RunConfig, stream: int) -> list:
    p = config.values
    rules = (_shared_rule(SimplexQuadrature.gauss_legendre, p.quad_order),)
    if p.k == 3:
        rules += (_shared_rule(simplex3_gauss_legendre, p.quad3_order),)
    path = sample_path(p.grid_m, 2, config.seed, stream=stream)
    one = (lambda *ts: np.ones_like(ts[0], dtype=float))
    scales = np.array(p.eps_ladder)
    t_vals = dynkin_T(path, scales, one, rules[-1])
    renorm = dynkin_renormalized_sum(path, scales, one, rules, t_top=t_vals)
    return [(stream, eps, t_val, value) for eps, t_val, value
            in zip(p.eps_ladder, t_vals.tolist(), renorm.tolist())]


def cmd_dynkin(config: RunConfig) -> str:
    eps_ladder = config.values.eps_ladder
    results = parallel_map(partial(_dynkin_task, config),
                           range(config.values.replicas), config.workers)
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
    p = config.values
    d, n, count = p.dim, p.n, p.count
    _check_dim("u_dir", d, p.u_dir)
    quad = _shared_rule(SimplexQuadrature.geometric_diagonal, p.quad_levels)
    grid = TimeGrid.make_uniform(n)
    rows = []
    for stream, r in enumerate(p.u_norms):
        u = r * p.u_dir
        points = sample_mu_n(n, d, config.seed, count, stream=stream)
        q = marginal_density_q_batch(u, grid, points, quad)
        if not q.any():  # no spread, no weights: z and ESS are undefined
            raise ValueError(f"q underflows to 0 at every sample at |u|={r}")
        m_exact = simplex_moment_integral(0.0, d, float(np.linalg.norm(u)))
        mc = float(np.mean(q))
        se = float(np.std(q, ddof=1) / math.sqrt(count))
        w = q / q.sum()
        ess = float(1.0 / np.sum(w * w))
        rows.append((d, n, r, count, mc, se, m_exact, (mc - m_exact) / se, ess))
    return write_csv(config, "marginal.csv",
                     ["d", "n", "u_norm", "count", "mc_mean", "mc_se",
                      "m_exact", "z", "ess"], rows)


def cmd_transport(config: RunConfig) -> str:
    p = config.values
    d, n = p.dim, p.n
    _check_dim("u_dir", d, p.u_dir)
    if d * n > 16:
        raise UsageError(f"flattened dimension d*n capped at 16, got {d * n}")
    quad = _shared_rule(SimplexQuadrature.geometric_diagonal, p.quad_levels)
    plan = TransportPlanSpec(regularization=p.reg, max_iterations=p.max_iter,
                             tolerance=p.tol)
    rows = []
    for r in p.u_norms:
        u = r * p.u_dir
        m_exact = simplex_moment_integral(0.0, d, float(np.linalg.norm(u)))
        bound = talagrand_bound(u, d, n)
        points = weighted_theta_samples(u, d, n, config.seed, p.count, quad)
        entropy = theta_relative_entropy(u, points, quad)
        w2 = empirical_w2(points, config.seed, plan,
                          partial(parallel_map, workers=config.workers))
        rows.append((d, n, r, m_exact, bound.kappa_n, bound.entropy, bound.value,
                     entropy.value, entropy.stderr, w2.value, w2.stderr,
                     int(bound.vacuous)))
    return write_csv(config, "transport.csv",
                     ["d", "n", "u_norm", "m", "kappa", "entropy_bound",
                      "talagrand_bound", "H_mc", "H_se", "w2_mc", "w2_se",
                      "vacuous_flag"], rows)


def cmd_capacity(config: RunConfig) -> str:
    p = config.values
    _check_dim("u_dir", p.dim, p.u_dir)
    if not p.gamma < 0.5 * (4 - p.dim):
        raise UsageError(f"need gamma < (4-d)/2 = {0.5 * (4 - p.dim)}, "
                         f"got {p.gamma}")
    specs = [SobolevSpec(gamma=p.gamma, K=p.k_max, u=r * p.u_dir, d=p.dim,
                         tau_levels=p.tau_levels, tau_order=p.tau_order)
             for r in p.u_norms]
    rows = []
    points = []
    for r, res in zip(p.u_norms, parallel_map(capacity_lower_bound, specs,
                                              config.workers)):
        rows.append(("point", p.dim, p.gamma, r, res.K_used, res.mass,
                     res.norm_sq, res.value, res.tail_ratio))
        # the bound tends to 1 like 1 - c|u|^2, so the informative slope is
        # that of log(1/bound - 1)
        if res.value < 1.0:
            points.append((math.log(r), math.log(1.0 / res.value - 1.0)))
    if len(points) >= 3:
        slope = float(np.polyfit(*zip(*points), 1)[0])
        rows.append(("slope_fit", p.dim, p.gamma, 0.0, 0, 0.0, 0.0, slope, 0.0))
    return write_csv(config, "capacity.csv",
                     ["row_type", "d", "gamma", "u_norm", "K_used", "m",
                      "norm_sq", "capacity_lb", "tail_ratio"], rows)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# command -> (runner, {key: (converter, default string)})
COMMANDS = {
    "kernel": (cmd_kernel, {
        "alpha": (comma_list(number(float, lo=0)), "0"),
        "dim": (comma_list(_size), "4"),
        "u_norms": (parse_norm_list, "2^-1..2^-10")}),
    "hermite": (cmd_hermite, {
        "n_max": (number(int, lo=0), "30"), "x_min": (_float, "-8"),
        "x_max": (_float, "8"), "x_count": (_size, "81"),
        "alpha": (number(float, lo=0.25, hi=0.5), "0.25"),
        "c": (lambda text: None if text == "auto" else _positive(text), "auto")}),
    "silt": (cmd_silt, {
        "dim": (_size, "2"), "grid_m": (_size, "2048"),
        "replicas": (_size, "100"),
        "eps_ladder": (parse_eps_ladder, "0.2,0.1,0.05,0.025"),
        "u_norm": (lambda text: 0.0 if _float(text) == 0
                   else parse_norm_list(text)[0], "0"),  # as u_norms, or 0
        "u_dir": (parse_direction, "1,0"),
        "quad_order": (_size, "128")}),
    "chaos": (cmd_chaos, {
        "dim": (_size, "4"), "grid_m": (_size, "1024"),
        "paths": (_size, "20"),
        "multi_index": (parse_multi_indices, "0,0,0,0;1,0,0,0;1,1,0,0;2,1,0,0"),
        "u_norms": (parse_norm_list, "2^-3..2^-10"),
        "u_dir": (parse_direction, "1,1,1,1"), "quad_levels": (_levels, "36")}),
    "dynkin": (cmd_dynkin, {
        "k": (number(int, lo=2, hi=3), "3"), "grid_m": (_size, "2048"),
        "replicas": (_size, "8"), "quad_order": (_size, "64"),
        "eps_ladder": (parse_eps_ladder, "0.4,0.2,0.1"),
        "quad3_order": (number(int, lo=2), "32")}),  # n = 1 misses 1/6
    "marginal": (cmd_marginal, {  # the standard error needs two samples
        "dim": (_size, "4"), "n": (_size, "2"), "count": (number(int, lo=2), "10000"),
        "u_norms": (parse_norm_list, "0.2,0.5"),
        "u_dir": (parse_direction, "1,0,0,0"), "quad_levels": (_levels, "36")}),
    "transport": (cmd_transport, {
        "dim": (_size, "4"), "n": (_size, "2"),
        "count": (number(int, lo=2, hi=5000), "2000"),
        "u_norms": (parse_norm_list, "0.3"), "u_dir": (parse_direction, "1,0,0,0"),
        "reg": (_positive, "0.25"), "max_iter": (_size, "20000"),
        "tol": (_positive, "1e-9"), "quad_levels": (_levels, "36")}),
    "capacity": (cmd_capacity, {  # the capacity machinery needs d >= 4
        "dim": (number(int, lo=4), "4"), "gamma": (_float, "-0.5"),
        "u_norms": (parse_norm_list, "2^-2..2^-7"),
        "u_dir": (parse_direction, "1,0,0,0"),
        "k_max": (number(int, lo=0), "64"),
        "tau_levels": (number(int, lo=0), "34"), "tau_order": (_size, "6")}),
}


def build_parser(command: str = None) -> argparse.ArgumentParser:
    """The parser of every command; given ``command``, only that command's
    subparser gets its options, all that one invocation of it parses."""
    parser = argparse.ArgumentParser(
        prog="siltkit",
        description="Numerics for Brownian self-intersection local times.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, declared) in COMMANDS.items():
        p = sub.add_parser(name)
        if command is not None and name != command:
            continue
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--workers", default=None,
                       help="worker processes, at least 1 (default: "
                            "SILT_WORKERS or the usable CPUs)")
        for key in declared:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    return parser


def resolve_config(args) -> RunConfig:
    _, declared = COMMANDS[args.command]
    file_values = load_config(args.config) if args.config else {}
    unknown = set(file_values) - set(declared)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    params, values = {}, argparse.Namespace()
    for key, (convert, default) in declared.items():
        cli_value = getattr(args, key)
        params[key] = cli_value if cli_value is not None \
            else file_values.get(key, default)
        try:
            setattr(values, key, convert(params[key]))
        except ValueError as exc:
            raise UsageError(f"{key} {exc}") from exc
    key, text = ("workers", args.workers) if args.workers is not None \
        else ("SILT_WORKERS", os.environ.get("SILT_WORKERS") or None)
    try:
        workers = _usable_cpus() if text is None else _size(text)
    except UsageError as exc:
        raise UsageError(f"{key} {exc}") from exc
    return RunConfig(command=args.command, out_dir=args.out, seed=args.seed,
                     workers=workers, params=params, values=values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
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
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return NONCONVERGENCE_EXIT
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
