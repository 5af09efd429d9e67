"""Span tracing of siltkit's public functions, installed from outside.

A ``Tracer`` replaces each traced function on every binding a caller can
resolve: module attributes in every siltkit module that hold the same
function object (``from .x import f`` makes a separate binding), class
attributes (``Path.at``) and classmethods (the quadrature rule
constructors).  Each call records a span: name, start, end, parent span, op
id, and a few counts taken from its arguments or result.  Spans stay in
memory; ``remove()`` puts every original binding back.

Tracing is single-process: spans recorded in process-pool workers are lost,
so traced passes pin ``--workers 1``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import time
from dataclasses import dataclass, field

import numpy as np

from workloads import TIMED_COMMANDS

_MARK = "__perfbench_wrapper__"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bound(fn, args, kwargs) -> dict:
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# --- per-function count extractors: (fn, args, kwargs, result, exc) -> dict

def _q_info(fn, args, kwargs, result, exc):
    a = _bound(fn, args, kwargs)
    points = np.asarray(a["points"])
    quad = a["quad"]
    return {"points": len(points),
            "node_evals": len(quad.weights) * len(points),
            "key": _digest(a["u"], a["grid"].t, points, quad.nodes,
                           quad.weights)}


def _sinkhorn_info(fn, args, kwargs, result, exc):
    if exc is None:
        return {"sweeps": int(result[2]), "failed": 0}
    a = _bound(fn, args, kwargs)
    return {"sweeps": int(a["max_iterations"]),
            "failed": int(type(exc).__name__ == "ConvergenceError")}


def _rule_info(fn, args, kwargs, result, exc):
    if exc is not None:
        return {}
    weights = result[1] if isinstance(result, tuple) else result.weights
    return {"nodes": len(weights)}


def _parallel_map_info(fn, args, kwargs, result, exc):
    return {"tasks": len(result) if exc is None else 0}


def _write_csv_info(fn, args, kwargs, result, exc):
    return {"bytes": os.path.getsize(result) if exc is None else 0}


def targets(modules: dict) -> list:
    """(span name, owner, attribute, kind, info extractor) for every traced
    public function; kind is 'function', 'method' or 'classmethod'."""
    m = modules
    quad_cls = m["quadrature"].SimplexQuadrature
    return [
        ("marginals.marginal_density_q_batch", m["marginals"],
         "marginal_density_q_batch", "function", _q_info),
        ("marginals.sample_mu_n", m["marginals"], "sample_mu_n", "function",
         None),
        ("transport.sinkhorn_log", m["transport"], "sinkhorn_log", "function",
         _sinkhorn_info),
        ("transport.weighted_theta_samples", m["transport"],
         "weighted_theta_samples", "function", None),
        ("transport.talagrand_bound", m["transport"], "talagrand_bound",
         "function", None),
        ("quadrature.adaptive_partition_integral", m["quadrature"],
         "adaptive_partition_integral", "function", None),
        ("quadrature.gauss_legendre", quad_cls, "gauss_legendre",
         "classmethod", _rule_info),
        ("quadrature.geometric_diagonal", quad_cls, "geometric_diagonal",
         "classmethod", _rule_info),
        ("quadrature.simplex3_gauss_legendre", m["quadrature"],
         "simplex3_gauss_legendre", "function", _rule_info),
        ("siltcore.Path.at", m["siltcore"].Path, "at", "method", None),
        ("siltcore.silt_epsilon", m["siltcore"], "silt_epsilon", "function",
         None),
        ("siltcore.chaos_term", m["siltcore"], "chaos_term", "function",
         None),
        ("siltcore.chaos_term_bound", m["siltcore"], "chaos_term_bound",
         "function", None),
        ("siltcore.dynkin_T", m["siltcore"], "dynkin_T", "function", None),
        ("siltcore.dynkin_renormalized_sum", m["siltcore"],
         "dynkin_renormalized_sum", "function", None),
        ("siltcore.sample_path", m["siltcore"], "sample_path", "function",
         None),
        ("specfun.hermite_eval", m["specfun"], "hermite_eval", "function",
         None),
        ("specfun.normalized_hermite_all", m["specfun"],
         "normalized_hermite_all", "function", None),
        ("specfun.normalized_hermite_log_sign", m["specfun"],
         "normalized_hermite_log_sign", "function", None),
        ("specfun.simplex_moment_integral", m["specfun"],
         "simplex_moment_integral", "function", None),
        ("specfun.calibrate_szego_constant", m["specfun"],
         "calibrate_szego_constant", "function", None),
        ("specfun.calibrate_log_branch_constant", m["specfun"],
         "calibrate_log_branch_constant", "function", None),
        ("sobolev.sobolev_norm_sq_truncated", m["sobolev"],
         "sobolev_norm_sq_truncated", "function", None),
        ("cli.parallel_map", m["cli"], "parallel_map", "function",
         _parallel_map_info),
        ("cli.write_csv", m["cli"], "write_csv", "function", _write_csv_info),
    ]


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._saved: list = []  # (owner, attribute, original value)

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str, **info) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               op=self.op, info=info))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, info_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(index)
                if info_fn is not None:
                    tracer.spans[index].info.update(
                        info_fn(fn, args, kwargs, None, exc))
                tracer.spans[index].info["error"] = type(exc).__name__
                raise
            tracer.close(index)
            if info_fn is not None:
                tracer.spans[index].info.update(
                    info_fn(fn, args, kwargs, result, None))
            return result

        setattr(traced, _MARK, True)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, kind, info_fn in targets(self.modules):
            original = owner.__dict__[attr]
            if kind == "classmethod":
                wrapped = classmethod(self._wrap(name, original.__func__,
                                                 info_fn))
            else:
                wrapped = self._wrap(name, original, info_fn)
            if kind == "function":  # every module binding of the object
                bindings = [(module, key) for module in self.modules.values()
                            for key, value in vars(module).items()
                            if value is original]
            else:
                bindings = [(owner, attr)]
            for where, key in bindings:
                self._saved.append((where, key, original))
                setattr(where, key, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def is_wrapper(value) -> bool:
    """True for a tracing wrapper, bare or inside a classmethod."""
    return getattr(getattr(value, "__func__", value), _MARK, False)


def installed_wrappers(modules: dict) -> list:
    """Names of every wrapper still bound in the siltkit modules or in the
    classes they define; empty when no tracing is installed."""
    found = []
    owners = list(modules.values()) + [
        value for module in modules.values() for value in vars(module).values()
        if isinstance(value, type)
        and getattr(value, "__module__", "").startswith("siltkit")]
    for owner in owners:
        for key, value in list(vars(owner).items()):
            if is_wrapper(value):
                found.append(f"{getattr(owner, '__name__', owner)}.{key}")
    return sorted(set(found))


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

def _self_times(spans: list) -> list:
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def layer_metrics(spans: list) -> dict:
    """Per-layer numbers of one traced pass.  Times are seconds; a ``_s``
    name is inclusive time unless the list below says self time."""
    selft = _self_times(spans)
    total = {}
    self_total = {}
    calls = {}
    info = {}
    for span, st in zip(spans, selft):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_total[span.name] = self_total.get(span.name, 0.0) + st
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.info.items():
            if isinstance(value, (int, float)):
                slot = (span.name, key)
                info[slot] = info.get(slot, 0) + value

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def s(*names):
        return sum(self_total.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def i(key, *names):
        return sum(info.get((n, key), 0) for n in names)

    q = "marginals.marginal_density_q_batch"
    q_points = i("points", q)
    repeat_points = 0  # points of q calls repeating an earlier call's inputs
    seen = set()  # within one op
    for span in spans:
        if span.name == q:
            key = (span.op, span.info["key"])
            if key in seen:
                repeat_points += span.info["points"]
            seen.add(key)

    sk = "transport.sinkhorn_log"
    rules = ("quadrature.gauss_legendre", "quadrature.geometric_diagonal",
             "quadrature.simplex3_gauss_legendre")
    hermite = ("specfun.hermite_eval", "specfun.normalized_hermite_all",
               "specfun.normalized_hermite_log_sign")
    sweeps = i("sweeps", sk)
    out = {
        "marginals.q_s": t(q),
        "marginals.q_calls": c(q),
        "marginals.q_points": q_points,
        "marginals.q_node_evals": i("node_evals", q),
        "marginals.q_repeat_share": repeat_points / q_points if q_points
        else 0.0,
        "marginals.sample_s": t("marginals.sample_mu_n"),
        "transport.sinkhorn_s": t(sk),
        "transport.sinkhorn_solves": c(sk),
        "transport.sinkhorn_failed": i("failed", sk),
        "transport.sinkhorn_sweeps": sweeps,
        "transport.sweep_us": 1e6 * t(sk) / sweeps if sweeps else 0.0,
        "transport.importance_s": s("transport.weighted_theta_samples"),
        "transport.bound_s": t("transport.talagrand_bound"),
        "quadrature.adaptive_s": t("quadrature.adaptive_partition_integral"),
        "quadrature.build_calls": c(*rules),
        "quadrature.build_s": t(*rules),
        "quadrature.nodes_built": i("nodes", *rules),
        "siltcore.path_at_calls": c("siltcore.Path.at"),
        "siltcore.path_at_s": t("siltcore.Path.at"),
        "siltcore.silt_epsilon_s": s("siltcore.silt_epsilon"),
        "siltcore.chaos_term_s": s("siltcore.chaos_term"),
        "siltcore.chaos_bound_s": s("siltcore.chaos_term_bound"),
        "siltcore.dynkin_s": s("siltcore.dynkin_T",
                               "siltcore.dynkin_renormalized_sum"),
        "siltcore.sample_path_s": s("siltcore.sample_path"),
        "specfun.hermite_calls": c(*hermite),
        "specfun.hermite_s": t(*hermite),
        "specfun.moment_s": t("specfun.simplex_moment_integral"),
        "specfun.calibrate_s": t("specfun.calibrate_szego_constant",
                                 "specfun.calibrate_log_branch_constant"),
        "sobolev.norm_calls": c("sobolev.sobolev_norm_sq_truncated"),
        "sobolev.norm_s": t("sobolev.sobolev_norm_sq_truncated"),
        "cli.parallel_map_s": t("cli.parallel_map"),
        "cli.tasks": i("tasks", "cli.parallel_map"),
        "cli.write_csv_s": t("cli.write_csv"),
        "cli.csv_bytes": i("bytes", "cli.write_csv"),
    }
    for command in TIMED_COMMANDS:
        out[f"cli.{command}_s"] = t(f"cli.main.{command}")
    return out


def spans_to_json(spans: list) -> list:
    return [{"name": sp.name, "start": sp.start, "end": sp.end,
             "parent": sp.parent, "op": sp.op,
             "info": {k: v for k, v in sp.info.items() if k != "key"}}
            for sp in spans]
