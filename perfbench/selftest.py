#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a siltkit checkout.  Checks that

1. the exact counts (``transport.sinkhorn_sweeps``,
   ``marginals.q_node_evals``, ``quadrature.nodes_built``, ``cli.tasks``)
   repeat exactly across two traced runs of every workload;
2. tracing wraps every binding a caller resolves and removing it restores
   every original, so untraced timings carry no wrapper;
3. an induced failure (``transport --max-iter 20``) is counted as a failed
   op and its time stays in ``wall_s``.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
from tracer import Tracer, installed_wrappers, is_wrapper, targets
from workloads import WORKLOADS

EXACT_COUNTS = ("transport.sinkhorn_sweeps", "marginals.q_node_evals",
                "quadrature.nodes_built", "cli.tasks")


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT_COUNTS}


def check_exact_counts() -> list:
    problems = []
    for workload in WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        print(f"{workload}: {first}")
        if first != second:
            problems.append(f"{workload}: counts differ: {first} vs {second}")
    return problems


def check_wrappers(modules: dict, runner: run.Runner) -> list:
    problems = []
    cli, transport = modules["cli"], modules["transport"]
    path_cls = modules["siltcore"].Path
    quad_cls = modules["quadrature"].SimplexQuadrature
    before = {(id(owner), attr): owner.__dict__[attr]
              for _, owner, attr, _, _ in targets(modules)}
    bindings = [(cli, "marginal_density_q_batch"),
                (transport, "marginal_density_q_batch"),
                (cli, "weighted_theta_samples"),
                (transport, "weighted_theta_samples"),
                (path_cls, "at"), (quad_cls, "gauss_legendre"),
                (quad_cls, "geometric_diagonal")]
    tracer = Tracer(modules)
    tracer.install()
    try:
        wrapped = installed_wrappers(modules)
        for owner, attr in bindings:
            if not is_wrapper(vars(owner)[attr]):
                problems.append(f"{owner.__name__}.{attr} not wrapped "
                                "while tracing")
        result = runner.op(0, "transport", ["--count", "60", "--reg", "0.5"],
                           0, 1, tracer)
        if result.problems:
            problems.append(f"traced op failed: {result.problems}")
        names = {span.name for span in tracer.spans}
        for name in ("marginals.marginal_density_q_batch",
                     "transport.weighted_theta_samples",
                     "transport.sinkhorn_log", "quadrature.gauss_legendre"):
            if name not in names:
                problems.append(f"no span recorded for {name}")
    finally:
        tracer.remove()
    leftover = installed_wrappers(modules)
    if leftover:
        problems.append(f"wrappers left after remove(): {leftover}")
    for _, owner, attr, _, _ in targets(modules):
        if owner.__dict__[attr] is not before[(id(owner), attr)]:
            problems.append(f"{owner.__name__}.{attr} not restored")
    for owner, attr in bindings:
        if is_wrapper(vars(owner)[attr]):
            problems.append(f"{owner.__name__}.{attr} still wrapped")
    print(f"wrappers: {len(wrapped)} bindings wrapped, "
          f"{len(leftover)} left after remove()")
    return problems


def check_induced_failure(runner: run.Runner) -> list:
    ops = [("marginal", ["--count", "200"], 0),
           ("transport", ["--count", "50", "--max-iter", "20"], 0)]
    passes, metrics, _ = run.measure(runner, ops, 0, 0.0, 0)
    failed = run.failures(passes)
    results = passes[0]
    problems = []
    if [r.index for r in failed] != [1] or results[1].exit_code != 3:
        problems.append(f"expected op 1 to fail with exit 3, got "
                        f"{[(r.index, r.exit_code) for r in results]}")
    if not results[1].seconds > 0 or \
            abs(metrics["wall_s"] - sum(r.seconds for r in results)) > 1e-12:
        problems.append(f"failed op's time not in wall_s: {metrics['wall_s']}"
                        f" vs {[r.seconds for r in results]}")
    print(f"induced failure: {len(failed)} of {len(results)} ops failed, "
          f"wall_s {metrics['wall_s']:.4f} s includes the failed op's "
          f"{results[1].seconds:.4f} s")
    return problems


def main() -> int:
    modules = run.load_siltkit()
    runner = run.Runner(modules)
    problems = check_wrappers(modules, runner) + check_induced_failure(runner)
    problems += check_exact_counts()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
