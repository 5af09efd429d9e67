#!/usr/bin/env python3
"""siltkit benchmark: run one workload of CLI invocations, check every CSV,
print every metric.

    python3 perfbench/run.py --workload density --seed 0 --seconds 20 --trace 0

Run from the root of a siltkit checkout; the package is imported from its
``src/``.  This one process calls ``siltkit.cli.main`` in-process, op after
op, repeating the workload's pass until ``--seconds`` have elapsed, and
reports medians over passes.  Before each op the ``functools.lru_cache``
caches of siltkit are cleared, so an op pays what one CLI invocation pays.

``--trace 0`` reports the end-to-end metrics, with no wrapper installed:

* ``setup_s``: fresh interpreter to ``import siltkit.cli`` done, median of
  several fresh interpreters started before the first op;
* ``wall_s``: the summed op times of one pass (median over passes);
* ``peak_rss_mb``: peak resident set of this process plus that of its largest
  child (setup interpreters and process-pool workers).

Per-command times, the failed share and the CSV fingerprints are printed and
written to the run record as well.

``--trace 1`` alternates untraced and traced passes, both pinned to one
worker (spans recorded inside process-pool workers would be lost), and
reports the per-layer metrics of the traced passes; ``trace.overhead_s`` is
the traced minus the untraced pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run record
(environment, every op's exit code and CSV SHA-256, every metric) goes to
``.perfbench_out/``, and with ``--trace 1`` the spans too.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_csv
from tracer import Tracer, installed_wrappers, layer_metrics, spans_to_json
from workloads import (PROBES, TIMED_COMMANDS, TRACED_WORKERS, WORKERS,
                       WORKLOADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
MODULES = ("specfun", "quadrature", "rng", "marginals", "siltcore", "sobolev",
           "transport", "cli")
SETUP_REPEATS = 5


def load_siltkit() -> dict:
    """Import siltkit from this checkout's src/ (never an installed copy)."""
    package_dir = SRC / "siltkit"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no siltkit package under {SRC}; run from "
                         "the root of a siltkit checkout")
    sys.path.insert(0, str(SRC))
    modules = {"siltkit": importlib.import_module("siltkit")}
    if Path(modules["siltkit"].__file__).resolve().parent != package_dir:
        raise SystemExit(f"error: imported siltkit from "
                         f"{modules['siltkit'].__file__}, not {package_dir}")
    for name in MODULES:
        modules[name] = importlib.import_module(f"siltkit.{name}")
    return modules


def lru_caches(modules: dict) -> list:
    return [value for module in modules.values()
            for value in vars(module).values()
            if callable(getattr(value, "cache_clear", None))]


def measure_setup(repeats: int) -> list:
    """Seconds from starting a fresh interpreter to ``import siltkit.cli``
    done, once per repeat."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]]
                         if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import siltkit.cli; print('ready', flush=True)"
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {err.strip()}")
    return times


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "siltkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int, workers: int) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
        "workers": workers,
    }


@dataclass
class OpResult:
    index: int
    argv: list
    seconds: float
    exit_code: object
    sha256: str = None
    problems: list = field(default_factory=list)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        """Reference key: the op's flags and master seed, not its worker
        count or output directory (neither changes the CSV bytes)."""
        cut = self.argv.index("--workers")
        return " ".join(self.argv[:cut])


class Runner:
    """Runs ops against one imported siltkit, clearing its caches first."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.caches = lru_caches(modules)

    def op(self, index: int, command: str, flags: list, master_seed: int,
           workers: int, tracer: Tracer = None) -> OpResult:
        out_dir = OUT / "csv" / f"op{index}"
        argv = [command, *flags, "--seed", str(master_seed),
                "--workers", str(workers), "--out", str(out_dir)]
        for cache in self.caches:
            cache.cache_clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = index
            span = tracer.open(f"cli.main.{command}")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = self.modules["cli"].main(argv)
        except SystemExit as exc:  # argparse rejected the flags
            code = f"SystemExit({exc.code})"
        except Exception:  # the op failed; record it and keep running
            code = "exception"
            stderr.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
        result = OpResult(index, argv, seconds, code)
        if code != 0:
            result.problems.append(
                f"exit {code}: {stderr.getvalue().strip()[-400:]}")
            return result
        path = stdout.getvalue().strip().splitlines()[-1]
        result.sha256, result.problems = check_csv(path, command)
        return result

    def workload_pass(self, ops: list, seed: int, workers: int,
                      tracer: Tracer = None) -> list:
        return [self.op(i, command, flags, seed + offset, workers, tracer)
                for i, (command, flags, offset) in enumerate(ops)]


def pass_wall(results: list) -> float:
    return sum(r.seconds for r in results)


def command_times(passes: list) -> dict:
    """Per-command time summed over a pass's ops, median over passes."""
    out = {}
    for command in TIMED_COMMANDS:
        sums = [sum(r.seconds for r in results if r.command == command)
                for results in passes]
        if any(sums):
            out[f"{command}_s"] = statistics.median(sums)
    return out


def mark_irreproducible(passes: list) -> None:
    """An op whose CSV bytes differ from its first pass fails."""
    first = passes[0]
    for results in passes[1:]:
        for ref, result in zip(first, results):
            if ref.sha256 and result.sha256 and ref.sha256 != result.sha256:
                result.problems.append(
                    f"CSV bytes differ between passes ({ref.sha256[:12]} vs "
                    f"{result.sha256[:12]})")


def reference_status(results: list) -> dict:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() \
        else {}
    status = {}
    for r in results:
        if r.sha256 is None:
            status[r.key] = "no CSV"
        elif r.key not in reference:
            status[r.key] = "no reference for this seed"
        else:
            status[r.key] = "matches reference" \
                if reference[r.key] == r.sha256 else \
                f"differs from reference {reference[r.key][:12]}"
    return status


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def run_probes(runner: Runner, workload: str) -> list:
    """Run the workload's known-defect probes once each, untimed."""
    out = []
    for n, (command, flags, master_seed) in enumerate(PROBES.get(workload,
                                                                 [])):
        r = runner.op(-1 - n, command, flags, master_seed, 1)
        out.append({"argv": r.key, "exit_code": r.exit_code,
                    "sha256": r.sha256, "problems": r.problems})
    return out


def failures(passes: list) -> list:
    return [r for results in passes for r in results if r.problems]


def _keep_going(started: float, durations: list, seconds: float) -> bool:
    """Start another pass only if one more (of median length) still ends
    within the run's seconds; always run at least one."""
    if not durations:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(durations) <= seconds


def measure(runner: Runner, ops: list, seed: int, seconds: float,
            trace: int) -> tuple:
    """Run passes over ``ops`` for about ``seconds``; returns (passes,
    metrics, extra record fields)."""
    started = time.perf_counter()
    durations = []
    if not trace:
        passes = []
        while _keep_going(started, durations, seconds):
            begin = time.perf_counter()
            passes.append(runner.workload_pass(ops, seed, WORKERS))
            durations.append(time.perf_counter() - begin)
        mark_irreproducible(passes)
        walls = [pass_wall(p) for p in passes]
        return passes, {"wall_s": statistics.median(walls)}, {
            "pass_walls_s": walls, "command_s": command_times(passes)}
    untraced, traced, per_pass, spans = [], [], [], []
    while _keep_going(started, durations, seconds):
        begin = time.perf_counter()
        leftover = installed_wrappers(runner.modules)
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        untraced.append(runner.workload_pass(ops, seed, TRACED_WORKERS))
        tracer = Tracer(runner.modules)
        tracer.install()
        try:
            traced.append(runner.workload_pass(ops, seed, TRACED_WORKERS,
                                               tracer))
        finally:
            tracer.remove()
        per_pass.append(layer_metrics(tracer.spans))
        spans.append(spans_to_json(tracer.spans))
        durations.append(time.perf_counter() - begin)
    leftover = installed_wrappers(runner.modules)
    if leftover:
        raise RuntimeError(f"wrappers left installed: {leftover}")
    passes = untraced + traced
    mark_irreproducible(passes)
    metrics = {key: statistics.median(p[key] for p in per_pass)
               for key in per_pass[0]}
    untraced_walls = [pass_wall(p) for p in untraced]
    traced_walls = [pass_wall(p) for p in traced]
    metrics["trace.overhead_s"] = statistics.median(traced_walls) \
        - statistics.median(untraced_walls)
    return passes, metrics, {
        "untraced_walls_s": untraced_walls, "traced_walls_s": traced_walls,
        "per_pass_layer_metrics": per_pass, "spans": spans}


def load_spec() -> tuple:
    """(unit of every metric, why of every workload, metric names per
    --trace value) from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for key in ("end_to_end", "per_layer") for m in spec[key]}
    declared = {trace: [m["name"] for m in spec[key]]
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    return units, {w["name"]: w["why"] for w in spec["workloads"]}, declared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units, whys, declared = load_spec()
    modules = load_siltkit()
    runner = Runner(modules)
    workers = TRACED_WORKERS if args.trace else WORKERS
    env = environment(args.seed, workers)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} workers={workers}"
          + (" (traced passes and their untraced reference passes pin "
             "--workers 1: spans in pool workers are lost)"
             if args.trace else ""))
    print("env: " + json.dumps(env, sort_keys=True))

    metrics = {}
    if not args.trace:
        setup = measure_setup(SETUP_REPEATS)
        metrics["setup_s"] = statistics.median(setup)
    passes, measured, extra = measure(runner, WORKLOADS[args.workload]["ops"],
                                      args.seed, args.seconds, args.trace)
    metrics.update(measured)
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
        extra["setup_runs_s"] = setup
    if sorted(metrics) != sorted(declared[args.trace]):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from "
                           f"those BENCHMARK.json declares")
    probes = run_probes(runner, args.workload)

    results = [r for p in passes for r in p]
    failed = failures(passes)
    references = reference_status(passes[0])
    for r in passes[0]:
        print(f"op {r.index}: {r.key}: exit {r.exit_code}, "
              f"sha256 {str(r.sha256)[:16]}, {references[r.key]}")
    for r in failed:
        print(f"FAILED op {r.index} ({r.key}): {'; '.join(r.problems)}")
    print(f"passes: {len(passes)}, ops attempted: {len(results)}, "
          f"failed: {len(failed)}, failed_share: "
          f"{len(failed) / len(results):.4g}")
    for name, value in extra.get("command_s", {}).items():
        print(f"command {name} = {value:.6g} s (median over passes)")
    for probe in probes:
        found = probe["problems"]
        print(f"known-defect probe (not a workload op): {probe['argv']}: "
              f"exit {probe['exit_code']}, "
              + (f"{len(found)} problem(s), first: {found[0]}" if found
                 else "passes every check"))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units.get(name, '')}")

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "why": whys[args.workload],
        "moves": WORKLOADS[args.workload]["moves"],
        "ops": [{"pass": n, "index": r.index, "argv": r.key,
                 "seconds": r.seconds, "exit_code": r.exit_code,
                 "sha256": r.sha256, "problems": r.problems}
                for n, p in enumerate(passes) for r in p],
        "reference": references, "known_defect_probes": probes,
        "metrics": metrics, **extra,
    }
    spans = record.pop("spans", None)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans))

    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
