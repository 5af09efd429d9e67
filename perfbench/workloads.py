"""The benchmark's workloads: which CLI invocations each one runs, and why.

An op is one ``siltkit`` CLI invocation.  Every workload is a closed loop:
the next op starts only when the previous one has returned.  Each op is
``(command, flags, seed_offset)``; its master seed is the workload seed plus
the offset, so one ``--seed`` fixes every input of the run.  Why each
workload was chosen is its ``why`` in ``BENCHMARK.json``; ``moves`` maps each
layer metric to the end-to-end metric it should move on that workload.
"""

from __future__ import annotations

# Worker count of untraced passes.  Traced passes, and the untraced passes
# they are compared with, pin one worker: spans recorded inside process-pool
# workers would be lost.
WORKERS = 2
TRACED_WORKERS = 1

# Commands whose per-command time is reported (summed over their ops).
TIMED_COMMANDS = ("marginal", "transport", "silt", "chaos", "dynkin",
                  "capacity")

WORKLOADS = {
    "density": {
        "ops": [
            ("marginal", ["--count", "1000"], 0),
            ("marginal", ["--count", "1000", "--n", "4"], 0),
        ],
        # layer metric -> the end-to-end metric it should move here
        "moves": {
            "marginals.q_s": "wall_s (cli.marginal_s)",
            "marginals.q_node_evals": "wall_s (cli.marginal_s)",
            "marginals.sample_s": "none expected",
            "specfun.moment_s": "none expected",
            "marginals.q_repeat_share": "none (0 here: no call repeats)",
        },
    },
    "transport": {
        "ops": [
            ("transport", ["--count", "1000", "--reg", "1.0"], offset)
            for offset in range(2)
        ],
        "moves": {
            "transport.sinkhorn_s": "wall_s (cli.transport_s)",
            "transport.sinkhorn_sweeps": "wall_s (cli.transport_s)",
            "transport.sweep_us": "wall_s (cli.transport_s)",
            "transport.sinkhorn_failed": "failed (result line)",
            "transport.importance_s": "wall_s (cli.transport_s)",
            "marginals.q_s": "wall_s (cli.transport_s)",
            "marginals.q_repeat_share": "wall_s (cli.transport_s)",
            "transport.bound_s": "wall_s (small; predicted flat)",
            "quadrature.adaptive_s": "wall_s (small; predicted flat)",
        },
    },
    "pathwise": {
        "ops": [
            ("silt", [], 0),
            ("chaos", [], 0),
            ("dynkin", [], 0),
            ("capacity", [], 0),
            ("kernel", [], 0),
        ],
        "moves": {
            "quadrature.build_calls": "wall_s (cli.silt_s, cli.dynkin_s, "
                                      "cli.chaos_s)",
            "quadrature.build_s": "wall_s (cli.silt_s, cli.dynkin_s, "
                                  "cli.chaos_s)",
            "quadrature.nodes_built": "wall_s (cli.silt_s, cli.dynkin_s, "
                                      "cli.chaos_s)",
            "siltcore.path_at_s": "wall_s (cli.silt_s, cli.chaos_s)",
            "siltcore.silt_epsilon_s": "wall_s (cli.silt_s)",
            "siltcore.chaos_term_s": "wall_s (cli.chaos_s)",
            "siltcore.chaos_bound_s": "wall_s (cli.chaos_s)",
            "siltcore.dynkin_s": "wall_s (cli.dynkin_s)",
            "specfun.hermite_s": "wall_s (cli.chaos_s, cli.capacity_s)",
            "sobolev.norm_s": "wall_s (cli.capacity_s)",
            "cli.parallel_map_s": "wall_s",
            "cli.write_csv_s": "wall_s",
            "specfun.calibrate_s": "none expected",
        },
    },
}

# Known defects at the commit that introduced the benchmark.  The contract a
# workload meets is that none of its ops fails, so an invocation that fails
# its checks at that commit is not a workload op: it runs once per run of the
# workload named here, untimed and outside the op counts, through the same
# checks, and the run prints and records what the checks found.  Do not
# re-seed or resize a probe to make it pass; a fix makes it pass.
PROBES = {
    # ROADMAP item 2: Sinkhorn stalls above tolerance for a seed-dependent
    # share of inputs, with a heavy tail of slow solves.  At the default
    # regularization (0.25) 5 of 12 master seeds fail at --count 300; at
    # --count 500, 4 of 24 still fail at --reg 0.35, 2 of 24 at 0.4 and 1 of
    # 60 at 0.5.  A transport op could then fail on some workload seeds, and
    # its time would swing by whole 20000-sweep solves, so the workload runs
    # at --reg 1.0, where master seeds 0-103 at --count 1000 all converge in
    # 300-520 sweeps.  This input, at the defaults, exits 3 after 20000
    # sweeps.  Its seed does not follow the workload seed.
    "transport": [("transport", ["--count", "300"], 3)],
    # ROADMAP aim 3: hermite at its defaults writes log_abs = -inf where
    # H_n(0) = 0 (odd n) and exits 0.  It takes no seed.
    "pathwise": [("hermite", [], 0)],
}
