#!/usr/bin/env python3
"""Write ``perfbench/reference.json``: the SHA-256 of the CSV of every op of
every workload, and of every known-defect probe, at workload seeds 0-9.

    python3 perfbench/reference.py

Run it from the root of the checkout whose CSV bytes are the reference.  A
run of ``run.py`` compares each CSV with this file and lists a difference as
a difference, not as a failure.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import PROBES, WORKERS, WORKLOADS

SEEDS = range(10)


def main() -> int:
    runner = run.Runner(run.load_siltkit())
    reference = {}
    ops = {(command, tuple(flags), seed + offset)
           for spec in WORKLOADS.values() for seed in SEEDS
           for command, flags, offset in spec["ops"]}
    ops |= {(command, tuple(flags), seed)
            for probes in PROBES.values() for command, flags, seed in probes}
    for command, flags, seed in sorted(ops):
        result = runner.op(0, command, list(flags), seed, WORKERS)
        if result.sha256 is not None:
            reference[result.key] = result.sha256
        print(f"{result.key}: exit {result.exit_code}, {result.sha256}"
              + "".join(f"\n  {problem}" for problem in result.problems),
              flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
