#!/usr/bin/env python3
"""Run every CLI experiment with its default configuration into out/.

Usage: python scripts/reproduce_all.py [--out DIR] [--seed N] [--fast]

--fast shrinks sample counts so the whole sweep finishes in well under a
minute; without it expect a few minutes (the transport row dominates).

Every command runs, whatever an earlier one returned; the script exits with
the first non-zero exit code, or 0.  Each command prints one stdout line with
its exit code and the SHA-256 of the CSV it wrote; the CLI's own output and
the timings go to stderr.  Two runs (say, before and after a refactor) can
then be compared with one diff of their stdout.
"""

import argparse
import contextlib
import hashlib
import os
import sys
import time

from siltkit.cli import main as cli_main

FULL = {
    "kernel": [],
    "hermite": [],
    "silt": [],
    "chaos": [],
    "dynkin": [],
    "marginal": [],
    "transport": [],
    "capacity": [],
}

FAST_OVERRIDES = {
    "silt": ["--replicas", "20", "--grid-m", "512", "--quad-order", "64"],
    "chaos": ["--paths", "6", "--grid-m", "512"],
    "dynkin": ["--replicas", "4", "--grid-m", "512", "--quad3-order", "16"],
    "marginal": ["--count", "2000"],
    "transport": ["--count", "800"],
    "capacity": ["--k-max", "32"],
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fast", action="store_true")
    args = parser.parse_args()
    first_failure = 0
    for command, extra in FULL.items():
        argv = [command, "--out", args.out, "--seed", str(args.seed)] + extra
        if args.fast:
            argv += FAST_OVERRIDES.get(command, [])
        start = time.time()
        with contextlib.redirect_stdout(sys.stderr):  # the CLI prints its path
            code = cli_main(argv)
        print(f"{command:<10} {time.time() - start:5.1f}s", file=sys.stderr)
        line = f"{command:<10} exit={code}"
        if code == 0:
            with open(os.path.join(args.out, f"{command}.csv"), "rb") as fp:
                line += f" sha256={hashlib.sha256(fp.read()).hexdigest()}"
        print(line)
        if code != 0 and first_failure == 0:
            first_failure = code
    return first_failure


if __name__ == "__main__":
    sys.exit(main())
