#!/usr/bin/env python3
"""Print the grid-search Hermite-envelope constants.

The Szego-type constant, with a 1.05 margin on top, serves ``hermite --c
auto`` only.  The chaos-term envelope (``siltcore.chaos_term_bound``) rests
on Indritz's inequality and a Cauchy estimate, and uses no calibrated
constant.  The log-branch constant c0 is printed for reference: no envelope
uses it, and it stays in ``specfun`` only because perfbench's tracer binds
it.
"""

import math

from siltkit.specfun import (
    calibrate_log_branch_constant,
    calibrate_szego_constant,
)


def main():
    for alpha in (0.25, 0.5):
        c = calibrate_szego_constant(alpha, 200)
        power = (8 * alpha - 1) / 12
        print(f"szego-type constant at alpha={alpha}: c = {c:.6f}  "
              f"(|H_n(x)| e^(-{alpha} x^2) <= c sqrt(n!) (n or 1)^-{power:.4f})")
    c0 = calibrate_log_branch_constant()
    print(f"log-branch constant (unused): c0 = {c0:.6f}  "
          f"(planar order-0 mass <= c0 log(1/|u|) on |u| = 2^-1..2^-16; "
          f"1/pi = {1 / math.pi:.6f})")


if __name__ == "__main__":
    main()
