#!/usr/bin/env python3
"""Timing of the determinant and LU routes as the matrix grows.

Exact bivariate arithmetic suffers intermediate-expression swell, so the
test-suite size caps (continuant at n=14, Bareiss at n=8, generic LU at
n=12, product check at n=16) were chosen by measurement.  Rerun this to
retune them on different hardware.
"""

import argparse
import time

from qlehmer.lehmer import closed_factors, det_closed, lehmer_matrix
from qlehmer.linalg import det_bareiss, det_cofactor, lu_generic, product_check


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=16)
    parser.add_argument("--max-bareiss", type=int, default=10,
                        help="separate cap for the dense fraction-free route")
    args = parser.parse_args()

    print(f"{'n':>3} {'closed':>9} {'continuant':>11} {'bareiss':>9} "
          f"{'lu_generic':>11} {'product':>9}")
    for n in range(1, args.max_n + 1):
        m = lehmer_matrix(n)
        t_closed = timed(lambda: det_closed(n))
        t_cont = timed(lambda: det_cofactor(m))
        if n <= args.max_bareiss:
            rows = [[m.entry(i, j) for j in range(n)] for i in range(n)]
            t_bar = f"{timed(lambda: det_bareiss(rows)):9.3f}"
        else:
            t_bar = f"{'-':>9}"
        t_lu = timed(lambda: lu_generic(m))
        t_prod = timed(lambda: product_check(closed_factors(n), m))
        print(f"{n:>3} {t_closed:9.3f} {t_cont:11.3f} {t_bar} "
              f"{t_lu:11.3f} {t_prod:9.3f}")


if __name__ == "__main__":
    main()
