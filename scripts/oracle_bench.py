#!/usr/bin/env python3
"""Timing of the multiply kernel and of the determinant and LU routes.

Exact bivariate arithmetic suffers intermediate-expression swell, so every
size cap is set by measurement:

* `qlehmer verify` refuses n > 48 (`cli.VERIFY_MAX_N`).  Its cost grows
  about as n^6; on a shared 2-core host `verify 40` took 7 s and `verify 48`
  22 s.
* The test suite keeps smaller caps (continuant n <= 14, generic LU n <= 12,
  product check n <= 16) so that it stays fast; since large products go
  through Kronecker substitution these routes take well under a second there.
* Bareiss stays at n <= 8 in the tests: its cost is the leading-term scan in
  `exact_div`, not the multiply (4.3 s at n = 22).

The kernel table times one product lam(n-1) * lam(n) per size and records
its term count and largest coefficient in bits, the output size that drives
the cost.  Rerun this to retune the caps on different hardware.
"""

import argparse
import time

from qlehmer.lehmer import closed_factors, det_closed, lambda_rec, lehmer_matrix
from qlehmer.linalg import det_bareiss, det_cofactor, lu_generic, product_check

KERNEL_SIZES = (8, 16, 22, 32, 48, 64)


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def kernel_table() -> None:
    lam = lambda_rec(max(KERNEL_SIZES))
    print(f"{'n':>3} {'lam(n-1)*lam(n)':>16} {'terms':>7} {'bits':>5}")
    for n in KERNEL_SIZES:
        start = time.perf_counter()
        product = lam[n - 1] * lam[n]
        seconds = time.perf_counter() - start
        bits = max(abs(c).bit_length() for c in product.terms.values())
        print(f"{n:>3} {seconds:16.4f} {len(product.terms):>7} {bits:>5}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-n", type=int, default=16)
    parser.add_argument("--max-bareiss", type=int, default=10,
                        help="separate cap for the dense fraction-free route")
    args = parser.parse_args()

    kernel_table()
    print()
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
