#!/usr/bin/env python3
"""Timing of the multiply kernel and of the determinant and LU routes.

Exact bivariate arithmetic suffers intermediate-expression swell, so every
size cap is set by measurement.  The CLI's caps (`VERIFY_MAX_N`,
`DET_MAX_N`, `LAMBDA_MAX_N`, `LU_MAX_N` and the series verbs' caps) are
defined in `qlehmer.cli`, each with a comment that gives its reason and its
measured worst case.  Beyond those:

* The test suite keeps smaller caps (continuant n <= 14, generic LU n <= 12,
  product check n <= 16) so that it stays fast; since large products go
  through Kronecker substitution these routes take well under a second there.
* Bareiss runs up to n = 16 in the tests (about 0.05 to 0.1 s there) and stays out
  of `verify`: at n = 22 it takes about 0.4 to 0.6 s, over ten times the four
  checks of `verify 22`.  Since `exact_div` divides packed ints, its cost sits in the
  packing and unpacking of the entries.

The recursion table times the table `tuple(lambdas(n))`, the recursion
behind `qlehmer det` (which keeps only its last two values); beside it the
closed sum `lambda_sum(n)` behind `qlehmer lambda`, whose z-rows come from
certified (1 - q^j) stride passes and which `qlehmer verify` checks against
the recursion; and the last step's two kernels: the monomial shift
z q^(n-2) * lam(n-2) and the subtraction from lam(n-1).  The kernel table
times one product lam(n-1) * lam(n) per size, and the division table one
route per row: `gauss_product` on [80 20]_q and [64 32]_q, the short
quotient behind `qlehmer qbinom` and `qlehmer stabilize`, and Bareiss on
M(16) and M(22).  Each row records the result's term count and largest
coefficient in bits, the output size that drives the cost.  Rerun this to
retune the caps on different hardware.
"""

import argparse
import time

from qlehmer.lehmer import closed_factors, lambda_rec, lambda_sum, lambdas, lehmer_matrix
from qlehmer.linalg import det_bareiss, det_cofactor, lu_generic, product_check
from qlehmer.poly import q_pow, z_pow
from qlehmer.qcomb import gauss_product

RECURSION_SIZES = (64, 96, 112, 128)
KERNEL_SIZES = (8, 16, 22, 32, 48, 64)
DIVISION_SIZES = ((80, 20), (64, 32))
BAREISS_SIZES = (16, 22)


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def coeff_bits(p) -> int:
    return max(abs(c).bit_length() for c in p.terms.values())


def recursion_table() -> None:
    """The table lam(0..n) and the closed sum lam(n), then the last step's
    shift and subtraction on the table."""
    print(f"{'n':>3} {'lambdas':>10} {'lambda_sum':>10} {'shift':>7} {'subtract':>8} "
          f"{'terms':>7} {'bits':>5}")
    for n in RECURSION_SIZES:
        start = time.perf_counter()
        lam = tuple(lambdas(n))
        t_rec = time.perf_counter() - start
        start = time.perf_counter()
        closed = lambda_sum(n)
        t_sum = time.perf_counter() - start
        step = z_pow(1) * q_pow(n - 2)
        start = time.perf_counter()
        shifted = step * lam[n - 2]
        t_shift = time.perf_counter() - start
        start = time.perf_counter()
        last = lam[n - 1] - shifted
        t_sub = time.perf_counter() - start
        assert last == lam[n] == closed
        print(f"{n:>3} {t_rec:10.3f} {t_sum:10.3f} {t_shift:7.4f} {t_sub:8.4f} "
              f"{len(last.terms):>7} {coeff_bits(last):>5}")


def kernel_table() -> None:
    lam = tuple(lambdas(max(KERNEL_SIZES)))
    print(f"{'n':>3} {'lam(n-1)*lam(n)':>16} {'terms':>7} {'bits':>5}")
    for n in KERNEL_SIZES:
        start = time.perf_counter()
        product = lam[n - 1] * lam[n]
        seconds = time.perf_counter() - start
        print(f"{n:>3} {seconds:16.4f} {len(product.terms):>7} {coeff_bits(product):>5}")


def division_table() -> None:
    """One division route per row: Gaussian binomials, then Bareiss."""
    rows = []
    for n, k in DIVISION_SIZES:
        start = time.perf_counter()
        quotient = gauss_product(n, k)
        rows.append((f"gauss_product [{n} {k}]_q", time.perf_counter() - start, quotient))
    for n in BAREISS_SIZES:
        m = lehmer_matrix(n)
        grid = [[m.entry(i, j) for j in range(n)] for i in range(n)]
        start = time.perf_counter()
        det = det_bareiss(grid)
        rows.append((f"det_bareiss n={n}", time.perf_counter() - start, det))
    print(f"{'division':<24} {'seconds':>8} {'terms':>7} {'bits':>5}")
    for name, seconds, result in rows:
        print(f"{name:<24} {seconds:8.4f} {len(result.terms):>7} {coeff_bits(result):>5}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-n", type=int, default=16)
    parser.add_argument("--max-bareiss", type=int, default=10,
                        help="separate cap for the dense fraction-free route")
    args = parser.parse_args()

    recursion_table()
    print()
    kernel_table()
    print()
    division_table()
    print()
    print(f"{'n':>3} {'closed':>9} {'continuant':>11} {'bareiss':>9} "
          f"{'lu_generic':>11} {'product':>9}")
    for n in range(1, args.max_n + 1):
        m = lehmer_matrix(n)
        t_closed = timed(lambda: lambda_rec(n))
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
