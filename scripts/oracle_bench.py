#!/usr/bin/env python3
"""Timing of the multiply kernel and of the determinant and LU routes.

Exact bivariate arithmetic suffers intermediate-expression swell, so every
size cap is set by measurement.  The CLI's caps (`VERIFY_MAX_N`,
`DET_MAX_N`, `LAMBDA_MAX_N`, `LU_MAX_N` and the series verbs' caps) are
defined in `qlehmer.cli`, each with a comment that gives its reason and its
measured worst case.  Beyond those:

* The test suite keeps smaller caps (continuant n <= 14, generic LU n <= 12,
  product check n <= 16) so that it stays fast; since a product is a
  monomial shift, or one packed kernel per product row, these routes take
  well under a second there.
* The band-blind determinant oracle, integer Bareiss on a full grid of
  integer points, lives in `tests/test_linalg.py` and runs there up to
  n = 16; no verb runs it, so it is not timed here.

The recursion table times the table `tuple(lambdas(n))` and lam(n) alone
by `lambda_rec(n)`, the route of `qlehmer det`.  Both run the recursion on
half rows: H(j) is lam(j) with each z^k row cut at its centre u^(k(j-2)),
about which the row is palindromic, and H(j) = cut_j(grow_j(H(j-1)) -
z q^(j-2) H(j-2)), where grow_j mirrors about k/2 more terms onto each row
(see `qlehmer.lehmer`).  `lambda_rec` keeps two halves and mirrors only
H(n) into lam(n); `lambdas` mirrors every H(j).  Beside them: the closed
sum `lambda_sum(n)` behind `qlehmer lambda`, whose z-rows come from
certified (1 - q^j) stride passes and which `qlehmer verify` checks against
the recursion; and the last half-row step's two kernels: the monomial shift
z q^(n-2) * H(n-2) and its subtraction from the grown H(n-1).  The kernel table
times one product lam(n-1) * lam(n) per size, and one square whose z-rows
have mixed strides, ((1 + u) + v(1 + u^100000))^2: `Poly2` multiplies
both by one packed kernel per product row, each on its own u-grid, so the
v row packs 100002 digits at step u and the v^2 row 3 at step u^100000.
The division table times `gauss_product` on [80 20]_q and [64 32]_q,
the short quotient behind `qlehmer qbinom` and `qlehmer stabilize`.  Each
row records the result's term count and largest coefficient in bits, the
output size that drives the cost.  The last table times the routes of
`qlehmer verify` for n = 1..--max-n.  Rerun this to retune the caps on
different hardware.
"""

import argparse
import time

from qlehmer.lehmer import (_mirrored, closed_factors, halves, lambda_rec, lambda_sum, lambdas,
                            lehmer_matrix)
from qlehmer.linalg import det_cofactor, lu_generic, product_check
from qlehmer.poly import ONE, Poly2, q_pow, z_pow
from qlehmer.qcomb import gauss_product

RECURSION_SIZES = (64, 96, 112, 128)
KERNEL_SIZES = (8, 16, 22, 32, 48, 64)
MIXED_SPAN = 100000
DIVISION_SIZES = ((80, 20), (64, 32))


def timed(fn):
    """fn() and the seconds it took."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def coeff_bits(p) -> int:
    return max(abs(c).bit_length() for c in p.terms.values())


def recursion_table() -> None:
    """The table lam(0..n), lam(n) alone by the recursion and by the closed
    sum, then the last half-row step's shift and subtraction."""
    print(f"{'n':>3} {'lambdas':>10} {'lambda_rec':>10} {'lambda_sum':>10} {'shift':>7} "
          f"{'subtract':>8} {'terms':>7} {'bits':>5}")
    for n in RECURSION_SIZES:
        lam, t_table = timed(lambda: tuple(lambdas(n)))
        last, t_rec = timed(lambda: lambda_rec(n))
        closed, t_sum = timed(lambda: lambda_sum(n))
        half = tuple(halves(n))
        grown, step = _mirrored(half[n - 1], n - 1, n), z_pow(1) * q_pow(n - 2)
        shifted, t_shift = timed(lambda: step * half[n - 2])
        diff, t_sub = timed(lambda: grown - shifted)
        assert _mirrored(diff, n, n) == half[n] and last == lam[n] == closed
        print(f"{n:>3} {t_table:10.3f} {t_rec:10.3f} {t_sum:10.3f} {t_shift:7.4f} {t_sub:8.4f} "
              f"{len(last.terms):>7} {coeff_bits(last):>5}")


def kernel_table() -> None:
    """lam(n-1) * lam(n) per size, then the mixed-stride square."""
    lam = tuple(lambdas(max(KERNEL_SIZES)))
    u, v = Poly2.monomial(1, 1, 0), Poly2.monomial(1, 0, 1)
    mixed = (ONE + u) + v * (ONE + Poly2.monomial(1, MIXED_SPAN, 0))
    cases = [(f"lam({n - 1})*lam({n})", lam[n - 1], lam[n]) for n in KERNEL_SIZES]
    cases.append((f"((1+u)+v(1+u^{MIXED_SPAN}))^2", mixed, mixed))
    print(f"{'product':<28} {'seconds':>8} {'terms':>7} {'bits':>5}")
    for name, a, b in cases:
        start = time.perf_counter()
        product = a * b
        seconds = time.perf_counter() - start
        print(f"{name:<28} {seconds:8.4f} {len(product.terms):>7} {coeff_bits(product):>5}")


def division_table() -> None:
    """The Gaussian binomial [n k]_q by one exact division per row."""
    print(f"{'division':<24} {'seconds':>8} {'terms':>7} {'bits':>5}")
    for n, k in DIVISION_SIZES:
        start = time.perf_counter()
        quotient = gauss_product(n, k)
        seconds = time.perf_counter() - start
        name = f"gauss_product [{n} {k}]_q"
        print(f"{name:<24} {seconds:8.4f} {len(quotient.terms):>7} {coeff_bits(quotient):>5}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-n", type=int, default=16)
    args = parser.parse_args()

    recursion_table()
    print()
    kernel_table()
    print()
    division_table()
    print()
    print(f"{'n':>3} {'closed':>9} {'continuant':>11} {'lu_generic':>11} {'product':>9}")
    for n in range(1, args.max_n + 1):
        m = lehmer_matrix(n)
        t_closed = timed(lambda: lambda_rec(n))[1]
        t_cont = timed(lambda: det_cofactor(m))[1]
        t_lu = timed(lambda: lu_generic(m))[1]
        t_prod = timed(lambda: product_check(closed_factors(n), m))[1]
        print(f"{n:>3} {t_closed:9.3f} {t_cont:11.3f} {t_lu:11.3f} {t_prod:9.3f}")


if __name__ == "__main__":
    main()
