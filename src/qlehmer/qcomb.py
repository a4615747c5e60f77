"""q-Pochhammer symbols (q;q)_k and Gaussian q-binomial coefficients.

The binomial is computed by two deliberately independent routes:

* `gauss_product` divides exactly by the short quotient
  [n k] = (q^(n-k+1); q)_k / (q;q)_k, with k <= n - k by the symmetry
  [n k] = [n n-k]; this is the ground truth.  The full quotient
  (q;q)_n / ((q;q)_k (q;q)_(n-k)) is the same after cancelling (q;q)_(n-k),
  so no (q;q)_j with j > min(k, n - k) is ever built.
* `gauss_pascal` runs the q-Pascal recurrence
  [n k] = [n-1 k-1] + q^k [n-1 k] with base cases [n 0] = [n n] = 1.

The test suite pins the two against each other; a discrepancy would expose a
wrong recurrence choice immediately.  Both produce pure q-polynomials, i.e.
Poly2 values with even u-exponents and zero v-exponent.  The module keeps no
memo: every call builds only the factors it needs, each as one
`poly.times_one_minus` pass; `lehmer.lambda_sum` uses no binomial from here.
"""

from __future__ import annotations

from .poly import ONE, ZERO, Poly2, exact_div, q_dense, q_pow, times_one_minus


def _run_product(lo: int, hi: int) -> Poly2:
    """(1-q^lo)(1-q^(lo+1))...(1-q^hi), 1 when hi < lo: one dense q-list,
    one `poly.times_one_minus` pass per factor."""
    coeffs = [1]
    for j in range(lo, hi + 1):
        coeffs = times_one_minus(coeffs, j)
    return q_dense(coeffs, 0)


def poch_qq(k: int) -> Poly2:
    """(q;q)_k = (1-q)(1-q^2)...(1-q^k) as an exact polynomial; (q;q)_0 = 1."""
    if k < 0:
        raise ValueError("q-Pochhammer order must be nonnegative")
    return _run_product(1, k)


def gauss_product(n: int, k: int) -> Poly2:
    """Gaussian binomial [n k] = (1-q^(n-k+1))...(1-q^n) / (q;q)_k, divided
    exactly after k is replaced by min(k, n - k).

    Zero outside 0 <= k <= n.  Divisibility of the product is a theorem, so
    an ExactDivisionError escaping here means an internal bug.
    """
    if n < 0:
        raise ValueError("upper index must be nonnegative")
    if k < 0 or k > n:
        return ZERO
    k = min(k, n - k)
    return exact_div(_run_product(n - k + 1, n), poch_qq(k))


def gauss_pascal(n: int, k: int) -> Poly2:
    """Gaussian binomial [n k] via dynamic programming over q-Pascal."""
    if n < 0:
        raise ValueError("upper index must be nonnegative")
    if k < 0 or k > n:
        return ZERO
    # row[i] holds [m i] after step m.  With i running downward, row[i - 1]
    # still holds [m-1 i-1] when row[i] is updated, and row[m] was [m-1 m] = 0.
    row = [ONE] + [ZERO] * k
    for m in range(1, n + 1):
        for i in range(min(m, k), 0, -1):
            row[i] = row[i - 1] + q_pow(i) * row[i]
    return row[k]
