"""q-Pochhammer symbols (q;q)_k and Gaussian q-binomial coefficients.

The binomial is computed by two deliberately independent routes:

* `gauss_product` divides q-Pochhammer products exactly,
  [n k] = (q;q)_n / ((q;q)_k (q;q)_{n-k}); this is the ground truth.
* `gauss_pascal` fills the q-Pascal recurrence
  [n k] = [n-1 k-1] + q^k [n-1 k] with base cases [n 0] = [n n] = 1.

The test suite pins the two against each other; a discrepancy would expose a
wrong recurrence choice immediately.  Both produce pure q-polynomials, i.e.
Poly2 values with even u-exponents and zero v-exponent.
"""

from __future__ import annotations

from .poly import ONE, ZERO, Poly2, exact_div, q_pow

# Both caches are filled idempotently (every key maps to one deterministic
# value), so concurrent readers can at worst duplicate work, never tear state.
_POCH: dict[int, Poly2] = {0: ONE}
_PASCAL: dict[tuple[int, int], Poly2] = {}


def poch_qq(k: int) -> Poly2:
    """(q;q)_k = (1-q)(1-q^2)...(1-q^k) as an exact polynomial; (q;q)_0 = 1."""
    if k < 0:
        raise ValueError("q-Pochhammer order must be nonnegative")
    cached = _POCH.get(k)
    if cached is not None:
        return cached
    i = k
    while i > 0 and i not in _POCH:
        i -= 1
    value = _POCH[i]
    for j in range(i + 1, k + 1):
        value = value * (ONE - q_pow(j))
        _POCH[j] = value
    return value


def gauss_product(n: int, k: int) -> Poly2:
    """Gaussian binomial [n k] via the exact q-Pochhammer quotient.

    Zero outside 0 <= k <= n.  Divisibility of the product is a theorem, so
    an ExactDivisionError escaping here means an internal bug.
    """
    if n < 0:
        raise ValueError("upper index must be nonnegative")
    if k < 0 or k > n:
        return ZERO
    return exact_div(poch_qq(n), poch_qq(k) * poch_qq(n - k))


def gauss_pascal(n: int, k: int) -> Poly2:
    """Gaussian binomial [n k] via dynamic programming over q-Pascal."""
    if n < 0:
        raise ValueError("upper index must be nonnegative")
    if k < 0 or k > n:
        return ZERO
    # Fill rows bottom-up; the memo table is shared and idempotent.
    for m in range(n + 1):
        for i in range(min(m, k) + 1):
            if (m, i) in _PASCAL:
                continue
            if i == 0 or i == m:
                _PASCAL[(m, i)] = ONE
            else:
                _PASCAL[(m, i)] = _PASCAL[(m - 1, i - 1)] + q_pow(i) * _PASCAL[(m - 1, i)]
    return _PASCAL[(n, k)]
