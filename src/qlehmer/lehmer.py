"""The Lehmer tridiagonal matrix family and its closed-form LU data.

M(n) has unit diagonal and the half-power monomial v * u**(i-1) (that is,
z**(1/2) * q**((i-1)/2)) in position (i, i+1) and (i+1, i), 1-based i.  The
whole story is carried by the lambda polynomials

    lam(j) = sum over 0 <= k <= j/2 of  [j-k k]_q * (-1)^k * q^(k(k-1)) * z^k,

which satisfy lam(j) = lam(j-1) - z q^(j-2) lam(j-2) with lam(0) = lam(1) = 1.
The U pivots are the ratios lam(j)/lam(j-1), the determinant telescopes to
lam(n), and at q = 1, z = -1 the family collapses to Fibonacci numbers.

`lambda_sum` (closed sum, each binomial row from the one before by the
certified (1 - q^j) stride kernel of `poly`) and `lambda_rec` (three-term
recursion) share no code; tests require them to agree term for term.  The
`lambda` verb prints `lambda_sum`, in O(j^3) passes, and `det` prints
`lambda_rec`, in O(n^4), so the two verbs print the same bytes by the two
routes, and `verify` checks one against the other.  The recursion is
written once, in the generator `lambdas`, which keeps only the last two
values: `lambda_rec(n)`, which is also det M(n), holds about three lam's at
a time, so its memory grows as the size of lam(n) (about n^3/24 terms), not
as the whole table (about n^4).
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import neg

from .poly import ONE, ZERO, Poly2, RatFunc, _certified_step, q_dense, q_pow, times_one_minus, z_pow


class TriMatrix:
    """Tridiagonal matrix stored as bands of polynomials.

    `superdiag[i]` is the (i+1, i+2) entry and `subdiag[i]` the (i+2, i+1)
    entry, 0-based lists for 1-based matrix positions.
    """

    __slots__ = ("n", "diag", "superdiag", "subdiag")

    def __init__(self, n: int, diag: tuple[Poly2, ...], superdiag: tuple[Poly2, ...],
                 subdiag: tuple[Poly2, ...]):
        if n < 1:
            raise ValueError("matrix dimension must be positive")
        if len(diag) != n:
            raise ValueError("diagonal band must have n entries")
        if len(superdiag) != n - 1 or len(subdiag) != n - 1:
            raise ValueError("off-diagonal bands must have n-1 entries")
        self.n = n
        self.diag = diag
        self.superdiag = superdiag
        self.subdiag = subdiag

    def entry(self, i: int, j: int) -> Poly2:
        """Entry at 0-based (i, j), zero off the three bands."""
        if i == j:
            return self.diag[i]
        if j == i + 1:
            return self.superdiag[i]
        if i == j + 1:
            return self.subdiag[j]
        return ZERO


class BandedFactors:
    """LU factors of a tridiagonal matrix: L unit lower bidiagonal, U upper
    bidiagonal.  `u_diag[j]` is U_{j+1,j+1}, `u_super[j]` is U_{j+1,j+2},
    `l_sub[j]` is L_{j+2,j+1}; the L diagonal is implicitly all ones.
    Two factorizations are equal when every entry is equal as a value.
    """

    __slots__ = ("n", "u_diag", "u_super", "l_sub")

    def __init__(self, n: int, u_diag: tuple[RatFunc, ...], u_super: tuple[Poly2, ...],
                 l_sub: tuple[RatFunc, ...]):
        if n < 1:
            raise ValueError("factor dimension must be positive")
        if len(u_diag) != n:
            raise ValueError("U diagonal must have n entries")
        if len(u_super) != n - 1 or len(l_sub) != n - 1:
            raise ValueError("off-diagonal bands must have n-1 entries")
        self.n = n
        self.u_diag = u_diag
        self.u_super = u_super
        self.l_sub = l_sub

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BandedFactors):
            return NotImplemented
        return ((self.n, self.u_diag, self.u_super, self.l_sub)
                == (other.n, other.u_diag, other.u_super, other.l_sub))


def _exact_quotient(a: list[int], m: int) -> list[int]:
    """The dense q-list a / (1 - q^m): the certified series quotient, which
    is a polynomial if and only if its top m terms are zero (else ArithmeticError)."""
    quot, cut = _certified_step(a, m), len(a) - m
    if cut < 1 or any(quot[cut:]):
        raise ArithmeticError(f"1 - q^{m} does not divide the row")
    return quot[:cut]


def lambda_sum(j: int) -> Poly2:
    """lam(j) from the closed sum: the z^k row (-1)^k q^(k(k-1)) [j-k k]_q,
    with [j-k k] = [j-k+1 k-1] (1 - q^(j-2k+1))(1 - q^(j-2k+2)) / ((1 - q^k)(1 - q^(j-k+1)))
    by two `times_one_minus` passes and two exact divisions of a dense q-list."""
    if j < 0:
        raise ValueError("index must be nonnegative")
    rows, row = {}, [1]
    for k in range(j // 2 + 1):
        if k:
            row = times_one_minus(times_one_minus(row, j - 2 * k + 1), j - 2 * k + 2)
            row = _exact_quotient(_exact_quotient(row, k), j - k + 1)
        rows[2 * k] = q_dense(list(map(neg, row)) if k % 2 else row, k * (k - 1))._rows[0]
    return Poly2._raw(rows)


def lambdas(j_max: int) -> Iterator[Poly2]:
    """Yield lam(0), ..., lam(j_max) via lam(j) = lam(j-1) - z q^(j-2) lam(j-2).

    The recursion only applies from j = 2 on (q^(j-2) would be a negative
    power at j = 1); lam(0) = lam(1) = 1 are the base cases.  Only the last
    two values are kept; a caller that needs the table builds it with
    `tuple(lambdas(n))`.
    """
    if j_max < 0:
        raise ValueError("index must be nonnegative")
    prev2 = prev1 = ONE
    for j in range(j_max + 1):
        if j >= 2:
            prev2, prev1 = prev1, prev1 - z_pow(1) * q_pow(j - 2) * prev2
        yield prev1


def lambda_rec(j: int) -> Poly2:
    """lam(j) alone, holding two values of the recursion at a time.

    For j >= 1 this is det M(j): the U pivots lam(i)/lam(i-1) telescope to
    lam(j)/lam(0).
    """
    for lam in lambdas(j):
        pass
    return lam


def band_monomial(i: int) -> Poly2:
    """The off-diagonal entry v * u**(i-1) at 1-based band position i."""
    return Poly2.monomial(1, i - 1, 1)


def lehmer_matrix(n: int) -> TriMatrix:
    """The n x n Lehmer matrix: unit diagonal, bands v * u**(i-1)."""
    band = tuple(band_monomial(i) for i in range(1, n))
    return TriMatrix(n=n, diag=(ONE,) * n, superdiag=band, subdiag=band)


def closed_factors(n: int) -> BandedFactors:
    """The closed-form LU factors of the Lehmer matrix.

    U_{j,j} = lam(j)/lam(j-1), U_{j,j+1} = v u^(j-1),
    L_{j+1,j} = v u^(j-1) lam(j-1)/lam(j); all other off-band entries zero.
    """
    if n < 1:
        raise ValueError("factor dimension must be positive")
    lam = tuple(lambdas(n))
    u_diag = tuple(RatFunc(lam[j], lam[j - 1]) for j in range(1, n + 1))
    u_super = tuple(band_monomial(j) for j in range(1, n))
    l_sub = tuple(RatFunc(band_monomial(j) * lam[j - 1], lam[j]) for j in range(1, n))
    return BandedFactors(n=n, u_diag=u_diag, u_super=u_super, l_sub=l_sub)
