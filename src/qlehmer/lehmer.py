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
routes, and `verify` checks one against the other.

The recursion runs on half rows.  Reversing the indices of M(j) (J M(j) J,
J the reversal permutation) puts v u^(j-1-i) at band position i, which is
M(j) at (u^-1, v u^(j-2)).  A similarity keeps the determinant, so

    lam(j)(u, v) = lam(j)(u^-1, v u^(j-2)),

and comparing the v^(2k) coefficients, the z^k row of lam(j) is palindromic
about its centre u^(k(j-2)): its coefficient at u^e is its coefficient at
u^(2k(j-2) - e).  (This is the symmetry of the Gaussian polynomial
[j-k k]_q, here read off the matrix, not the closed sum.)  Write H(j) for
lam(j) with each z^k row cut after its centre.  The z^k row of lam(j) is the
z^k row of lam(j-1) minus q^(j-2) times the z^(k-1) row of lam(j-2), so

    H(j) = cut_j(grow_j(H(j-1)) - z q^(j-2) H(j-2)):

  * up to u^(k(j-2)), lam(j-1)'s z^k row, whose centre is u^(k(j-3)), is
    its half row with the next k/2 or so terms mirrored on (`grow_j`);
  * lam(j-2)'s z^(k-1) row, shifted by q^(j-2), has its centre at
    u^(k(j-2) + j - 2k), never below lam(j)'s since 2k <= j, so its half
    row holds every term needed and H(j-2) is shifted as it is;
  * `cut_j` drops what the difference holds past each centre of lam(j).

So each step is still one monomial shift and one subtraction, over about
half the terms.  `halves` yields H(0), H(1), ... keeping only the last two;
`lambda_rec` mirrors only its last value back into lam(n), so it holds about
three half lam's at a time and its memory grows as the size of lam(n)
(about n^3/24 terms), not as the whole table (about n^4).  `lambdas`
mirrors every H(j) for the callers that need each lam(j).
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


def _mirrored(h: Poly2, j: int, top: int | None) -> Poly2:
    """lam(j)'s z^k rows through u^(k(top-2)), or whole if top is None, from
    `h`, whose z^k row holds lam(j)'s either exactly through its centre
    u^(k(j-2)) or at least through u^(k(top-2)).

    A row of more than one term is dense in q (step u^2), so on a row from
    u^lo its index i past the centre holds the coefficient at index
    last - i, where last = k(j-2) - lo indexes its final term u^(2k(j-2) - lo).
    """
    rows = {}
    for ev, row in h._rows.items():
        lo, step, coeffs = row
        k = ev >> 1
        last = k * (j - 2) - lo
        keep = last + 1 if top is None else min(last, (k * (top - 2) - lo) >> 1) + 1
        have = len(coeffs)
        if keep > have:
            row = lo, 2, coeffs + coeffs[last + 1 - keep:last + 1 - have][::-1]
        elif keep < have:
            row = lo, step if keep > 1 else 1, coeffs[:keep]
        rows[ev] = row
    return Poly2._raw(rows)


def halves(j_max: int) -> Iterator[Poly2]:
    """Yield H(0), ..., H(j_max): lam(j) with each z^k row cut after its
    centre u^(k(j-2)), by H(j) = cut_j(grow_j(H(j-1)) - z q^(j-2) H(j-2))
    (see the module docstring).

    The recursion only applies from j = 2 on (q^(j-2) would be a negative
    power at j = 1); H(0) = H(1) = 1 are the base cases.  Only the last two
    values are kept.
    """
    if j_max < 0:
        raise ValueError("index must be nonnegative")
    prev2 = prev1 = ONE
    for j in range(j_max + 1):
        if j >= 2:
            grown = _mirrored(prev1, j - 1, j)
            prev2, prev1 = prev1, _mirrored(grown - z_pow(1) * q_pow(j - 2) * prev2, j, j)
        yield prev1


def lambdas(j_max: int) -> Iterator[Poly2]:
    """Yield lam(0), ..., lam(j_max), each mirrored from its half H(j); a
    caller that needs the table builds it with `tuple(lambdas(n))`."""
    for j, h in enumerate(halves(j_max)):
        yield _mirrored(h, j, None)


def lambda_rec(j: int) -> Poly2:
    """lam(j) alone, holding two half values of the recursion at a time and
    mirroring only the last.

    For j >= 1 this is det M(j): the U pivots lam(i)/lam(i-1) telescope to
    lam(j)/lam(0).
    """
    for h in halves(j):
        pass
    return _mirrored(h, j, None)


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
