"""Generic exact linear algebra used as independent oracles.

Nothing in here knows the closed forms: `lu_generic` runs Doolittle
elimination over the fraction field and must rediscover the guessed factors,
`product_check` multiplies L by U entry-by-entry (off-band zeros included),
and two determinant routes must agree with the closed form.  `det_cofactor`
exploits the band structure: on M(n) the product sub * super is z q^(j-1), so
it runs the same three-term recurrence as `lambda_rec` and is not independent
of the closed form.  `det_bareiss`, fraction-free dense elimination blind to
the bands, is the independent determinant oracle.

`qlehmer verify` runs `lu_generic`, `product_check` and `det_cofactor`, plus
the closed sum `lambda_sum` against the recursion; its only polynomial
divisions are `lambda_sum`'s exact ones by 1 - q^j.  It skips `det_bareiss`,
whose n^3/3 calls of `exact_div` (3311 at n = 22, most of them on a zero
entry) and the products feeding them take about 0.4 to 0.6 s at n = 22 on a
shared 2-core host, against about 0.035 s for all four checks of `verify 22`
in the same process, so adding it would make `verify` over ten times slower.  The
tests run it up to n = 16.
"""

from __future__ import annotations

from collections.abc import Sequence

from .lehmer import BandedFactors, TriMatrix
from .poly import ONE, RAT_ONE, RAT_ZERO, ZERO, Poly2, RatFunc, exact_div, ratfunc_eq


class ZeroPivotError(ArithmeticError):
    """A pivot vanished where the elimination cannot continue."""


def lu_generic(m: TriMatrix) -> BandedFactors:
    """Doolittle elimination over the fraction field, band-aware.

    For tridiagonal input L gets a single subdiagonal and U keeps the input's
    superdiagonal, so one division and one update per row suffice.  Requires
    every pivot (each leading principal minor ratio) to be nonzero.
    """
    n = m.n
    u_diag: list[RatFunc] = [RatFunc(m.diag[0])]
    l_sub: list[RatFunc] = []
    for j in range(1, n):
        pivot = u_diag[j - 1]
        if pivot.is_zero:
            raise ZeroPivotError(f"zero pivot at elimination step {j}")
        mult = RatFunc(m.subdiag[j - 1]) / pivot
        l_sub.append(mult)
        u_diag.append(RatFunc(m.diag[j]) - mult * m.superdiag[j - 1])
    return BandedFactors(n=n, u_diag=tuple(u_diag),
                         u_super=tuple(m.superdiag), l_sub=tuple(l_sub))


class ProductCheckResult:
    """Outcome of an exact L*U == M comparison; falsy when some entry differs,
    with the first failing 0-based (i, j) attached."""

    __slots__ = ("ok", "mismatch")

    def __init__(self, ok: bool, mismatch: tuple[int, int] | None = None):
        self.ok = ok
        self.mismatch = mismatch

    def __bool__(self) -> bool:
        return self.ok


def _lu_entry(f: BandedFactors, i: int, j: int) -> RatFunc:
    """(L*U)[i][j] from the bands: only k in {i-1, i} & {j-1, j} contributes.

    Terms are summed in increasing k, the order of a row-times-column sum,
    which fixes the num/den pair each entry carries.
    """
    acc = RAT_ZERO
    for k in range(max(i - 1, j - 1, 0), min(i, j) + 1):
        lower = RAT_ONE if k == i else f.l_sub[k]
        upper = f.u_diag[j] if k == j else RatFunc(f.u_super[k])
        acc = acc + lower * upper
    return acc


def product_check(f: BandedFactors, m: TriMatrix) -> ProductCheckResult:
    """Exact entry-by-entry test that L*U equals m, off-band zeros included.

    All n^2 entries are compared in row-major order; the first one that
    differs is reported.
    """
    if f.n != m.n:
        raise ValueError("dimension mismatch")
    for i in range(m.n):
        for j in range(m.n):
            if not ratfunc_eq(_lu_entry(f, i, j), RatFunc(m.entry(i, j))):
                return ProductCheckResult(False, (i, j))
    return ProductCheckResult(True)


def det_cofactor(m: TriMatrix) -> Poly2:
    """Determinant by the continuant recurrence on leading principal minors:
    D_j = d_j D_{j-1} - sub_{j-1} super_{j-1} D_{j-2}.  No fractions arise."""
    prev2 = ONE
    prev1 = m.diag[0]
    for j in range(1, m.n):
        cur = m.diag[j] * prev1 - m.subdiag[j - 1] * m.superdiag[j - 1] * prev2
        prev2, prev1 = prev1, cur
    return prev1


def det_bareiss(rows: Sequence[Sequence[Poly2]]) -> Poly2:
    """Determinant of a square grid of polynomials by fraction-free
    elimination; every division is exact.

    A zero pivot triggers a row-swap search (sign flip); a fully zero pivot
    column means the determinant is zero.  Blind to any band structure on
    purpose.
    """
    n = len(rows)
    if n < 1 or any(len(row) != n for row in rows):
        raise ValueError("entries must form a nonempty square grid")
    a = [list(row) for row in rows]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if a[k][k].is_zero:
            for r in range(k + 1, n):
                if not a[r][k].is_zero:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = exact_div(a[k][k] * a[i][j] - a[i][k] * a[k][j], prev)
            a[i][k] = ZERO
        prev = a[k][k]
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]
