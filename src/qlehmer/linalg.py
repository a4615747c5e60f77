"""Generic exact linear algebra used as independent oracles.

Nothing in here knows the closed forms: `lu_generic` runs Doolittle
elimination over the fraction field and must rediscover the guessed factors,
and `product_check` multiplies L by U entry-by-entry (off-band zeros
included).  `det_cofactor` runs the continuant recurrence, on M(n) that of
`lambda_rec`, so it is not independent of the closed form.  `qlehmer verify`
runs all three.  The band-blind determinant oracle, integer Bareiss on a grid
of integer points (u, v) that proves det M(n) = lam(n), is in the tests
(`tests/test_linalg.py`).
"""

from __future__ import annotations

from .lehmer import BandedFactors, TriMatrix
from .poly import ONE, RAT_ONE, RAT_ZERO, Poly2, RatFunc, ratfunc_eq


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
