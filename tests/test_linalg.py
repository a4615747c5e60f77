"""Generic LU, exact product verification, and the two determinant oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlehmer.lehmer import (
    BandedFactors,
    TriMatrix,
    band_monomial,
    closed_factors,
    lambda_rec,
    lambda_sum,
    lehmer_matrix,
)
from qlehmer import linalg
from qlehmer.linalg import (
    ZeroPivotError,
    det_bareiss,
    det_cofactor,
    lu_generic,
    product_check,
)
from qlehmer.poly import ONE, ZERO, Poly2, RatFunc, ratfunc_eq


def rows_of(m):
    return [[m.entry(i, j) for j in range(m.n)] for i in range(m.n)]


def tri_constant(diag, sup, sub):
    n = len(diag)
    return TriMatrix(n=n,
                     diag=tuple(Poly2.constant(d) for d in diag),
                     superdiag=tuple(Poly2.constant(s) for s in sup),
                     subdiag=tuple(Poly2.constant(s) for s in sub))


class TestLuGeneric:
    def test_lehmer_n2(self):
        f = lu_generic(lehmer_matrix(2))
        assert ratfunc_eq(f.u_diag[0], RatFunc(ONE))
        assert ratfunc_eq(f.u_diag[1], RatFunc(ONE - Poly2.monomial(1, 0, 2)))
        assert ratfunc_eq(f.l_sub[0], RatFunc(Poly2.monomial(1, 0, 1)))

    def test_identity_matrix(self):
        m = tri_constant([1, 1, 1], [0, 0], [0, 0])
        f = lu_generic(m)
        assert all(ratfunc_eq(d, RatFunc(ONE)) for d in f.u_diag)
        assert all(s.is_zero for s in f.u_super)
        assert all(l.is_zero for l in f.l_sub)

    def test_zero_pivot_reported(self):
        m = tri_constant([0, 1], [1], [1])
        with pytest.raises(ZeroPivotError):
            lu_generic(m)

    def test_rediscovers_closed_factors_up_to_10(self):
        for n in range(1, 11):
            assert lu_generic(lehmer_matrix(n)) == closed_factors(n), n


class TestProductCheck:
    def test_lehmer_up_to_10(self):
        for n in range(1, 11):
            assert bool(product_check(closed_factors(n), lehmer_matrix(n))), n

    def test_n1(self):
        assert bool(product_check(closed_factors(1), lehmer_matrix(1)))

    def test_perturbation_is_caught(self):
        f = closed_factors(4)
        bad_diag = list(f.u_diag)
        bad_diag[2] = bad_diag[2] + 1
        bad = BandedFactors(f.n, tuple(bad_diag), f.u_super, f.l_sub)
        result = product_check(bad, lehmer_matrix(4))
        assert not result
        assert result.mismatch == (2, 2)

    def test_band_perturbation_reports_its_entry(self):
        # The first row-major mismatch is where the perturbed factor entry
        # first enters L*U: (i, i) for u_diag[i], (i, i+1) for u_super[i]
        # and (i+1, i) for l_sub[i].
        n = 6
        f = closed_factors(n)
        offsets = {"u_diag": (0, 0), "u_super": (0, 1), "l_sub": (1, 0)}
        for band, (di, dj) in offsets.items():
            for i, entry in enumerate(getattr(f, band)):
                entries = list(getattr(f, band))
                entries[i] = entry + 1
                bands = {"u_diag": f.u_diag, "u_super": f.u_super, "l_sub": f.l_sub,
                         band: tuple(entries)}
                bad = BandedFactors(f.n, **bands)
                assert product_check(bad, lehmer_matrix(n)).mismatch == (i + di, i + dj), (band, i)
        # Row-major order: (0, 1) is reported before (1, 0).
        both = BandedFactors(f.n, f.u_diag, (f.u_super[0] + 1,) + f.u_super[1:],
                             (f.l_sub[0] + 1,) + f.l_sub[1:])
        assert product_check(both, lehmer_matrix(n)).mismatch == (0, 1)

    @staticmethod
    def compared_entries(monkeypatch, n):
        # product_check compares every (i, j) of L*U with the matrix, in
        # row-major order; record those (product, target) pairs.
        compared = []

        def recording_eq(a, b):
            compared.append((a, b))
            return ratfunc_eq(a, b)

        monkeypatch.setattr(linalg, "ratfunc_eq", recording_eq)
        assert product_check(closed_factors(n), lehmer_matrix(n))
        assert len(compared) == n * n
        return {divmod(index, n): pair for index, pair in enumerate(compared)}

    def test_off_band_products_are_exact_zeros(self, monkeypatch):
        n = 6
        compared = self.compared_entries(monkeypatch, n)
        for (i, j), (product, target) in compared.items():
            if abs(i - j) >= 2:
                assert product.is_zero and target.is_zero, (i, j)

    def test_three_band_cases(self, monkeypatch):
        # On-band products reproduce the matrix entries: 1 on the diagonal,
        # v*u^(j-1) above (1-based band j), v*u^(j-1) below.
        n = 8
        compared = self.compared_entries(monkeypatch, n)
        for j in range(n):
            assert ratfunc_eq(compared[j, j][0], RatFunc(ONE))
        for j in range(n - 1):
            assert ratfunc_eq(compared[j, j + 1][0], RatFunc(band_monomial(j + 1)))
            assert ratfunc_eq(compared[j + 1, j][0], RatFunc(band_monomial(j + 1)))


def test_shared_denominators_spare_the_big_products(monkeypatch):
    # Products with more than one term on each side: none in the factor
    # comparison, whose pairs share their denominators, and at most two per
    # sub-diagonal entry of L*U, l_sub[j] * u_diag[j].
    n = 16
    m, f = lehmer_matrix(n), closed_factors(n)
    big = []
    mul = Poly2.__mul__

    def counting_mul(a, b):
        if isinstance(b, Poly2) and len(a.terms) > 1 and len(b.terms) > 1:
            big.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Poly2, "__mul__", counting_mul)
    assert lu_generic(m) == f
    assert big == []
    assert product_check(f, m)
    assert len(big) <= 2 * (n - 1)


class TestDetCofactor:
    def test_lehmer_small(self):
        assert det_cofactor(lehmer_matrix(2)) == ONE - Poly2.monomial(1, 0, 2)
        assert det_cofactor(lehmer_matrix(3)) == lambda_rec(3)

    def test_matches_closed_form_up_to_14(self):
        for n in range(1, 15):
            assert det_cofactor(lehmer_matrix(n)) == lambda_rec(n), n


class TestDetBareiss:
    def test_identity(self):
        rows = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
        assert det_bareiss(rows) == ONE

    def test_equal_rows(self):
        row = [ONE, ONE + Poly2.monomial(1, 1, 0)]
        assert det_bareiss([row, row]) == ZERO

    def test_row_swap_flips_sign(self):
        assert det_bareiss([[ZERO, ONE], [ONE, ZERO]]) == Poly2.constant(-1)

    def test_lehmer_up_to_16(self):
        for n in range(1, 17):
            assert det_bareiss(rows_of(lehmer_matrix(n))) == lambda_rec(n), n

    def test_rejects_non_square_grid(self):
        for rows in ([], [[ONE, ZERO]], [[ONE, ZERO], [ONE]]):
            with pytest.raises(ValueError):
                det_bareiss(rows)


def test_det_oracles_agree_against_lambda_sum():
    for n in range(1, 11):
        assert det_cofactor(lehmer_matrix(n)) == lambda_sum(n), n


# -- oracle-vs-oracle on random tridiagonal matrices --------------------------

small_monomials = st.builds(
    Poly2.monomial,
    st.integers(-4, 4), st.integers(0, 2), st.integers(0, 2))


@st.composite
def random_tridiagonal(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    diag = tuple(draw(small_monomials) for _ in range(n))
    sup = tuple(draw(small_monomials) for _ in range(n - 1))
    sub = tuple(draw(small_monomials) for _ in range(n - 1))
    return TriMatrix(n=n, diag=diag, superdiag=sup, subdiag=sub)


@settings(deadline=None)
@given(random_tridiagonal())
def test_continuant_agrees_with_bareiss(m):
    assert det_cofactor(m) == det_bareiss(rows_of(m))


@settings(deadline=None)
@given(random_tridiagonal())
def test_lu_when_pivots_allow_reproduces_matrix(m):
    try:
        f = lu_generic(m)
    except ZeroPivotError:
        return
    assert bool(product_check(f, m))


@st.composite
def tridiagonal_with_zero_pivot(draw, max_n=6):
    """A step j and an integer tridiagonal matrix L*U whose pivots (the
    leading-minor ratios) u_1 .. u_(j-1) are nonzero and u_j is zero."""
    n = draw(st.integers(2, max_n))
    j = draw(st.integers(1, n - 1))
    ints = st.integers(-5, 5)
    pivots = ([draw(ints.filter(bool)) for _ in range(j - 1)] + [0]
              + [draw(ints) for _ in range(n - j)])
    mults = [draw(ints) for _ in range(n - 1)]
    sup = [draw(ints) for _ in range(n - 1)]
    diag = [pivots[0]] + [mults[i - 1] * sup[i - 1] + pivots[i] for i in range(1, n)]
    sub = [mults[i] * pivots[i] for i in range(n - 1)]
    return j, tri_constant(diag, sup, sub)


@settings(deadline=None)
@given(tridiagonal_with_zero_pivot())
def test_zero_pivot_reported_at_its_step(case):
    j, m = case
    with pytest.raises(ZeroPivotError, match=rf"step {j}$"):
        lu_generic(m)
