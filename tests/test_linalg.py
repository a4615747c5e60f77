"""Generic LU, exact product verification, the continuant, and the
band-blind integer determinant oracle."""

from itertools import product

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
    det_cofactor,
    lu_generic,
    product_check,
)
from qlehmer.poly import ONE, ZERO, Poly2, RatFunc, eval_qz, qz_terms, ratfunc_eq


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


# -- the band-blind determinant oracle: integer Bareiss on a full grid --------
#
# det M is a polynomial in (u, v); the term of the Leibniz expansion for a
# permutation takes one entry from each row, so its u-degree is at most the
# sum over the rows of each row's largest u-exponent, and likewise in v.  A
# polynomial of degree <= d_u in u and <= d_v in v that vanishes on a
# (d_u + 1) x (d_v + 1) grid of points is zero (Alon, Combinatorial
# Nullstellensatz, 1999, Lemma 2.1).  So a candidate within those bounds that
# agrees with det M at every grid point equals det M.  The values at the grid
# points come from fraction-free elimination on plain ints (Bareiss, Math.
# Comp. 22, 1968), which shares no arithmetic with Poly2.


def bareiss(rows):
    """Determinant of a nonempty square int matrix by fraction-free
    elimination.  Every division is exact (asserted), and a row swap flips
    the sign.  Blind to any band structure on purpose."""
    n = len(rows)
    if n < 1 or any(len(row) != n for row in rows):
        raise ValueError("entries must form a nonempty square grid")
    a = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, top = a[k][k], a[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                quot, rem = divmod(pivot * row[j] - lead * top[j], prev)
                assert rem == 0, (k, j)
                row[j] = quot
        prev = pivot
    return sign * a[n - 1][n - 1]


def eval_uv(terms, u, v):
    return sum(c * u**eu * v**ev for (eu, ev), c in terms.items())


def flipped(p, su, sv):
    """p(su * u, sv * v) for signs su, sv."""
    return Poly2({(eu, ev): c * su**eu * sv**ev for (eu, ev), c in p.terms.items()})


def assert_lehmer_signs(rows):
    """Check M(-u, v) == D M D and M(u, -v) == S M S exactly on the entries,
    where d_1 = 1, d_(i+1) = (-1)^(i-1) d_i and s_i = (-1)^i (1-based i).
    D and S are their own inverses, so det M is even in u and in v."""
    n = len(rows)
    d = [1]
    for i in range(1, n):
        d.append((-1) ** (i - 1) * d[-1])
    s = [(-1) ** i for i in range(1, n + 1)]
    for i, j in product(range(n), repeat=2):
        entry = rows[i][j]
        assert flipped(entry, -1, 1) == d[i] * d[j] * entry, ("u", i, j)
        assert flipped(entry, 1, -1) == s[i] * s[j] * entry, ("v", i, j)


def assert_det_on_grid(rows, candidate, even=False):
    """Prove det(rows) == candidate by integer Bareiss on a full grid.

    The degree bounds come from the entries.  With `even`, the entries must
    pass `assert_lehmer_signs`, det is a polynomial in (q, z) = (u^2, v^2) of
    degree <= (d_u // 2, d_v // 2), and the grid is u, v >= 0 at those
    bounds, compared with `eval_qz`.  Otherwise the grid covers (u, v) at the
    full bounds.  Returns the grid's shape.
    """
    entries = [[entry.terms for entry in row] for row in rows]
    bound_u = sum(max((eu for terms in row for eu, _ in terms), default=0) for row in entries)
    bound_v = sum(max((ev for terms in row for _, ev in terms), default=0) for row in entries)
    if even:
        assert_lehmer_signs(rows)
        bound_u, bound_v = bound_u // 2, bound_v // 2
        assert all(dq <= bound_u and dz <= bound_v for (dq, dz), _ in qz_terms(candidate))

        def expected(u, v):
            return eval_qz(candidate, u * u, v * v)
    else:
        candidate_terms = candidate.terms
        assert all(eu <= bound_u and ev <= bound_v for eu, ev in candidate_terms)

        def expected(u, v):
            return eval_uv(candidate_terms, u, v)
    for u, v in product(range(bound_u + 1), range(bound_v + 1)):
        values = [[eval_uv(terms, u, v) for terms in row] for row in entries]
        assert bareiss(values) == expected(u, v), (u, v)
    return bound_u + 1, bound_v + 1


class TestBareissOnGrid:
    def test_identity(self):
        assert bareiss([[int(i == j) for j in range(3)] for i in range(3)]) == 1

    def test_equal_rows(self):
        assert bareiss([[1, 3], [1, 3]]) == 0
        row = [ONE, ONE + Poly2.monomial(1, 1, 0)]
        assert_det_on_grid([row, row], ZERO)

    def test_row_swap_flips_sign(self):
        assert bareiss([[0, 1], [1, 0]]) == -1

    def test_lehmer_up_to_16(self):
        for n in range(1, 17):
            shape = assert_det_on_grid(rows_of(lehmer_matrix(n)), lambda_rec(n), even=True)
        assert shape == (60, 9)  # q-degree <= 59 and z-degree <= 8 at n = 16

    def test_rejects_non_square_grid(self):
        for rows in ([], [[1, 0]], [[1, 0], [1]]):
            with pytest.raises(ValueError):
                bareiss(rows)

    def test_grid_catches_one_changed_coefficient(self):
        lam = lambda_rec(8)
        (dq, dz), _ = next(qz_terms(lam))
        changed = lam + Poly2.monomial(1, 2 * dq, 2 * dz)
        with pytest.raises(AssertionError):
            assert_det_on_grid(rows_of(lehmer_matrix(8)), changed, even=True)

    def test_sign_check_catches_an_odd_entry(self):
        rows = rows_of(lehmer_matrix(4))
        rows[2][2] = ONE + Poly2.monomial(1, 1, 0)
        with pytest.raises(AssertionError, match="'u', 2, 2"):
            assert_lehmer_signs(rows)


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
    assert_det_on_grid(rows_of(m), det_cofactor(m))


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
