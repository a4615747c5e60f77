"""The lambda family, the matrix bands, and the closed-form factors."""

import math
import tracemalloc

import pytest

from qlehmer import lehmer, poly
from qlehmer.lehmer import (
    BandedFactors,
    TriMatrix,
    band_monomial,
    closed_factors,
    lambda_rec,
    lambda_sum,
    lambdas,
    lehmer_matrix,
)
from qlehmer.poly import (
    ONE,
    ZERO,
    Poly2,
    RatFunc,
    eval_qz,
    q_pow,
    qz_terms,
    ratfunc_eq,
    times_one_minus,
    z_pow,
)
from qlehmer.qcomb import gauss_pascal

RAT_ONE = RatFunc(ONE)


def qz_poly(termmap):
    """Polynomial from {(q_deg, z_deg): coeff}."""
    return Poly2({(2 * a, 2 * b): c for (a, b), c in termmap.items()})


class TestLambdaSum:
    def test_j0(self):
        assert lambda_sum(0) == ONE

    def test_j2(self):
        assert lambda_sum(2) == qz_poly({(0, 0): 1, (0, 1): -1})

    def test_j4(self):
        assert lambda_sum(4) == qz_poly(
            {(0, 0): 1, (0, 1): -1, (1, 1): -1, (2, 1): -1, (2, 2): 1})

    def test_rows_match_pascal_binomials_up_to_40(self):
        # The z^k row is (-1)^k q^(k(k-1)) [j-k k]_q, with the binomial from
        # the q-Pascal recurrence, which divides nothing; no other row exists.
        for j in range(41):
            rows = {}
            for (dq, dz), c in qz_terms(lambda_sum(j)):
                rows.setdefault(dz, {})[dq] = c
            assert set(rows) == set(range(j // 2 + 1)), j
            for k, row in rows.items():
                expected = {dq + k * (k - 1): (-1) ** k * c
                            for (dq, _), c in qz_terms(gauss_pascal(j - k, k))}
                assert row == expected, (j, k)

    def test_exact_quotient_divides_out_a_factor(self):
        row = [1, 1, 2, 1, 1]  # [4 2]_q
        for m in range(1, 8):
            assert lehmer._exact_quotient(times_one_minus(row, m), m) == row, m

    def test_exact_quotient_rejects_a_row_it_does_not_divide(self):
        # [4 2]_q is 6 at q = 1, where every 1 - q^m vanishes; its series
        # quotient passes the certificate but has a nonzero top, or (m >= 5)
        # the row is shorter than m.
        for m in range(1, 8):
            with pytest.raises(ArithmeticError):
                lehmer._exact_quotient([1, 1, 2, 1, 1], m)

    @pytest.mark.parametrize("part, d", [(1, 0), (1, 9), (2, 1), (3, 20), (7, 6), (12, 20)])
    def test_a_wrong_stride_pass_fails_its_certificate(self, monkeypatch, part, d):
        # One coefficient of the first stride pass by 1 - q^part off by one;
        # lam(24) divides by 1 - q^k and 1 - q^(25-k) for k = 1..12.
        real = poly._divide_by_one_minus
        hits = []

        def off_by_one(a, m):
            real(a, m)
            if m == part and not hits:
                hits.append(m)
                a[d] += 1

        monkeypatch.setattr(poly, "_divide_by_one_minus", off_by_one)
        with pytest.raises(ArithmeticError):
            lambda_sum(24)
        assert hits

    def test_negative_index_is_rejected(self):
        with pytest.raises(ValueError):
            lambda_sum(-1)


class TestLambdaRec:
    def test_base_cases(self):
        assert tuple(lambdas(0)) == (ONE,)
        assert tuple(lambdas(1)) == (ONE, ONE)
        assert lambda_rec(0) == ONE and lambda_rec(1) == ONE

    def test_j3(self):
        assert lambda_rec(3) == qz_poly({(0, 0): 1, (0, 1): -1, (1, 1): -1})

    def test_j5_fibonacci_point(self):
        # q=1, z=-1 lands on a Fibonacci number; brute-force binomial-sum oracle
        lam5 = lambda_rec(5)
        assert eval_qz(lam5, 1, -1) == 8
        assert eval_qz(lam5, 1, -1) == sum(math.comb(5 - k, k) for k in range(3))


def test_rec_is_the_last_table_entry():
    for j in range(31):
        assert lambda_rec(j) == tuple(lambdas(j))[j], j


def test_negative_index_is_rejected():
    with pytest.raises(ValueError):
        lambda_rec(-1)
    with pytest.raises(ValueError):
        tuple(lambdas(-1))


def traced_peak(compute) -> int:
    """Peak bytes traced by tracemalloc while `compute()` runs."""
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_det_holds_two_values_not_the_table():
    # At n = 64 the table lam(0..64) is about three times lambda_rec's peak.
    n = 64
    assert traced_peak(lambda: lambda_rec(n)) < traced_peak(lambda: tuple(lambdas(n))) / 2


def test_lambda_rows_store_no_zero():
    # The z^k row of lam(j) is q^(k(k-1)) [j-k k]_q, and every coefficient of
    # a Gaussian binomial in its degree range is nonzero, so the dense rows
    # of lam(j) hold no zero: one tuple slot per term, at step 2 in u.
    for j, lam in enumerate(lambdas(40)):
        for ev, (lo, step, coeffs) in lam._rows.items():
            k = ev // 2
            assert (lo, len(coeffs)) == (2 * k * (k - 1), k * (j - 2 * k) + 1), (j, k)
            assert 0 not in coeffs and (step == 2 or len(coeffs) == 1), (j, k)


def test_sum_equals_rec_up_to_24():
    fam = tuple(lambdas(24))
    for j in range(25):
        assert lambda_sum(j) == fam[j], j


def test_recursion_holds_for_sum_values():
    # With lambdas from the closed sum the three-term recursion is a theorem.
    lams = [lambda_sum(j) for j in range(25)]
    for j in range(2, 25):
        assert lams[j] == lams[j - 1] - z_pow(1) * q_pow(j - 2) * lams[j - 2], j


def test_z_degree_is_half_j():
    fam = tuple(lambdas(20))
    for j in range(21):
        assert max(dz for (_, dz), _ in qz_terms(fam[j])) == j // 2, j


def test_fibonacci_specialization_up_to_20():
    fib = [0, 1, 1]
    while len(fib) < 23:
        fib.append(fib[-1] + fib[-2])
    fam = tuple(lambdas(20))
    for j in range(21):
        assert eval_qz(fam[j], 1, -1) == fib[j + 1], j


def lam_at_minus_q_power(lam, e):
    """lam(q, z) at z = -q^e, as a polynomial in q."""
    out = {}
    for (dq, dz), c in qz_terms(lam):
        out[dq + e * dz] = out.get(dq + e * dz, 0) + (-1) ** dz * c
    return qz_poly({(d, 0): c for d, c in out.items()})


def schur_sum(n, a, top):
    """Sum over all integers j of (-1)^j q^(j(5j+a)/2) [top, floor((n-5j)/2)]_q,
    the Gaussian binomials from q-Pascal.  A term vanishes unless
    0 <= floor((n-5j)/2) <= top, and top >= n, so -(n+1)/5 <= j <= n/5."""
    total = ZERO
    for j in range(-(n // 5) - 1, n // 5 + 1):
        term = q_pow(j * (5 * j + a) // 2) * gauss_pascal(top, (n - 5 * j) // 2)
        total = total - term if j % 2 else total + term
    return total


# Schur's polynomial identities (Andrews, "A polynomial identity which implies
# the Rogers-Ramanujan identities", Scripta Math. 28, 1970), as
# (z = -q^e, a, top - n): at z = -q, lam(n) = sum_j (-1)^j q^(j(5j+1)/2)
# [n, floor((n-5j)/2)]_q; at z = -q^2 the same with j(5j+3)/2 and [n+1, .].
SCHUR = [(1, 1, 0), (2, 3, 1)]


@pytest.mark.parametrize("e, a, extra", SCHUR, ids=["z=-q", "z=-q^2"])
def test_schur_identities_up_to_30(e, a, extra):
    # Neither the recursion's nor the closed sum's algebra enters the right side.
    for n, lam in enumerate(lambdas(30)):
        assert lam_at_minus_q_power(lam, e) == schur_sum(n, a, n + extra), n


@pytest.mark.parametrize("e, a, extra", SCHUR, ids=["z=-q", "z=-q^2"])
def test_schur_identities_reject_one_changed_coefficient(e, a, extra):
    for n in (2, 17, 30):
        lam, right = lambda_rec(n), schur_sum(n, a, n + extra)
        for (dq, dz), _ in qz_terms(lam):
            wrong = lam + q_pow(dq) * z_pow(dz)
            assert lam_at_minus_q_power(wrong, e) != right, (n, dq, dz)


class TestLehmerMatrix:
    def test_n1(self):
        m = lehmer_matrix(1)
        assert m.diag == (ONE,)
        assert m.superdiag == () and m.subdiag == ()

    def test_n2(self):
        m = lehmer_matrix(2)
        v = Poly2.monomial(1, 0, 1)
        assert m.diag == (ONE, ONE)
        assert m.superdiag == (v,) and m.subdiag == (v,)

    def test_n3_band_exponents(self):
        m = lehmer_matrix(3)
        v, vu = Poly2.monomial(1, 0, 1), Poly2.monomial(1, 1, 1)
        assert m.superdiag == (v, vu)
        assert m.subdiag == (v, vu)

    def test_bands_coincide(self):
        m = lehmer_matrix(9)
        assert m.superdiag == m.subdiag

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            lehmer_matrix(0)

    def test_entry_accessor(self):
        m = lehmer_matrix(4)
        assert m.entry(0, 3).is_zero and m.entry(3, 0).is_zero
        assert m.entry(1, 2) == band_monomial(2)


class TestClosedFactors:
    def test_n2_pivots(self):
        f = closed_factors(2)
        assert ratfunc_eq(f.u_diag[0], RAT_ONE)
        assert ratfunc_eq(f.u_diag[1], RatFunc(qz_poly({(0, 0): 1, (0, 1): -1})))

    def test_n2_subdiagonal(self):
        f = closed_factors(2)
        assert ratfunc_eq(f.l_sub[0], RatFunc(Poly2.monomial(1, 0, 1)))

    def test_superdiagonal_matches_matrix(self):
        f = closed_factors(6)
        assert f.u_super == lehmer_matrix(6).superdiag

    def test_subdiagonal_numerators_share_the_lambda_tuples(self):
        # L_{j+1,j} = v u^(j-1) lam(j-1)/lam(j): the numerator is a shift of
        # lam(j-1) by a monomial with coefficient 1, so each of its rows keeps
        # the coefficient tuple of lam(j-1)'s row, which is the denominator
        # of U_{j,j}, rather than a copy of it.  (From j = 3 on: lam(0) and
        # lam(1) are `ONE`, and a product with `ONE` is the other operand.)
        n = 24
        f = closed_factors(n)
        for j in range(3, n):
            num, lam = f.l_sub[j - 1].num, f.u_diag[j - 1].den
            assert num == band_monomial(j) * lam
            assert len(num._rows) == len(lam._rows)
            for ev, (lo, step, coeffs) in lam._rows.items():
                assert num._rows[ev + 1][2] is coeffs, (j, ev)


class TestBandShapes:
    # (n, length of the diagonal, lengths of the two off-diagonal bands)
    BAD_SHAPES = [(0, 0, 0, 0), (-1, 0, 0, 0), (3, 2, 2, 2), (3, 4, 2, 2),
                  (3, 3, 1, 2), (3, 3, 2, 3), (1, 1, 1, 0), (1, 1, 0, 1)]

    @pytest.mark.parametrize("n, nd, ns, nl", BAD_SHAPES)
    def test_trimatrix_rejects_a_wrong_shape(self, n, nd, ns, nl):
        with pytest.raises(ValueError):
            TriMatrix(n, (ONE,) * nd, (ONE,) * ns, (ONE,) * nl)

    @pytest.mark.parametrize("n, nd, ns, nl", BAD_SHAPES)
    def test_factors_reject_a_wrong_shape(self, n, nd, ns, nl):
        with pytest.raises(ValueError):
            BandedFactors(n, (RAT_ONE,) * nd, (ONE,) * ns, (RAT_ONE,) * nl)

    def test_right_shapes_are_kept(self):
        m = TriMatrix(3, (ONE,) * 3, (ONE,) * 2, (ONE,) * 2)
        assert (m.n, m.diag, m.superdiag, m.subdiag) == (3, (ONE,) * 3, (ONE,) * 2, (ONE,) * 2)
        f = BandedFactors(1, (RAT_ONE,), (), ())
        assert (f.n, f.u_diag, f.u_super, f.l_sub) == (1, (RAT_ONE,), (), ())


class TestFactorsEquality:
    def test_equal_entries_compare_equal(self):
        f = closed_factors(5)
        assert BandedFactors(f.n, f.u_diag, f.u_super, f.l_sub) == f
        # Entries are compared as values, not as stored num/den pairs.
        scaled = tuple(RatFunc(2 * x.num, 2 * x.den) for x in f.u_diag)
        assert BandedFactors(f.n, scaled, f.u_super, f.l_sub) == f

    @pytest.mark.parametrize("band", ["u_diag", "u_super", "l_sub"])
    def test_one_changed_entry_compares_unequal(self, band):
        f = closed_factors(5)
        for i in range(len(getattr(f, band))):
            entries = list(getattr(f, band))
            entries[i] = entries[i] + 1
            bands = {"u_diag": f.u_diag, "u_super": f.u_super, "l_sub": f.l_sub,
                     band: tuple(entries)}
            changed = BandedFactors(f.n, **bands)
            assert changed != f and f != changed, (band, i)

    def test_unequal_to_other_types(self):
        f = closed_factors(3)
        for other in ((f.n, f.u_diag, f.u_super, f.l_sub), lehmer_matrix(3), None, 3):
            assert f != other and other != f, other


class TestDetClosed:
    def test_small_values(self):
        assert lambda_rec(1) == ONE
        assert lambda_rec(2) == qz_poly({(0, 0): 1, (0, 1): -1})
        assert lambda_rec(3) == qz_poly({(0, 0): 1, (0, 1): -1, (1, 1): -1})

    def test_half_powers_cancel(self):
        # The matrix entries carry odd v-exponents; the determinant must not.
        for n in range(1, 17):
            list(qz_terms(lambda_rec(n)))



def test_pivot_telescoping_up_to_16():
    # The running product of U pivots equals lam(n)/1 at every stage.
    f = closed_factors(16)
    fam = tuple(lambdas(16))
    running = RAT_ONE
    for n in range(1, 17):
        running = running * f.u_diag[n - 1]
        assert ratfunc_eq(running, RatFunc(fam[n])), n
