"""Ring axioms, canonical form, and fraction-field behavior of Poly2/RatFunc."""

import json
import math
import re
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlehmer import lehmer, poly
from qlehmer.lehmer import lambdas
from qlehmer.poly import (
    ONE,
    RAT_ZERO,
    ZERO,
    ExactDivisionError,
    Poly2,
    RatFunc,
    eval_qz,
    eval_u1,
    exact_div,
    q_pow,
    qz_terms,
    ratfunc_eq,
    to_json,
    to_json_obj,
    to_text,
    z_pow,
)
from qlehmer.qcomb import gauss_product, poch_qq

U = Poly2.monomial(1, 1, 0)
V = Poly2.monomial(1, 0, 1)
Q = q_pow(1)
Q3 = q_pow(3)
BIG = 2**200


def P(terms):
    return Poly2(terms)


# Small polynomials: at most 6 terms, exponents <= 8, coefficients in [-9, 9].
exponent_pairs = st.tuples(st.integers(0, 8), st.integers(0, 8))
polys = st.dictionaries(exponent_pairs, st.integers(-9, 9), max_size=6).map(Poly2)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
# One z-row, the operands `exact_div` takes: the same terms on one v-exponent.
row_polys = st.builds(lambda m, ev: Poly2({(eu, ev): c for eu, c in m.items()}),
                      st.dictionaries(st.integers(0, 8), st.integers(-9, 9), max_size=6),
                      st.integers(0, 8))
nonzero_row_polys = row_polys.filter(lambda p: not p.is_zero)


@st.composite
def wide_polys(draw, one_row=False):
    """Operands of 10-60 terms on a shifted grid.

    Each variable gets its own minimum exponent and stride (stride 1 mixes
    parities, a zero v-stride keeps every v-exponent equal), and the
    coefficients mix small values with ones up to 2**200 in size.  With
    `one_row` the v-stride is 0, so the operand is one z-row of 10-25 terms.
    """
    low_u, low_v = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    step_u, step_v = draw(st.integers(1, 3)), 0 if one_row else draw(st.integers(0, 3))
    span_u, span_v = 25, (7 if step_v else 1)
    cells = draw(st.sets(st.integers(0, span_u * span_v - 1),
                         min_size=10, max_size=min(60, span_u * span_v)))
    coeffs = st.one_of(st.integers(-9, 9), st.integers(-2**200, 2**200)).filter(bool)
    return Poly2({(low_u + step_u * (k % span_u), low_v + step_v * (k // span_u)): draw(coeffs)
                  for k in cells})


@st.composite
def stepped_polys(draw):
    """Up to three rows, each with its own low, step and parity, and with
    coefficients that mix small values, zeros and ones of about 2**200, so
    sums cancel inside rows and at their ends."""
    coeffs = st.one_of(st.integers(-3, 3), st.sampled_from([BIG, -BIG, BIG + 1]))
    terms = {}
    for ev in draw(st.sets(st.integers(0, 4), max_size=3)):
        lo, step = draw(st.integers(0, 5)), draw(st.integers(1, 4))
        for i, c in enumerate(draw(st.lists(coeffs, min_size=1, max_size=5))):
            terms[(lo + i * step, ev)] = c
    return Poly2(terms)


def schoolbook(a, b):
    """Reference product: the plain double loop over term pairs."""
    out = {}
    for (au, av), ac in a.terms.items():
        for (bu, bv), bc in b.terms.items():
            e = (au + bu, av + bv)
            out[e] = out.get(e, 0) + ac * bc
    return Poly2(out)


class TestAdd:
    def test_cancellation(self):
        assert (ONE + U * U) + (-(U * U)) == ONE

    def test_additive_identity(self):
        p = P({(3, 1): 4, (0, 2): -1})
        assert ZERO + p == p

    def test_term_merge(self):
        left = ONE - V * V
        right = V * V * U * U
        assert left + right == P({(0, 0): 1, (0, 2): -1, (2, 2): 1})


class TestMul:
    def test_difference_of_squares(self):
        assert (ONE - V * V) * (ONE + V * V) == P({(0, 0): 1, (0, 4): -1})

    def test_multiplicative_identity(self):
        p = P({(5, 0): 2, (1, 1): -3})
        assert p * ONE == p

    def test_band_product(self):
        # subdiagonal times superdiagonal entry of the 2x2 case: v*u squared is z*q
        vu = V * U
        assert vu * vu == P({(2, 2): 1})


class TestExactDiv:
    def test_geometric_factor(self):
        num = ONE - q_pow(2)          # 1 - u^4
        den = ONE - U * U             # 1 - u^2
        assert exact_div(num, den) == ONE + U * U

    def test_self_division(self):
        p = P({(2, 3): 7, (0, 3): -1})
        assert exact_div(p, p) == ONE

    def test_pochhammer_factor(self):
        # (1-q)(1-q^2) divided by (1-q) leaves 1-q^2
        qq2 = (ONE - q_pow(1)) * (ONE - q_pow(2))
        assert exact_div(qq2, ONE - q_pow(1)) == ONE - q_pow(2)

    def test_zero_dividend(self):
        assert exact_div(ZERO, ONE - U) == ZERO

    def test_zero_divisor_rejected(self):
        with pytest.raises(ExactDivisionError):
            exact_div(ONE, ZERO)

    def test_monomial_mismatch_rejected(self):
        with pytest.raises(ExactDivisionError):
            exact_div(ONE + U, V)

    def test_coefficient_mismatch_rejected(self):
        with pytest.raises(ExactDivisionError):
            exact_div(Poly2.constant(3), Poly2.constant(2))

    def test_multirow_operands_rejected(self):
        # The package divides one z-row by one z-row; a second row in the
        # dividend or the divisor raises before any packing, also where a
        # quotient exists.
        two_rows = ONE + V
        for a, b in ((two_rows * (ONE + U), ONE + U), (ONE + U, two_rows)):
            with pytest.raises(ValueError, match="one z-row by one z-row"):
                exact_div(a, b)


class TestEvalU1:
    def test_lambda4_specialization(self):
        p = ONE - z_pow(1) * (ONE + q_pow(1) + q_pow(2)) + z_pow(2) * q_pow(2)
        assert eval_u1(p) == P({(0, 0): 1, (0, 2): -3, (0, 4): 1})

    def test_constant(self):
        assert eval_u1(Poly2.constant(5)) == Poly2.constant(5)

    def test_monomial(self):
        assert eval_u1(P({(2, 2): 1})) == P({(0, 2): 1})


class TestQzTerms:
    def test_monomial(self):
        assert list(qz_terms(P({(2, 4): 3}))) == [((1, 2), 3)]

    def test_lambda3(self):
        lam3 = ONE - z_pow(1) - q_pow(1) * z_pow(1)
        assert dict(qz_terms(lam3)) == {(0, 0): 1, (0, 1): -1, (1, 1): -1}

    def test_odd_exponent_rejected(self):
        with pytest.raises(ValueError):
            list(qz_terms(U * V))


class TestEvalQz:
    def test_fibonacci_point(self):
        lam3 = ONE - z_pow(1) - q_pow(1) * z_pow(1)
        assert eval_qz(lam3, 1, -1) == 3

    def test_odd_exponent_rejected(self):
        with pytest.raises(ValueError):
            eval_qz(V, 1, 1)


class TestRatFunc:
    def test_lambda_ratio_equals_reduced_form(self):
        lam1, lam2 = ONE, ONE - z_pow(1)
        assert ratfunc_eq(RatFunc(lam2, lam1), RatFunc(ONE - z_pow(1), ONE))

    def test_self_over_self_is_one(self):
        p = P({(1, 2): 3, (0, 0): 1})
        assert ratfunc_eq(RatFunc(p, p), RatFunc(ONE, ONE))

    def test_distinct_denominators_differ(self):
        a = RatFunc(ONE, ONE - V * V)
        b = RatFunc(ONE, ONE + V * V)
        assert not ratfunc_eq(a, b)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(ONE, ZERO)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(ONE) / RatFunc(ZERO)

    def test_arithmetic(self):
        half = RatFunc(ONE, ONE - V)
        assert half + half == RatFunc(Poly2.constant(2), ONE - V)
        assert half - half == RatFunc(ZERO)
        assert (half * (ONE - V)) == RatFunc(ONE)

    def test_zero_numerator_normalizes_denominator(self):
        r = RatFunc(ZERO, ONE - V)
        assert r.den == ONE and r.is_zero

    def test_zero_operands_stay_free(self, monkeypatch):
        # Zero has no shortcut of its own: the general formulas meet only ZERO
        # and ONE, so a sum keeps the other operand's num and den themselves
        # and no product of two multi-term polynomials is formed.
        lam = tuple(lambdas(6))
        x = RatFunc(lam[6], lam[5])
        big = []
        mul = Poly2.__mul__

        def spy(a, b):
            if len(a.terms) > 1 and len(b.terms) > 1:
                big.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(Poly2, "__mul__", spy)
        monkeypatch.setattr(Poly2, "__rmul__", spy)
        for total in (RAT_ZERO + x, x + RAT_ZERO):
            assert total.num is x.num and total.den is x.den
        for product in (x * RAT_ZERO, RAT_ZERO * x, RAT_ZERO / x):
            assert product.is_zero and product.den == ONE
        assert big == []


# -- algebraic laws on random small polynomials -------------------------------


@given(polys, polys)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polys, polys)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


# -- the one-pass kernels: monomial shift and direct subtraction --------------


def canonical(p):
    """Every stored row is a dense row in canonical form: a tuple of
    coefficients with nonzero ends, stepped by the gcd of the nonzero
    terms' offsets (1 for a one-term row)."""
    for lo, step, coeffs in p._rows.values():
        if type(coeffs) is not tuple or not coeffs or not coeffs[0] or not coeffs[-1]:
            return False
        if step != (math.gcd(*(i * step for i, c in enumerate(coeffs) if c)) or 1):
            return False
    return True


# Monomials with any exponents and a coefficient of 1, -1, a small value or
# one of about 2**200 (the c != 1 branch must scale, the c == 1 one copy).
monomials = st.builds(
    Poly2.monomial,
    st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9).filter(bool),
              st.integers(2**199, 2**201).map(lambda c: c if c % 2 else -c)),
    st.integers(0, 10**6), st.integers(0, 10**6))


@settings(deadline=None)
@given(monomials, st.one_of(polys, wide_polys()))
def test_monomial_shift_matches_schoolbook(m, p):
    product = m * p
    assert product == p * m == schoolbook(m, p)
    assert canonical(product)


@given(polys, polys)
def test_subtraction_is_adding_the_negation(a, b):
    difference = a - b
    assert difference == a + (-b)
    assert canonical(difference)
    assert b - a == -difference
    assert a - (a + b) == -b  # every term of a cancels


@given(polys)
def test_subtraction_of_self_cancels(p):
    assert p - p == ZERO
    assert (p + p) - p == p


def test_subtraction_cases():
    p = P({(0, 0): 5, (2, 1): -4, (3, 0): 1})
    assert p - p == ZERO and (p - p).terms == {}
    assert p - 3 == P({(0, 0): 2, (2, 1): -4, (3, 0): 1})
    assert 3 - p == P({(0, 0): -2, (2, 1): 4, (3, 0): -1})
    assert 5 - p == P({(2, 1): 4, (3, 0): -1})
    assert 0 - p == -p == ZERO - p
    assert p - 0 == p - ZERO == p
    assert canonical(5 - p) and canonical(p - 5)


def test_monomial_times_zero():
    m = Poly2.monomial(-7, 3, 2)
    assert m * ZERO == ZERO * m == ZERO
    assert m * 0 == 0 * m == ZERO
    assert (m * ZERO).terms == {}


def test_monomial_shift_scales_and_moves_both_exponents():
    p = P({(0, 0): 1, (2, 1): -3})
    assert Poly2.monomial(1, 4, 5) * p == P({(4, 5): 1, (6, 6): -3})
    assert p * Poly2.monomial(-2, 0, 1) == P({(0, 1): -2, (2, 2): 6})
    assert 4 * p == P({(0, 0): 4, (2, 1): -12})


@given(st.one_of(polys, wide_polys()))
def test_one_times_p_is_p(p):
    assert ONE * p == p * ONE == p


@settings(deadline=None)
@given(exponent_pairs.filter(any), st.one_of(nonzero_polys, wide_polys()))
def test_unit_monomial_still_shifts(e, p):
    # A single term with coefficient 1 is ONE only at (0, 0).
    m = Poly2.monomial(1, *e)
    assert m * p == p * m == schoolbook(m, p)


# -- shared rows: immutability is what makes them safe ------------------------


# z-shifts with coefficient 1 (du = 0, c = 1): products that move whole rows.
z_shifts = st.builds(Poly2.monomial, st.just(1), st.just(0), st.integers(0, 8))


@settings(deadline=None)
@given(st.one_of(polys, wide_polys(), stepped_polys()),
       st.one_of(polys, monomials, z_shifts, stepped_polys(), st.sampled_from([ZERO, ONE])))
# (1 + q + q^2) - q cancels inside the row, so its step rises from 2 to 4.
@example(ONE + Q + Q * Q, Q)
# (1 + q + q^2 + q^3) - (1 + q^3) cancels at both ends, so the row is trimmed.
@example(ONE + Q + Q * Q + Q3, ONE + Q3)
# q-rows next to v*u^odd rows, and sums that lay both on step 1.
@example((ONE + Q + Q * Q) * (ONE + V * U), U + V * U * U)
# Coefficients of about 2**200 that cancel inside a row and at its end.
@example(BIG * (ONE + Q + Q3) + 3 * Q * Q, BIG * (Q + Q3) + V)
def test_results_share_rows_without_changing_operands(a, b):
    # Sums take rows of either operand as they are, so no operation, on
    # operands or on results built from them, may change a row in place, and
    # every result must be canonical.
    values = [a, b]
    seen = [v.terms for v in values]
    values += [a + b, b + a, a - b, b - a, -a, -b, a * b, b * a]
    assert [v.terms for v in values[:2]] == seen
    if len(a._rows) == len(b._rows) == 1:  # `exact_div` takes one z-row each
        values += [exact_div(a * b, b), exact_div(a * b, a)]
    # A second round on the results, whose rows are shared with a and b.
    seen = [v.terms for v in values]
    more = [r + b for r in values] + [r - a for r in values] + [r * b for r in values]
    more += [-r for r in values]
    assert [v.terms for v in values] == seen
    assert all(canonical(v) for v in values + more)


def test_rows_are_trimmed_and_restrided():
    # The stored rows themselves, (lo, step, coeffs) per v-exponent.
    assert ((ONE + Q + Q * Q) - Q)._rows == {0: (0, 4, (1, 1))}
    assert ((ONE + Q + Q * Q + Q3) - (ONE + Q3))._rows == {0: (2, 2, (1, 1))}
    assert ((ONE + Q * Q) - ONE)._rows == {0: (4, 1, (1,))}  # one term: step 1
    assert ((ONE + Q) + U)._rows == {0: (0, 1, (1, 1, 1))}
    assert (ONE + Poly2.monomial(1, 3, 0) + V * U)._rows == {0: (0, 3, (1, 1)), 1: (1, 1, (1,))}
    big = BIG * (ONE + Q + Q * Q) - BIG * Q
    assert big._rows == {0: (0, 4, (BIG, BIG))}
    assert (big - BIG * Q * Q)._rows == {0: (0, 1, (BIG,))}


# -- the row sum: every layout of its two rows --------------------------------


def row_terms(row):
    """A stored row as a {u-exponent: coeff} map of its nonzero terms."""
    lo, step, coeffs = row
    return {lo + i * step: c for i, c in enumerate(coeffs) if c}


# Pairs of canonical rows (lo, step, coeffs), a the left operand and b the
# right one, covering each part of the sum: a head from either row, the
# zeros of a gap, the overlap, and a tail from either row.
ROW_LAYOUTS = {
    "b inside a": ((0, 1, (1, 2, 3, 4, 5)), (1, 1, (7, 8, 9))),
    "b past the end of a": ((0, 2, (1, 2, 3)), (2, 2, (5, 6, 7, 8))),
    "b before a, ending inside it": ((4, 1, (1, 2, 3)), (2, 1, (5, 6, 7))),
    "b around a": ((3, 1, (1, 2)), (0, 1, (5, 6, 7, 8, 9, 4))),
    "same span": ((0, 1, (1, 2, 3)), (0, 1, (4, 5, 6))),
    "gap, a first": ((0, 1, (1, 2)), (6, 1, (3, 4))),
    "gap, b first": ((8, 2, (1, 2)), (0, 2, (3, 4))),
    "one term each, apart": ((5, 1, (3,)), (2, 1, (4,))),
    "one term each, together": ((5, 1, (3,)), (5, 1, (4,))),
    "steps 2 and 3 on step 1": ((0, 2, (1, 2, 3)), (1, 3, (4, 5, 6))),
    "steps 4 and 6 on step 2": ((0, 4, (1, 2, 3)), (2, 6, (4, 5))),
    "b spread inside a": ((0, 1, (1, 0, 2, 3, 4)), (1, 3, (5, 6))),
    "coefficients near 2**200": ((0, 2, (BIG, -BIG, 1)), (2, 2, (BIG - 1, -BIG, BIG))),
}


@pytest.mark.parametrize("op", [poly.add, poly.sub], ids=["add", "sub"])
@pytest.mark.parametrize("a, b", ROW_LAYOUTS.values(), ids=ROW_LAYOUTS)
def test_row_sum_matches_the_sum_of_term_maps(a, b, op):
    expected = row_terms(a)
    for eu, c in row_terms(b).items():
        expected[eu] = op(expected.get(eu, 0), c)
    expected = {eu: c for eu, c in expected.items() if c}
    out = poly._combine(a, b, op)
    assert (row_terms(out) if out else {}) == expected
    assert out is None or canonical(Poly2._raw({0: out}))


# a - b == expected as stored rows, and so is a + (-b): sums that cancel
# everywhere, at the ends (trim) or inside (re-stride).
CANCELLING = {
    "everything": ((2, 2, (1, -2, 3)), (2, 2, (1, -2, 3)), None),
    "both ends": ((0, 1, (1, 2, 3, 4)), (0, 3, (1, 4)), (1, 1, (2, 3))),
    "inside, so the step doubles": ((0, 1, (1, 1, 1)), (1, 1, (1,)), (0, 2, (1, 1))),
    "all but one term": ((0, 1, (1, 2, 3, 4, 5)), (0, 1, (1, 2, 0, 4, 5)), (2, 1, (3,))),
    "the head of a, after b's head": ((2, 1, (5, 6)), (0, 1, (7, 8, 5)), (0, 1, (-7, -8, 0, 6))),
    "b's tail stays": ((0, 2, (1, 2)), (0, 2, (1, 2, 3)), (4, 1, (-3,))),
    "near 2**200, inside": ((0, 1, (BIG, BIG, BIG)), (1, 1, (BIG,)), (0, 2, (BIG, BIG))),
}


@pytest.mark.parametrize("a, b, expected", CANCELLING.values(), ids=CANCELLING)
def test_row_sum_trims_and_restrides_what_cancels(a, b, expected):
    assert poly._combine(a, b, poly.sub) == expected
    assert poly._combine(a, poly._negated(b), poly.add) == expected


@given(st.one_of(polys, wide_polys(), stepped_polys()), exponent_pairs)
def test_unit_shift_reuses_the_coefficient_tuples(p, e):
    # A shift by a monomial with coefficient 1 moves each row's low and
    # v-exponent and keeps its coefficient tuple itself.
    m = Poly2.monomial(1, *e)
    shifted = m * p
    assert shifted == schoolbook(m, p)
    assert len(shifted._rows) == len(p._rows)
    for ev, (_, _, coeffs) in p._rows.items():
        assert shifted._rows[ev + e[1]][2] is coeffs


# -- shared-denominator identities of RatFunc ----------------------------------


@st.composite
def denominator_pairs(draw):
    """(d, e) with d nonzero and e an equal copy of d, or d with one
    coefficient (any of them, leading or not) doubled: same term count,
    same exponents, different value."""
    d = draw(nonzero_polys)
    terms = d.terms
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(terms)))
        terms[key] *= 2
    return d, Poly2(terms)


@given(polys, polys, denominator_pairs())
def test_ratfunc_eq_matches_cross_multiplication(a, b, dens):
    d, e = dens
    for x, y in ((a, a), (a, b)):
        assert ratfunc_eq(RatFunc(x, d), RatFunc(y, e)) == (x * e == y * d)


@given(polys, polys, denominator_pairs())
def test_sum_and_difference_match_cross_multiplication(a, b, dens):
    d, e = dens
    x, y = RatFunc(a, d), RatFunc(b, e)
    for got, num in ((x + y, a * e + b * d), (x - y, a * e - b * d)):
        assert got.num * (d * e) == num * got.den


@given(polys, polys, nonzero_polys)
def test_poly2_defers_to_ratfunc(p, a, d):
    # Poly2's operators return NotImplemented for a RatFunc, so Python calls
    # RatFunc's reflected ones.
    r = RatFunc(a, d)
    assert isinstance(p + r, RatFunc) and p + r == r + p
    assert isinstance(p * r, RatFunc) and p * r == r * p
    assert isinstance(p - r, RatFunc) and p - r == -(r - p)


def test_ratfunc_defers_to_other_types():
    # RatFunc's operators return NotImplemented for a foreign operand, so
    # Python calls that operand's reflected methods.
    class Reflecting:
        def __radd__(self, other):
            return "radd", other

        def __rsub__(self, other):
            return "rsub", other

        def __rmul__(self, other):
            return "rmul", other

        def __rtruediv__(self, other):
            return "rtruediv", other

    r, obj = RatFunc(Q), Reflecting()
    for name, (got, left) in {"radd": r + obj, "rsub": r - obj,
                              "rmul": r * obj, "rtruediv": r / obj}.items():
        assert got == name and left is r


@pytest.mark.parametrize("operate", [
    lambda: RatFunc("x"), lambda: RatFunc(ONE, 1.5), lambda: Q + 1.5, lambda: 1.5 + Q,
    lambda: Q - 1.5, lambda: "x" - Q, lambda: Q * 1.5, lambda: RatFunc(Q) + "x",
    lambda: RatFunc(Q) - "x", lambda: "x" - RatFunc(Q), lambda: RatFunc(Q) * 1.5,
    lambda: RatFunc(Q) / "x",
])
def test_other_operand_types_raise_type_error(operate):
    with pytest.raises(TypeError):
        operate()


@given(row_polys, nonzero_row_polys)
def test_exact_div_inverts_mul(a, b):
    assert exact_div(a * b, b) == a


# -- the packed multiply path (both operands of more than one term) ------------


@given(wide_polys(), wide_polys())
def test_packed_product_matches_schoolbook(a, b):
    product = a * b
    assert product == schoolbook(a, b)
    assert all(c != 0 for c in product.terms.values())


@given(wide_polys(), st.integers(1, 3), st.integers(0, 2), st.integers(10, 30))
def test_packed_product_cancels(c, step_u, step_v, m):
    # (1 - x)(1 + x + ... + x^(m-1)) telescopes to 1 - x^m, so most digits
    # of the packed product cancel to zero and must leave no stored terms.
    x = Poly2.monomial(1, step_u, step_v)
    a = schoolbook(c, ONE - x)
    geometric = Poly2({(step_u * i, step_v * i): 1 for i in range(m)})
    product = a * geometric
    assert product == schoolbook(c, ONE - Poly2.monomial(1, step_u * m, step_v * m))
    assert all(coeff != 0 for coeff in product.terms.values())


def test_packed_product_digit_width_holds_the_tight_bound():
    # Constant-coefficient runs attain min(#a, #b) * max|a| * max|b| in the
    # middle of the product, so every digit width meets its largest value.
    for c in (*range(1, 64), 2**100 - 1):
        a = Poly2({(i, 1): c for i in range(10)})
        for sign in (1, -1):
            b = Poly2({(i, 0): sign * c for i in range(12)})
            assert a * b == schoolbook(a, b)


def test_large_lambda_product_matches_evaluation():
    # Evaluation is a ring map to Z and shares no code with any multiply path.
    lam = tuple(lambdas(32))
    product = lam[31] * lam[32]
    assert len(lam[31].terms) >= 10
    for q, z in [(2, 3), (-3, 2), (5, -7), (1, -1), (-2, -5), (7, 11)]:
        assert eval_qz(product, q, z) == eval_qz(lam[31], q, z) * eval_qz(lam[32], q, z)


def packing_spy(monkeypatch):
    """Route `_mul_rows` through a spy; returns the list of operand row maps
    it packed."""
    packed, kernel = [], poly._mul_rows

    def spy(a, b):
        packed.append((a, b))
        return kernel(a, b)

    monkeypatch.setattr(poly, "_mul_rows", spy)
    return packed


def test_each_product_row_packs_on_its_own_grid(monkeypatch):
    # Each product row is packed at its own step, so it is decoded to no
    # more digits than it spans there, and each row of an operand is packed
    # once per step it meets.  In the first product the v and v^3 rows sit
    # at step u^1000000 and the others at step u; in the second the row
    # 1 + u^1000 of a meets a step-u row in the product row 1 and a step-u^1000
    # row in the product row v.
    digits, decode = [], poly._decode
    encoded, encode = [], poly._encode

    def count_digits(data, width):
        digits.append(len(data) // width)
        return decode(data, width)

    def count_packs(row, step, width):
        encoded.append((row, step))
        return encode(row, step, width)

    monkeypatch.setattr(poly, "_decode", count_digits)
    monkeypatch.setattr(poly, "_encode", count_packs)
    far, near = Poly2.monomial(1, 10**6, 0), Poly2.monomial(1, 1000, 0)
    cases = [((ONE + U) + V * (ONE + far), ONE + z_pow(1)),
             (ONE + near, (ONE + U) + V * (ONE + near))]
    for a, b in cases:
        digits.clear()
        encoded.clear()
        product = a * b
        assert product == schoolbook(a, b)
        assert digits == [len(coeffs) for _, _, coeffs in product._rows.values()]
        assert len({(id(row), step) for row, step in encoded}) == len(encoded)
    assert digits == [1002, 3]
    assert sorted(step for row, step in encoded if row is a._rows[0]) == [1, 1000]


def test_sparse_square_matches_schoolbook():
    # One product row of two million digits at step u for 100 term pairs.
    sparse = Poly2({**{(i, 0): 1 for i in range(9)}, (10**6, 0): 1})
    assert len(sparse.terms) == 10
    assert sparse * sparse == schoolbook(sparse, sparse)


def test_product_row_starts_at_its_lowest_pair(monkeypatch):
    # Product row v gets u^10 f * g first and f * g after it, which starts
    # lower, so the row must start at the lowest low of its pairs.
    packed = packing_spy(monkeypatch)
    f, g = Poly2({(i, 0): 1 for i in range(3)}), ONE + U
    a, b = f * Poly2.monomial(1, 10, 0) + f * V, g + g * V
    packed.clear()
    product = a * b
    assert len(packed) == 1
    assert product == schoolbook(a, b)


def test_product_row_that_cancels_is_not_stored(monkeypatch):
    # (A + zB)(A - zB) = A^2 - z^2 B^2: every digit of the z row cancels.
    packed = packing_spy(monkeypatch)
    big_a = Poly2({(i, 0): i + 1 for i in range(20)})
    big_b = Poly2({(2 * i, 0): (-1) ** i * (i + 3) for i in range(15)})
    a, b = big_a + z_pow(1) * big_b, big_a - z_pow(1) * big_b
    packed.clear()
    product = a * b
    assert len(packed) == 1
    assert sorted(product._rows) == [0, 4]
    assert product == schoolbook(a, b)
    assert canonical(product)


def test_product_row_with_cancelled_ends_is_trimmed_and_restrided(monkeypatch):
    # With f = 1 + u^4 and a1 + b1 = u^2, the v row of (f + v a1)(f + v b1)
    # is f (a1 + b1) = u^2 + u^6.  Its pairs span u^0..u^10 at step 2, so
    # its end digits cancel and what is left sits at step 4.
    packed = packing_spy(monkeypatch)
    f = Poly2({(0, 0): 1, (4, 0): 1})
    b1 = Poly2({(0, 0): 1, (4, 0): 1, (6, 0): 1})
    a, b = f + V * (Poly2.monomial(1, 2, 0) - b1), f + V * b1
    packed.clear()
    product = a * b
    assert len(packed) == 1
    assert product._rows[1] == (2, 4, (1, 1))
    assert product == schoolbook(a, b)
    assert canonical(product)


def test_digit_width_holds_the_norm_bound():
    # a = c * (1, 2, ..., m) and b, its reverse, attain ||a||_2 * ||b||_2 =
    # c^2 * (1^2 + ... + m^2) in the middle of the product, below the
    # min(#a, #b) * max|a| * max|b| = c^2 * m^3 bound.  Each c is swept
    # across a byte edge of that middle coefficient.
    for m in (10, 13):
        square_sum = sum(i * i for i in range(1, m + 1))
        edges = (math.isqrt((1 << (8 * k - 1)) // square_sum) for k in range(1, 9))
        for c in {*range(1, 40), *(e + d for e in edges for d in (-1, 0, 1))} - {0}:
            a = Poly2({(i, 0): c * (i + 1) for i in range(m)})
            for sign in (1, -1):
                b = Poly2({(i, 1): sign * c * (m - i) for i in range(m)})
                assert a * b == schoolbook(a, b)


# -- packing: one row at X = 2**(8 * width) -----------------------------------


@st.composite
def packings(draw):
    """A one-row polynomial and a packing layout (step, width) that holds it.
    Cells are drawn on the layout's own u-grid, so a row whose cells are 3
    apart is stored at 3 * step and packed spread to step, and a
    sparse draw leaves a one-term row.  Coefficients run from single digits
    of either sign to the edges of a digit's balanced range."""
    width, step = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    lo, ev = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    half = 1 << (8 * width - 1)
    edges = st.sampled_from([-half, 1 - half, half - 2, half - 1])
    coeffs = st.one_of(st.integers(-9, 9), edges, st.integers(-half, half - 1)).filter(bool)
    cells = draw(st.dictionaries(st.integers(0, 40), coeffs, min_size=1, max_size=20))
    return Poly2({(lo + step * i, ev): c for i, c in cells.items()}), (step, width), cells


@given(packings())
def test_pack_is_the_sum_of_terms_at_x(drawn):
    p, (step, width), cells = drawn
    first = min(cells)
    direct = sum(c << (8 * width * (i - first)) for i, c in cells.items())
    (row,) = p._rows.values()
    assert poly._encode(row, step, width) == direct


@pytest.mark.parametrize("c", [1 << 15, -(1 << 15) - 1])
def test_pack_rejects_a_coefficient_past_its_digit(c):
    with pytest.raises(OverflowError):
        poly._encode((0, 1, (1, c)), 1, 2)


@given(packings())
def test_unpack_inverts_pack_where_the_digits_hold(drawn):
    p, (step, width), cells = drawn
    # Balanced digits hold -2**(8w-1) <= c < 2**(8w-1); widen until they do.
    while not all(-(1 << (8 * width - 1)) <= c < 1 << (8 * width - 1) for c in cells.values()):
        width += 1
    ((ev, row),) = p._rows.items()
    n = max(cells) - min(cells) + 1
    packed = poly._encode(row, step, width) + poly._bias(n, width)
    digits = poly._decode(packed.to_bytes(n * width, "little"), width)
    assert {ev: poly._row(row[0], step, digits)} == p._rows


# -- exact division, one z-row by one z-row, in the multiply's codec ------------


@contextmanager
def one_digit_packs():
    """Wrap `_encode`, the codec of both the multiply and `exact_div`, to
    assert that each coefficient it packs fits one balanced digit,
    -2**(8w-1) <= c < 2**(8w-1); yields the widths packed."""
    widths, encode = [], poly._encode

    def checked(row, step, width):
        half = 1 << (8 * width - 1)
        assert all(-half <= c < half for c in row[2])
        widths.append(width)
        return encode(row, step, width)

    with mock.patch.object(poly, "_encode", checked):
        yield widths


def test_binomial_division_packs_one_digit_per_coefficient():
    with one_digit_packs() as widths:
        # The dividend of [80 20]_q is wider than the divisor's first digit.
        assert eval_qz(gauss_product(80, 20), 1, 1) == math.comb(80, 20)
    assert widths


@settings(deadline=None)
@given(wide_polys(one_row=True), wide_polys(one_row=True))
def test_exact_div_packs_one_digit_per_coefficient(a, b):
    with one_digit_packs() as widths:
        assert exact_div(a * b, b) == a
    assert widths


@settings(deadline=None)
@given(wide_polys(one_row=True), wide_polys(one_row=True))
def test_exact_div_inverts_wide_products(a, b):
    assert exact_div(a * b, b) == a


@settings(deadline=None)
@given(wide_polys(one_row=True), wide_polys(one_row=True), st.integers(1, 2**64),
       st.integers(0, 60))
def test_exact_div_rejects_product_plus_monomial(a, b, c, eu):
    # b has at least 10 terms, so it divides no monomial, and hence not a*b + m.
    # m sits on the z-row of a*b, so the sum is one row.
    ev = next(iter((a * b).terms))[1]
    with pytest.raises(ExactDivisionError):
        exact_div(a * b + Poly2.monomial(c, eu, ev), b)


def gaussian_binomial_at(n, k, q):
    """[n k] at an integer q != 1, from the product formula in integers."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_quotient_outgrows_its_operands():
    # [80 20]_q has 54-bit coefficients while (q;q)_80 has 19-bit ones, so
    # the first digit widths cannot hold the quotient.
    a, b = poch_qq(80), poch_qq(20) * poch_qq(60)
    c = exact_div(a, b)
    bits = max(abs(x).bit_length() for x in c.terms.values())
    assert bits == 54
    assert bits > max(abs(x).bit_length() for x in (*a.terms.values(), *b.terms.values()))
    assert len(c.terms) == 20 * 60 + 1
    assert max(dq for (dq, _), _ in qz_terms(c)) == 20 * 60
    assert eval_qz(c, 1, 1) == math.comb(80, 20)
    for q in (2, -3, 5):
        assert eval_qz(c, q, 1) == gaussian_binomial_at(80, 20, q)


def u_row(*coeffs, ev=0):
    """coeffs[i] * u**i * v**ev, one z-row."""
    return Poly2({(i, ev): c for i, c in enumerate(coeffs)})


@pytest.mark.parametrize("a, b, reason", [
    (u_row(2, 1), Poly2.constant(2), "certificate"),  # coefficient 1/2 of u
    (u_row(6, 0, 3, 0, 9), u_row(2, 0, 4), None),  # 3 by 2
    (u_row(0, 1, 0, 0, 0, 1), u_row(0, 0, 1, 1), "lowest monomial"),  # in u
    (u_row(0, 0, 0, 1, 0, 1), u_row(1, 0, 1, ev=1), "lowest monomial"),  # in v
    (ONE + Poly2.monomial(1, 3, 0), ONE + q_pow(2), "spans more"),  # divisor wider in u
    (ONE + U, ONE + q_pow(1), "spans more"),  # u^2 against u, at u-step 1
    # (2 + u)(1 + 2u) / (2 + 4u) = 1 + u/2: the packed 1 + X/2 wraps at
    # every width, up to the Mignotte cap.
    (u_row(2, 5, 2), u_row(2, 4), "certificate"),
    # At one byte, (60 + 60u)(3 + 3u) packs to -76 + 105X - 75X^2 + X^3, with
    # every quotient digit below a quarter of the range: only the certificate
    # shows that c*b has coefficients past a digit.  Two bytes leave a remainder.
    (u_row(-76, 105, -75, 1), u_row(3, 3), "remainder"),
    # At one byte the packed quotient 200 is past one digit; two bytes leave
    # a remainder.
    (u_row(-56, 101), u_row(-127, 1), "remainder"),
])
def test_exact_div_rejects_non_divisible(a, b, reason):
    # The lowest-monomial and span checks raise before any packing; the
    # certificate cases need the Mignotte cap to end.
    with pytest.raises(ExactDivisionError, match=reason):
        exact_div(a, b)


# (q, z) polynomials as {(q-degree, z-degree): coeff} maps, zeros left out.
qz_maps = st.dictionaries(exponent_pairs, st.integers(-9, 9).filter(bool), max_size=8)


def from_qz(m):
    return Poly2({(2 * dq, 2 * dz): c for (dq, dz), c in m.items()})


@given(qz_maps, st.integers(-4, 4), st.integers(-4, 4))
def test_qz_terms_reads_back_the_qz_map(m, q, z):
    p = from_qz(m)
    assert dict(qz_terms(p)) == m
    assert eval_qz(p, q, z) == sum(c * q**dq * z**dz for (dq, dz), c in m.items())


@given(qz_maps, exponent_pairs.filter(lambda e: e[0] % 2 or e[1] % 2), st.integers(1, 9))
def test_qz_terms_names_an_odd_exponent(m, odd, c):
    p = from_qz(m) + P({odd: c})
    for read in (lambda: list(qz_terms(p)), lambda: eval_qz(p, 1, 1)):
        with pytest.raises(ValueError, match=re.escape(f"({odd[0]}, {odd[1]})")):
            read()


@given(st.dictionaries(exponent_pairs, st.integers(-9, 9), max_size=10))
def test_constructor_drops_zero_coefficients(m):
    assert Poly2(m).terms == {e: c for e, c in m.items() if c}


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=8), st.integers(0, 5))
def test_q_dense_matches_the_constructor(coeffs, start):
    # The validating constructor is the oracle.
    p = poly.q_dense(list(coeffs), start)
    assert p == Poly2({(2 * (start + i), 0): c for i, c in enumerate(coeffs)})
    assert canonical(p)


def test_constructor_rejects_a_negative_exponent():
    for e in ((-1, 0), (0, -1), (-2, -2)):
        with pytest.raises(ValueError, match=re.escape(f"negative exponent {e}")):
            Poly2({(0, 0): 1, e: 1})


@given(polys, polys)
def test_eval_u1_is_ring_homomorphism(a, b):
    assert eval_u1(a + b) == eval_u1(a) + eval_u1(b)
    assert eval_u1(a * b) == eval_u1(a) * eval_u1(b)


@given(polys, polys)
def test_canonical_form_idempotent(a, b):
    for result in (a + b, a * b, a - b):
        assert Poly2(result.terms) == result
        assert all(c != 0 for c in result.terms.values())


def test_text_examples():
    lam3 = ONE - z_pow(1) - q_pow(1) * z_pow(1)
    assert to_text(lam3) == "1 - z - q*z"
    assert to_text(V * q_pow(1)) == "v*u^2"
    assert to_text(ZERO) == "0"
    assert to_text(Poly2.constant(-7)) == "-7"
    assert to_text(2 * q_pow(2) + 1) == "1 + 2*q^2"


def test_poly2_is_unhashable_like_ratfunc():
    # Poly2.constant(3) == 3, so no hash could agree with that equality.
    for value in (Poly2.constant(3), RatFunc(ONE)):
        with pytest.raises(TypeError):
            hash(value)


def reference_text(terms):
    """The documented text grammar, written out independently of `to_text`.

    Terms in graded-lex order on (u + v, u, v); the (q, z) view when every
    exponent is even, with factors q then z, else factors v then u; `^e`
    only for e > 1; a unit coefficient dropped except on a constant term;
    the first sign attached to its term, later ones joined by " + " / " - ".
    """
    if not terms:
        return "0"
    qz = all(eu % 2 == 0 and ev % 2 == 0 for eu, ev in terms)
    out = ""
    for eu, ev in sorted(terms, key=lambda e: (e[0] + e[1], e[0], e[1])):
        c = terms[(eu, ev)]
        factors = [("q", eu // 2), ("z", ev // 2)] if qz else [("v", ev), ("u", eu)]
        body = "*".join(name + (f"^{e}" if e > 1 else "") for name, e in factors if e > 0)
        word = body if body and abs(c) == 1 else str(abs(c)) + ("*" + body if body else "")
        if not out:
            out = ("-" if c < 0 else "") + word
        else:
            out += (" - " if c < 0 else " + ") + word
    return out


def reference_rows(terms):
    """[z_exp, q_exp, coeff] rows of the JSON form, in the text's term order."""
    qz = all(eu % 2 == 0 and ev % 2 == 0 for eu, ev in terms)
    d = 2 if qz else 1
    return [[ev // d, eu // d, str(terms[(eu, ev)])]
            for eu, ev in sorted(terms, key=lambda e: (e[0] + e[1], e[0], e[1]))]


text_coeffs = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9),
                        st.integers(-2**200, 2**200)).filter(bool)


# Sparse terms with exponents up to 10**6, whose `_view` sort keys
# (u + v) * span + u run to about 10**12.
wide_exponent_pairs = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))


@st.composite
def printable_term_maps(draw):
    """Term maps with only even exponents, or with at least one odd one;
    half of them hold a constant term."""
    pairs = draw(st.sampled_from([exponent_pairs, wide_exponent_pairs]))
    terms = draw(st.dictionaries(pairs, text_coeffs, max_size=8))
    if draw(st.booleans()):
        terms[(0, 0)] = draw(text_coeffs)
    if draw(st.booleans()):
        return {(2 * eu, 2 * ev): c for (eu, ev), c in terms.items()}
    odd = draw(exponent_pairs.filter(lambda e: e[0] % 2 or e[1] % 2))
    return {**terms, odd: draw(text_coeffs)}


@st.composite
def one_row_term_maps(draw):
    """One row, which `_view` prints in its stored order with no sort: a
    v-exponent, a low, a step of 1 to 4 and up to 8 terms with zeros between
    them, all exponents even or not; constants and one-term rows included."""
    ev, lo, step = draw(st.integers(0, 5)), draw(st.integers(0, 9)), draw(st.integers(1, 4))
    coeffs = draw(st.lists(st.one_of(st.just(0), text_coeffs), min_size=1, max_size=8))
    if draw(st.booleans()):
        ev, lo, step = 2 * ev, 2 * lo, 2 * step
    return {(lo + i * step, ev): c for i, c in enumerate(coeffs) if c}


@example({})
@example({(0, 0): 1})
@example({(0, 0): -1})
@example({(0, 0): -3, (2, 0): 1, (0, 2): -1})
@example({(1, 0): -1, (0, 1): 1})
@example({(2, 2): -1, (4, 0): -5})
@example({(6, 4): -1})
@example({(3, 1): 1})
@example({(4, 2): 2, (12, 2): -1, (20, 2): 5})
@example({(1, 3): 1, (4, 3): -1, (7, 3): 2})
# `to_text` fixes signs and unit coefficients by replacing " + -" and " 1*"
# in the joined text: coefficients 1 and -1 before and after q^11*z, 11 and
# 21 (whose last digit is 1), a lone -1, and a negative constant first.
@example({(20, 2): 1, (22, 2): 1, (24, 2): -1})
@example({(20, 2): -1, (22, 2): -1, (24, 2): 1})
@example({(0, 2): 11, (22, 2): -11, (2, 4): 21, (0, 6): -21})
@example({(0, 0): -1, (22, 2): 1})
@example({(0, 0): -11, (2, 0): -1, (0, 2): 1, (1, 1): -1})
# A row is rendered by one `%` over all its terms, and its terms at
# exponents 0 and 1 again: rows of several terms with +-1 at both, in either
# view; a zero at exponent 1 beside nonzero terms at 0 and 2; coefficients
# near 2**200 inside one row; zeros inside rows; odd (u, v) steps.
@example({(0, 0): 1, (2, 0): -1, (4, 0): 1, (0, 2): -1, (2, 2): 1, (4, 2): -1})
@example({(0, 1): 1, (1, 1): -1, (2, 1): 1, (0, 0): -1, (1, 0): 1, (3, 0): -1})
@example({(0, 0): 1, (4, 0): 2, (6, 0): 1, (0, 1): -1, (2, 1): 5, (3, 1): -1})
@example({(0, 2): BIG, (2, 2): 1 - BIG, (4, 2): BIG - 1, (6, 2): -1, (8, 2): -BIG})
@example({(0, 2): 3, (6, 2): -1, (8, 2): 1, (2, 4): 1, (14, 4): -1})
@example({(1, 1): 2, (4, 1): -1, (7, 1): 1, (0, 3): 1, (3, 3): 1, (6, 3): -1})
@example({(1, 0): -1, (6, 0): 1, (11, 0): 1})
@given(st.one_of(printable_term_maps(), one_row_term_maps()))
def test_text_and_json_follow_the_documented_grammar(terms):
    p = Poly2(terms)
    assert to_text(p) == reference_text(terms)
    variables = "uv" if any(eu % 2 or ev % 2 for eu, ev in terms) else "qz"
    assert to_json(p) == json.dumps({"vars": variables, "terms": reference_rows(terms)})
    obj = to_json_obj(p)
    assert obj["vars"] == variables
    assert obj["terms"] == reference_rows(terms)


def test_text_of_many_pieces_matches_the_grammar():
    # More terms than one piece of `to_text`, with signs and unit
    # coefficients on both sides of every piece boundary.
    terms = {(2 * i, 2 * (i % 3)): (-1) ** (i // 2) * (1 + i % 4 // 3 * 10)
             for i in range(3 * poly._PIECE + 5)}
    p = Poly2(terms)
    assert to_text(p) == reference_text(terms)
    assert to_json(p) == json.dumps({"vars": "qz", "terms": reference_rows(terms)})


@st.composite
def many_row_term_maps(draw):
    """Two to eight rows, which `_view` hands out one band of total degree at
    a time: each row at its own v-exponent, with a low of 0 to 12 (so terms
    at exponents 0 and 1 in any row), a step of 1 to 4, zeros inside it and
    coefficients of either sign; all exponents even or not."""
    terms = {}
    for ev in draw(st.sets(st.integers(0, 12), min_size=2, max_size=8)):
        lo, step = draw(st.integers(0, 12)), draw(st.integers(1, 4))
        coeffs = draw(st.lists(st.one_of(st.just(0), text_coeffs), min_size=1, max_size=12))
        terms.update({(lo + i * step, ev): c for i, c in enumerate(coeffs) if c})
    if draw(st.booleans()):
        return {(2 * eu, 2 * ev): c for (eu, ev), c in terms.items()}
    return terms


@pytest.mark.parametrize("piece", [poly._PIECE, 3])
@example({(0, 0): 1, (1, 1): -1, (0, 3): 2, (1, 3): -1, (9, 3): 1})
@example({(0, 0): -1, (0, 2): 1, (2, 2): -1, (4, 4): 1, (0, 6): 1, (2, 6): 11})
@example({(3, 0): 5, (9, 0): -1, (0, 5): 1, (1, 5): 1, (20, 1): -7, (4, 2): 1})
@given(many_row_term_maps())
def test_bands_of_many_rows_follow_the_grammar(piece, terms):
    # Checked against a reference that sorts every term on (u + v, u), also
    # with pieces of 3 terms, so that bands of about 3 terms and pieces cross.
    with mock.patch.object(poly, "_PIECE", piece):
        p = Poly2(terms)
        assert to_text(p) == reference_text(terms)
        variables = "uv" if any(eu % 2 or ev % 2 for eu, ev in terms) else "qz"
        assert to_json(p) == json.dumps({"vars": variables, "terms": reference_rows(terms)})


def test_printing_holds_a_band_not_the_whole_output():
    # lam(150) prints 4.8 MB of JSON.  With pieces and bands of 1024 terms
    # the memory printing takes beyond the polynomial is bounded by a few
    # pieces, well under a quarter of the output; holding every rendered
    # term until the end would take about three times the output.
    lam = lehmer.lambda_sum(150)
    size = 0

    def discard(piece):
        nonlocal size
        size += len(piece)

    with mock.patch.object(poly, "_PIECE", 1024):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            to_json(lam, discard)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert size == len(to_json(lam))
    assert peak < size / 4, (peak, size)


def test_lambda_40_prints_as_the_grammar_says():
    # lam(40): 21 z-rows of up to 210 terms each, coefficients of up to 33
    # bits, +-1 at both ends of most rows.
    lam = list(lambdas(40))[-1]
    terms = lam.terms
    assert to_text(lam) == reference_text(terms)
    assert to_json(lam) == json.dumps({"vars": "qz", "terms": reference_rows(terms)})


WRITTEN = {"zero": ZERO, "one": ONE, "-v": -V, "lam(12)": list(lambdas(12))[-1],
           "three pieces": Poly2({(2 * i, 2 * (i % 3)): i - 7 for i in range(3 * poly._PIECE)})}


@pytest.mark.parametrize("render", [to_text, to_json])
@pytest.mark.parametrize("p", WRITTEN.values(), ids=WRITTEN)
def test_written_pieces_join_to_the_returned_form(render, p):
    pieces = []
    assert render(p, pieces.append) is None
    assert "".join(pieces) == render(p)
    assert all(pieces)
