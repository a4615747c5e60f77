"""q-Pochhammer and Gaussian binomials: both routes against each other and
against the ordinary binomial at q = 1."""

import math

import pytest

from qlehmer import qcomb
from qlehmer.poly import ONE, ZERO, Poly2, eval_qz, eval_u1, q_pow, qz_terms
from qlehmer.qcomb import gauss_pascal, gauss_product, poch_qq


def q_poly(coeffs):
    """Polynomial in q from an ascending coefficient list."""
    return Poly2({(2 * d, 0): c for d, c in enumerate(coeffs) if c})


class TestPochhammer:
    def test_empty_product(self):
        assert poch_qq(0) == ONE

    def test_first_factor(self):
        assert poch_qq(1) == ONE - q_pow(1)

    def test_k3_expansion(self):
        # (1-q)(1-q^2)(1-q^3) expanded
        assert poch_qq(3) == q_poly([1, -1, -1, 0, 1, 1, -1])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            poch_qq(-1)


@pytest.mark.parametrize("lo", range(1, 9))
def test_run_product_matches_the_product_of_its_factors(lo):
    # hi runs from below lo (the empty product) to lo + 12.
    expected = ONE
    for hi in range(lo - 2, lo + 13):
        if hi >= lo:
            expected = expected * (ONE - q_pow(hi))
        # Row-map equality: the dense list is stored in canonical form.
        assert qcomb._run_product(lo, hi) == expected, (lo, hi)


class TestGaussProduct:
    def test_4_choose_2(self):
        assert gauss_product(4, 2) == q_poly([1, 1, 2, 1, 1])

    def test_k_zero(self):
        for n in range(8):
            assert gauss_product(n, 0) == ONE

    def test_out_of_range(self):
        assert gauss_product(3, 5) == ZERO
        assert gauss_product(3, -1) == ZERO

    def test_divides_by_the_shorter_pochhammer_only(self, monkeypatch):
        orders = []

        def recording(k):
            orders.append(k)
            return poch_qq(k)

        monkeypatch.setattr(qcomb, "poch_qq", recording)
        gauss_product(80, 60)
        gauss_product(80, 20)
        assert set(orders) == {20}

    @pytest.mark.parametrize("n, k", [(64, 30), (80, 20), (80, 60), (100, 50)])
    def test_integer_product_past_the_pascal_range(self, n, k):
        # [n k] at an integer q is the integer prod_{i<=k} (q^(n-k+i)-1)/(q^i-1).
        g = gauss_product(n, k)
        for q in (2, -3):
            num = den = 1
            for i in range(1, k + 1):
                num *= q ** (n - k + i) - 1
                den *= q ** i - 1
            assert num % den == 0
            assert eval_qz(g, q, 1) == num // den, (n, k, q)


class TestGaussPascal:
    def test_4_choose_2(self):
        assert gauss_pascal(4, 2) == q_poly([1, 1, 2, 1, 1])

    def test_diagonal_base_case(self):
        for n in range(8):
            assert gauss_pascal(n, n) == ONE

    def test_5_choose_2_at_q1(self):
        assert eval_qz(gauss_pascal(5, 2), 1, 1) == math.comb(5, 2)


def test_pascal_equals_product_up_to_32():
    for n in range(33):
        for k in range(-1, n + 2):
            assert gauss_pascal(n, k) == gauss_product(n, k), (n, k)


def test_symmetry_up_to_16():
    for n in range(17):
        for k in range(n + 1):
            assert gauss_product(n, k) == gauss_product(n, n - k)


def test_degree_and_positivity():
    for n in range(17):
        for k in range(n + 1):
            g = gauss_product(n, k)
            degrees = [d for d, _ in qz_terms(g)]
            assert max(dq for dq, _ in degrees) == k * (n - k), (n, k)
            assert all(dz == 0 for _, dz in degrees)
            assert all(c > 0 for c in g.terms.values())


def test_q1_specialization_is_binomial():
    for n in range(17):
        for k in range(n + 1):
            g = gauss_product(n, k)
            assert eval_u1(g) == Poly2.constant(math.comb(n, k))
            assert eval_qz(g, 1, 1) == math.comb(n, k)
