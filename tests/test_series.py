"""Limit series, stabilization degrees, and the bounded-height Dyck check."""

import math
from itertools import accumulate, product

import pytest

from qlehmer import poly
from qlehmer.lehmer import lambda_rec
from qlehmer.poly import ONE, Poly2, qz_terms
from qlehmer.qcomb import poch_qq
from qlehmer.series import (
    dyck_count,
    dyck_gf_check,
    invert_poch,
    limit_det,
    stabilization_check,
)


def q_poly(coeffs):
    """Polynomial in q from an ascending coefficient list."""
    return Poly2({(2 * d, 0): c for d, c in enumerate(coeffs)})


class TestInvertPoch:
    def test_k0(self):
        assert invert_poch(0, 7) == ONE

    def test_geometric_series(self):
        assert invert_poch(1, 4) == q_poly([1, 1, 1, 1, 1])

    def test_k2(self):
        assert invert_poch(2, 3) == q_poly([1, 1, 2, 2])

    def test_certified_against_product(self):
        # Partition-counting series times its Pochhammer must be 1 mod q^(D+1).
        for k in range(11):
            for trunc in range(31):
                inv = invert_poch(k, trunc)
                product = inv * poch_qq(k)
                low = Poly2({e: c for e, c in product.terms.items()
                             if e[0] <= 2 * trunc})
                assert low == ONE, (k, trunc)

    def test_certificate_rejects_a_wrong_product(self, monkeypatch):
        # One coefficient of one stride pass off by one, below the part (the
        # check inv[d] == prev[d]) or at or above it (the check on
        # inv[d] - inv[d - part]); invert_poch(8, 30) keeps 31 terms.
        real = poly._divide_by_one_minus
        for part, d in [(1, 0), (1, 30), (2, 1), (3, 20), (7, 6), (7, 18), (8, 4), (8, 30)]:
            def off_by_one(a, k, part=part, d=d):
                real(a, k)
                if k == part:
                    a[d] += 1

            monkeypatch.setattr(poly, "_divide_by_one_minus", off_by_one)
            with pytest.raises(ArithmeticError):
                invert_poch(8, 30)


class TestLimitDet:
    def test_z0_coefficient(self):
        assert limit_det(3, 6)[0] == ONE

    def test_z1_coefficient(self):
        assert limit_det(2, 5)[1] == -q_poly([1, 1, 1, 1, 1, 1])

    def test_z2_coefficient(self):
        assert limit_det(2, 4)[2] == q_poly([0, 0, 1, 1, 2])

    def test_prefactor_beyond_truncation_gives_zero(self):
        # z^4 carries q^12; truncating at q-degree 10 leaves nothing.
        assert limit_det(4, 10)[4].is_zero

    def test_one_q_polynomial_per_z_power_within_the_truncation(self):
        for z_trunc in range(6):
            for q_trunc in (0, 1, 5, 12, 30):
                coeffs = limit_det(z_trunc, q_trunc)
                assert len(coeffs) == z_trunc + 1
                for c in coeffs:
                    for (dq, dz), _ in qz_terms(c):
                        assert dz == 0 and dq <= q_trunc, (z_trunc, q_trunc)


    def test_matches_the_certified_per_power_inverse(self):
        # Apart from the stride steps: each z^k coefficient, of q-degree at
        # most q_trunc, times (q;q)_k as `poch_qq` builds it, is
        # (-1)^k q^(k(k-1)) through q-degree q_trunc, which fixes it.
        poch = [poch_qq(k) for k in range(9)]
        for z_trunc in range(9):
            for q_trunc in range(61):
                coeffs = limit_det(z_trunc, q_trunc)
                for k, c in enumerate(coeffs):
                    shift = k * (k - 1)
                    expected = {} if shift > q_trunc else {(shift, 0): (-1) ** k}
                    low = {e: v for e, v in qz_terms(c * poch[k]) if e[0] <= q_trunc}
                    assert low == expected, (z_trunc, q_trunc, k)
                    assert all(dq <= q_trunc for (dq, _), _ in qz_terms(c))
                    assert Poly2(c.terms) == c  # stored in canonical form

    @pytest.mark.parametrize("part, d", [(1, 0), (1, 30), (2, 1), (3, 40), (7, 6), (7, 18),
                                         (8, 4)])
    def test_chained_certificate_rejects_a_wrong_step(self, monkeypatch, part, d):
        # One coefficient of one stride pass off by one, below the part (the
        # check inv_k[d] == inv_(k-1)[d]) or at or above it (the check on
        # inv_k[d] - inv_k[d - k]); at (8, 60) step k keeps 61 - k(k-1) terms.
        real = poly._divide_by_one_minus

        def off_by_one(a, k):
            real(a, k)
            if k == part:
                a[d] += 1

        monkeypatch.setattr(poly, "_divide_by_one_minus", off_by_one)
        with pytest.raises(ArithmeticError):
            limit_det(8, 60)


def test_limit_matches_finite_determinant_at_threshold():
    # Sharp certified threshold for (K, D) = (4, 10) is n = 12; the simpler
    # sufficient bound n = 2K + D = 18 must work as well, and n = 11 must not.
    # Both sides as {(q-degree, z-degree): coeff} maps through z^4 and q^10.
    target = {(dq, k): c for k, coeff in enumerate(limit_det(4, 10))
              for (dq, _), c in qz_terms(coeff)}

    def truncated(n):
        return {(dq, dz): c for (dq, dz), c in qz_terms(lambda_rec(n)) if dz <= 4 and dq <= 10}

    assert truncated(12) == target
    assert truncated(18) == target
    assert truncated(11) != target


class TestStabilization:
    def test_k0_exact(self):
        assert stabilization_check(6, 0) is None

    def test_k1_n6(self):
        assert stabilization_check(6, 1) == 4

    def test_k2_n8(self):
        assert stabilization_check(8, 2) == 4

    def test_rejects_absent_power(self):
        with pytest.raises(ValueError):
            stabilization_check(5, 3)

    def test_certified_threshold(self):
        # [n-k k]_q = (q^(n-2k+1); q)_k / (q;q)_k, so agreement is exactly
        # n - 2k; brute-force comparison over the window.  n = 2k is the
        # smallest truncation of the inverse, k(n-2k) + 1 = 1.
        for k in range(1, 13):
            for n in range(2 * k, 41):
                assert stabilization_check(n, k) == n - 2 * k, (n, k)

    def test_monotone_in_n(self):
        for k in range(1, 4):
            degrees = [stabilization_check(n, k) for n in range(2 * k, 21)]
            assert all(a <= b for a, b in zip(degrees, degrees[1:])), k
        assert all(stabilization_check(n, 0) is None for n in range(1, 21))


class TestDyckCount:
    def test_empty_path(self):
        for h in range(5):
            assert dyck_count(0, h) == 1

    def test_zigzag_only(self):
        assert dyck_count(3, 1) == 1

    def test_height_two(self):
        assert dyck_count(3, 2) == 4
        assert [dyck_count(m, 2) for m in range(6)] == [1, 1, 2, 4, 8, 16]

    def test_catalan_once_unconstrained(self):
        for m in range(9):
            catalan = math.comb(2 * m, m) // (m + 1)
            for h in range(m, 10):
                assert dyck_count(m, h) == catalan, (m, h)

    def test_monotone_in_height(self):
        for m in range(9):
            counts = [dyck_count(m, h) for h in range(10)]
            assert all(a <= b for a, b in zip(counts, counts[1:])), m

    def test_height_bound_above_half_length_changes_nothing(self):
        # A path of half-length m never rises above m, so only min(h, m)
        # heights are tracked; a bound of 10^7 must not cost 10^7 of them.
        assert dyck_count(3, 10**7) == 5
        for m in range(8):
            for h in range(m + 1, m + 4):
                assert dyck_count(m, h) == dyck_count(m, m), (m, h)

    def test_height_zero_admits_only_the_empty_path(self):
        for m in range(1, 6):
            assert dyck_count(m, 0) == 0

    def test_matches_every_step_sequence_up_to_half_length_6(self):
        # Brute force over all 2^(2m) sequences of +-1 steps.
        for m in range(7):
            heights = [list(accumulate(steps)) for steps in product((1, -1), repeat=2 * m)]
            for h in range(m + 2):
                paths = sum(1 for hs in heights
                            if (not hs or hs[-1] == 0) and all(0 <= y <= h for y in hs))
                assert dyck_count(m, h) == paths, (m, h)


class TestDyckGf:
    def test_height_zero_edge(self):
        assert dyck_gf_check(0, 3)

    def test_height_one_validation(self):
        assert dyck_gf_check(1, 6)

    def test_heights_up_to_6(self):
        for h in range(7):
            assert dyck_gf_check(h, 8), h
