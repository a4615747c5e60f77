"""The infinite-size limit of the Lehmer determinant, and its two checks.

As n grows, det M(n) stabilizes coefficient-wise to the q-series

    sum over k >= 0 of  (-1)^k q^(k(k-1)) z^k / (q;q)_k,

represented here, truncated at z-degree K and q-degree D, as the tuple of
its K + 1 coefficients of z^0..z^K, each a q-polynomial of degree at most D
in the half-power carrier of `qlehmer.poly`.  Every inverse 1/(q;q)_k is
built by certified stride steps, one per part (`poly._certified_step`).
`stabilization_check` measures, for one z-power at a time, through which
q-degree the finite determinant already agrees with the limit; the answer
is exactly n - 2k for k >= 1, because [n-k k]_q = (q^(n-2k+1); q)_k /
(q;q)_k and the numerator is 1 - q^(n-2k+1) + O(q^(n-2k+2)).

At q = 1 the pivot ratios become the generating functions of Dyck paths of
bounded height: the series expansion of lam(h)/lam(h+1) in z counts paths of
half-length m whose height never exceeds h, with height the maximum level
reached and z marking half-length (number of up-steps).  This is the
continued-fraction theory of Flajolet (1980), "Combinatorial aspects of
continued fractions": the height-h truncation of 1/(1 - z/(1 - z/(1 - ...)))
is a ratio of consecutive lam(., q=1) polynomials.  `dyck_gf_check` tests it
against the exhaustive DP oracle `dyck_count`.

Each function imports the package modules it uses when it runs, since every
CLI command starts a fresh interpreter: `dyck_count` loads none of them,
`limit_det` and `invert_poch` only `poly`, `stabilization_check` also
`qcomb`.  So `Poly2` in the annotations names `qlehmer.poly.Poly2`.
"""

from __future__ import annotations

from collections import deque
from operator import add, neg


def invert_poch(k: int, trunc: int) -> Poly2:
    """Power-series inverse of (q;q)_k truncated at q-degree `trunc`: the
    product over parts i <= k of 1/(1 - q^i), the generating function of
    partitions into parts <= k, by one certified step per part."""
    from .poly import _certified_step, q_dense

    if k < 0 or trunc < 0:
        raise ValueError("arguments must be nonnegative")
    inv = [1] + [0] * trunc
    for part in range(1, k + 1):
        inv = _certified_step(inv, part)
    return q_dense(inv, 0)


def limit_det(z_trunc: int, q_trunc: int) -> tuple[Poly2, ...]:
    """The limit determinant truncated at (z_trunc, q_trunc), as the tuple of
    its coefficients of z^0..z^z_trunc: the z^k one is (-1)^k q^(k(k-1)) /
    (q;q)_k through q-degree q_trunc, and zero once k(k-1) > q_trunc.

    One list runs through the z-powers: inv_k = 1/(q;q)_k is one certified
    step from inv_(k-1), cut to the q_trunc - k(k-1) + 1 coefficients that
    z^k needs.
    """
    from .poly import ONE, ZERO, _certified_step, q_dense

    if z_trunc < 0 or q_trunc < 0:
        raise ValueError("truncation orders must be nonnegative")
    coeffs = [ONE]
    inv = [1] + [0] * q_trunc
    for k in range(1, z_trunc + 1):
        shift = k * (k - 1)
        if shift > q_trunc:
            coeffs.append(ZERO)
            continue
        inv = _certified_step(inv[:q_trunc - shift + 1], k)
        # Partitions of d into parts <= k exist for every d, so no zero.
        coeffs.append(q_dense(list(map(neg, inv)) if k % 2 else inv, shift))
    return tuple(coeffs)


def stabilization_check(n: int, k: int) -> int | None:
    """Largest d such that the z^k coefficient of det M(n) agrees with the
    limit coefficient modulo q^(d+1).

    Both coefficients carry the same (-1)^k q^(k(k-1)) prefactor, so the
    comparison strips it: Gaussian binomial [n-k k] against the series
    1/(q;q)_k truncated at q-degree k(n-2k) + 1, one above the degree of
    [n-k k].  For k = 0 the two sides are identically 1 and no finite
    largest d exists; None encodes that exact agreement.
    """
    from .poly import qz_terms
    from .qcomb import gauss_product

    if k < 0:
        raise ValueError("z-power must be nonnegative")
    if 2 * k > n:
        raise ValueError(f"z^{k} is absent from the order-{n} determinant")
    if k == 0:
        return None
    # [n-k k]_q has degree k(n-2k), so its coefficient at q-degree
    # trunc = k(n-2k) + 1 is 0, while that of 1/(q;q)_k counts the partitions
    # of trunc into parts <= k: at least one, all parts 1.  So the two sides
    # differ at or below trunc, and the lowest q-degree of the difference is
    # the first at which they differ.
    trunc = k * (n - 2 * k) + 1
    diff = gauss_product(n - k, k) - invert_poch(k, trunc)
    return min(dq for (dq, _), _ in qz_terms(diff)) - 1


def dyck_count(m: int, h: int) -> int:
    """Dyck paths of half-length m whose height never exceeds h, counted by
    exhaustive dynamic programming over (step, current height).

    This is the oracle side of the generating-function check, so it stays
    deliberately free of any series machinery.  A path of half-length m has
    m up-steps, so it never rises above height m; a bound h > m therefore
    counts the same paths as h = m, and the DP runs over min(h, m) + 1
    heights.
    """
    if m < 0 or h < 0:
        raise ValueError("arguments must be nonnegative")
    ways = [1] + [0] * min(h, m)  # ways[y]: paths so far that end at height y
    for _ in range(2 * m):  # one step up from y - 1 or down from y + 1
        ways = list(map(add, [0, *ways[:-1]], [*ways[1:], 0]))
    return ways[0]


def _z_coeff_list(p: Poly2, upto: int) -> list[int]:
    """Dense z-coefficient list, through z^upto, of a polynomial in z alone."""
    from .poly import qz_terms

    out = [0] * (upto + 1)
    for (dq, dz), c in qz_terms(p):
        if dq:
            raise ValueError("not a polynomial in z alone")
        if dz <= upto:
            out[dz] = c
    return out


def dyck_gf_check(h: int, m_max: int) -> bool:
    """True iff the z-expansion of lam(h)/lam(h+1) at q = 1 matches the DP
    path counts dyck_count(m, h) for every half-length m <= m_max."""
    from .lehmer import lambdas
    from .poly import eval_u1

    if h < 0 or m_max < 0:
        raise ValueError("arguments must be nonnegative")
    lam_h, lam_next = deque(lambdas(h + 1), maxlen=2)
    num = _z_coeff_list(eval_u1(lam_h), m_max)
    den = _z_coeff_list(eval_u1(lam_next), m_max)
    # Series division: the denominator has constant term 1.
    expansion = [0] * (m_max + 1)
    for m in range(m_max + 1):
        acc = num[m]
        for i in range(1, m + 1):
            acc -= den[i] * expansion[m - i]
        expansion[m] = acc
    return all(expansion[m] == dyck_count(m, h) for m in range(m_max + 1))
