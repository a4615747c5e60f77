"""Exact q-polynomial computations for the Lehmer tridiagonal matrix family,
with independent generic oracles cross-checking every closed form."""

from .poly import (
    ONE,
    ZERO,
    ExactDivisionError,
    Poly2,
    RatFunc,
    eval_qz,
    eval_u1,
    exact_div,
    q_pow,
    q_poly,
    qz_terms,
    ratfunc_eq,
    to_text,
    z_pow,
)
from .qcomb import gauss_pascal, gauss_product, poch_qq
from .lehmer import (
    BandedFactors,
    TriMatrix,
    closed_factors,
    lambda_rec,
    lambda_sum,
    lambdas,
    lehmer_matrix,
)
from .linalg import (
    ZeroPivotError,
    det_bareiss,
    det_cofactor,
    lu_generic,
    product_check,
)
from .series import (
    Series2,
    dyck_count,
    dyck_gf_check,
    invert_poch,
    limit_det,
    series_from_poly,
    stabilization_check,
)

__version__ = "0.1.0"
