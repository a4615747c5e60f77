"""Exact q-polynomial computations for the Lehmer tridiagonal matrix family,
with independent generic oracles cross-checking every closed form."""

__version__ = "0.1.0"
