"""Layer spans for the qlehmer package, recorded from outside its source.

`install()` replaces the public functions listed in `SPANS` with timing
wrappers.  A module that did `from .poly import exact_div` holds its own
reference, and `Poly2.__rmul__` is a class alias of `__mul__`, so every
reference is swapped: each qlehmer module namespace and each qlehmer class
dictionary is scanned for the original function objects.

A span that is entered while a span of the same name is innermost is not
recorded again.  So `a - b` counts as one `poly.add` call even though
`Poly2.__sub__` calls `__neg__` and `__add__`.  Self time is a span's
duration minus the time covered by its child spans.  Counting that needs
the operands (term counts, identical pairs) runs outside every span and is
charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

MODULES = ("qlehmer", "qlehmer.poly", "qlehmer.qcomb", "qlehmer.lehmer",
           "qlehmer.linalg", "qlehmer.series", "qlehmer.cli")

# Marks the one stderr line on which a traced child reports its spans.
TRACE_MARK = "@@qlehmer-trace "

# span name -> (module, qualified names of the functions it records)
SPANS = {
    "poly.mul": ("qlehmer.poly", ("Poly2.__mul__", "Poly2.__rmul__")),
    "poly.add": ("qlehmer.poly", ("Poly2.__add__", "Poly2.__radd__", "Poly2.__sub__",
                                  "Poly2.__rsub__", "Poly2.__neg__")),
    "poly.exact_div": ("qlehmer.poly", ("exact_div",)),
    "poly.ratfunc_eq": ("qlehmer.poly", ("ratfunc_eq",)),
    "poly.ratfunc": ("qlehmer.poly", ("RatFunc.__add__", "RatFunc.__radd__", "RatFunc.__sub__",
                                      "RatFunc.__rsub__", "RatFunc.__mul__", "RatFunc.__rmul__",
                                      "RatFunc.__truediv__", "RatFunc.__neg__")),
    "poly.format": ("qlehmer.poly", ("to_text", "to_json_obj", "ratfunc_to_json_obj")),
    "qcomb.poch_qq": ("qlehmer.qcomb", ("poch_qq",)),
    "qcomb.gauss_product": ("qlehmer.qcomb", ("gauss_product",)),
    "lehmer.lambda_rec": ("qlehmer.lehmer", ("lambda_rec",)),
    "lehmer.closed_factors": ("qlehmer.lehmer", ("closed_factors",)),
    "lehmer.factors_eq": ("qlehmer.lehmer", ("BandedFactors.__eq__",)),
    "linalg.lu_generic": ("qlehmer.linalg", ("lu_generic",)),
    "linalg.product_check": ("qlehmer.linalg", ("product_check",)),
    "linalg.det_cofactor": ("qlehmer.linalg", ("det_cofactor",)),
    "series.limit_det": ("qlehmer.series", ("limit_det",)),
    "series.invert_poch": ("qlehmer.series", ("invert_poch",)),
    "series.stabilization_check": ("qlehmer.series", ("stabilization_check",)),
    "series.dyck_count": ("qlehmer.series", ("dyck_count",)),
    "cli.main": ("qlehmer.cli", ("main",)),
}


def _nterms(p) -> int:
    if isinstance(p, int):
        return 1 if p else 0
    return len(p.terms)


def _coeff_bits(p) -> int:
    return max((abs(c).bit_length() for c in p.terms.values()), default=0)


def _count_mul(tracer, args, result):
    na, nb = _nterms(args[0]), _nterms(args[1])
    tracer.counts["poly.mul.term_pairs"] += na * nb
    if min(na, nb) == 1:
        tracer.counts["poly.mul.monomial_calls"] += 1


def _count_exact_div(tracer, args, result):
    tracer.counts["poly.exact_div.quot_terms"] += _nterms(result)


def _count_ratfunc_eq(tracer, args, result):
    a, b = args
    if a.num == b.num and a.den == b.den:
        tracer.counts["poly.ratfunc_eq.identical_calls"] += 1


def _count_format(tracer, args, result):
    value = args[0]
    polys = (value.num, value.den) if hasattr(value, "den") else (value,)
    for p in polys:
        tracer.counts["cli.out_terms"] += _nterms(p)
        tracer.maxima["cli.out_coeff_bits"] = max(tracer.maxima["cli.out_coeff_bits"],
                                                  _coeff_bits(p))


COUNTERS = {
    "poly.mul": _count_mul,
    "poly.exact_div": _count_exact_div,
    "poly.ratfunc_eq": _count_ratfunc_eq,
    "poly.format": _count_format,
}


class Tracer:
    """Per-span call counts and self times, plus operand counts, kept in memory."""

    def __init__(self):
        self._stack = [["", 0.0]]  # [span name, time covered by child spans]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    def wrap(self, name, fn):
        stack = self._stack
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
            if count is not None:
                start = time.perf_counter()
                count(self, args, result)
                stack[-1][1] += time.perf_counter() - start
            return result

        return wrapper

    def report(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "maxima": dict(self.maxima)}


def _resolve(module, qualname):
    obj = module
    for part in qualname.split("."):
        obj = vars(obj)[part]
    return obj


def install() -> Tracer:
    """Import qlehmer, wrap every function in SPANS at every reference, and
    return the tracer that records their calls."""
    tracer = Tracer()
    modules = [importlib.import_module(name) for name in MODULES]
    wrappers = {}  # id(original) -> wrapper
    for name, (module_name, qualnames) in SPANS.items():
        module = importlib.import_module(module_name)
        for qualname in qualnames:
            fn = _resolve(module, qualname)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = tracer.wrap(name, fn)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
            elif isinstance(value, type) and value.__module__.startswith("qlehmer"):
                for cattr, cvalue in list(vars(value).items()):
                    if id(cvalue) in wrappers:
                        setattr(value, cattr, wrappers[id(cvalue)])
    return tracer
