"""Command-line surface: every computation behind one executable.

Output is deterministic (identical bytes for identical arguments).  Exit
codes: 0 success or all checks passed, 1 a verification check failed,
2 usage error (argparse's own convention).

`lambda` prints lam(j) from the closed sum (`lehmer.lambda_sum`) and `det`
prints det M(n) from the recursion (`lehmer.lambda_rec`): the same bytes by
two routes that share no code, which `verify` checks against each other.

Each verb imports the modules it runs when it runs, and none imports `json`
(`poly.to_json` writes the JSON form itself): every command starts a fresh
interpreter, and for the small ones importing more would cost more than the
work.  So `qlehmer --help` loads no module of the package besides this
one, `qbinom` none of `lehmer`, `linalg` or `series`, `dyck` only `series`,
and `limit` neither `lehmer` nor `qcomb`.
"""

from __future__ import annotations

import argparse
import sys


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


# Largest sizes the verbs accept; larger ones are refused with exit 2 before
# any work starts.  Times and peak memory are from a shared 2-core host.
#
# `verify`: the checks cost about n^6.  Most pairs share a denominator (see
# `qlehmer.poly`), so the time goes into two lam(j-1) * lam(j) products per
# sub-diagonal entry of L*U: `verify 40` takes 0.9 to 1.2 s, `verify 48`
# 3.1 to 4.2 s, `verify 52` 5.1 to 7.9 s and 23 MB, and `verify 56` 12 to
# 13 s and 25 MB.
VERIFY_MAX_N = 52
# `det` and `lambda` print lam(n) by two routes, both written in pieces of
# 16384 terms, one band of total degree rendered at a time (`poly.to_json`
# and `poly.to_text` given `sys.stdout.write`), never as one string.  Peaks
# from wait4 on a shared 2-core host, CPython 3.11.
#
# `det`: the recursion keeps two lam's at a time, so time grows about as n^4
# (lam(n) has about n^3/24 terms and each of the n steps passes over them)
# and memory as n^3.  Time binds: `det 212 --json` takes 1.7 to 2.3 s and
# peaks at 78 MB.
DET_MAX_N = 212
# `lambda`: the closed sum builds lam(j) in O(j^3) stride passes, so printing
# its terms takes most of the time and computing lam(j) sets the peak (about
# 72 MB at j = 300).  `lambda 212` takes 0.75 s and 43 MB in either form;
# `lambda 300` 1.9 s with --json and 2.1 s in text, 86 MB, leaving more
# than half of the 250 MB peak that CI allows as margin.
LAMBDA_MAX_N = 300
# `lu`: prints every lam(j), j < n, three times (a numerator of U and two
# denominators), so its output outgrows `det`'s, but renders it twice: on
# U's diagonal a denominator reuses the previous numerator's form.  It is
# written in pieces, and the factors share their coefficient tuples with
# the lam table.  Time binds first, most of it printing: `lu 88` takes 1.9
# to 2.0 s and 50 MB in text form and 1.3 to 1.8 s and 50 to 51 MB with
# --json.
LU_MAX_N = 88
# `qbinom`: one exact division of a k-factor product by (q;q)_k, k <= n/2;
# the worst k is n/2, where `qbinom 176 88` takes 3.0 s and 20 MB and
# `qbinom 200 100` 8.3 s and 22 MB.
QBINOM_MAX_N = 200
# `stabilize`: computes [n-k k]_q like `qbinom`, so the worst k lies between
# n/4 and n/3; `stabilize 220 62` takes 2.2 s and `stabilize 290 97` 4.6 to
# 4.9 s and 22 MB.  Above n = 292 the largest quotient coefficients need one
# more width doubling in `exact_div`, so its division runs on digits twice as
# wide: `stabilize 300 85` takes 18 s.
STABILIZE_MAX_N = 290
# `limit`: one stride pass per z-power over at most qdeg + 1 partition
# counts, and z^k is zero once k(k-1) > qdeg, so printing dominates.  Both
# forms are written one coefficient at a time: `limit --zdeg 60 --qdeg
# 10000` takes 0.4 to 0.5 s and 46 MB in either form (23.5 MB of text).
LIMIT_MAX_ZDEG = 60
LIMIT_MAX_QDEG = 10000
# `dyck`: 2m steps over min(m, h) + 1 heights of growing counts; `dyck 3600
# 3600` takes 3.5 to 4.5 s, `dyck 4000 4000` 5.3 to 5.5 s.
DYCK_MAX_M = 3600
# `matrix`: builds all 3n - 2 entries and prints them; `matrix 300000` takes
# 5 to 7.5 s and 140 MB in either form.
MATRIX_MAX_N = 300000


def _capped(parse, cap: int, verb: str, arg: str, why: str):
    """An argparse type: `parse`, then refuse values of `arg` above `cap`."""
    def size(text: str) -> int:
        value = parse(text)
        if value > cap:
            raise argparse.ArgumentTypeError(
                f"{verb} is limited to {arg} <= {cap} ({why}), got {text}")
        return value
    size.__name__ = parse.__name__  # argparse names the type in its messages
    return size


def _print_poly(value, as_json: bool) -> None:
    """Write the polynomial's text or JSON form and a newline, in pieces."""
    from .poly import to_json, to_text

    (to_json if as_json else to_text)(value, sys.stdout.write)
    sys.stdout.write("\n")


def _write_joined(parts) -> None:
    """Write `", ".join(parts)` to stdout in pieces of about 64 KB: the whole
    string is never built, and tiny parts do not cost one write each."""
    piece, size, sep = [], 0, ""
    for part in parts:
        piece.append(part)
        size += len(part)
        if size >= 1 << 16:
            sys.stdout.write(sep + ", ".join(piece))
            piece, size, sep = [], 0, ", "
    if piece:
        sys.stdout.write(sep + ", ".join(piece))


def _print_bands(n: int, bands, as_json: bool) -> None:
    """Print `n` and the (key, rendered entries) pairs of `bands`.

    The output is several times the size of the entries it renders, so it is
    written in pieces; the bytes are those of `json.dumps` on the whole
    object, or of one "key: a, b, ..." line per band.
    """
    if as_json:
        head, band, close, tail = f'{{"n": {n}', ', "{}": [', "]", "}\n"
    else:
        head, band, close, tail = f"n: {n}\n", "{}: ", "\n", ""
    sys.stdout.write(head)
    for key, forms in bands:
        sys.stdout.write(band.format(key))
        _write_joined(forms)
        sys.stdout.write(close)
    sys.stdout.write(tail)


def _cmd_matrix(args) -> int:
    from . import lehmer
    from .poly import to_json, to_text

    m = lehmer.lehmer_matrix(args.n)
    render = to_json if args.json else to_text
    _print_bands(m.n, (("diag", map(render, m.diag)), ("super", map(render, m.superdiag)),
                       ("sub", map(render, m.subdiag))), args.json)
    return 0


def _cmd_det(args) -> int:
    """`det n`: det M(n) by the three-term recursion (`lehmer.lambda_rec`)."""
    from . import lehmer

    _print_poly(lehmer.lambda_rec(args.n), args.json)
    return 0


def _cmd_lambda(args) -> int:
    """`lambda j`: lam(j) from the closed sum (`lehmer.lambda_sum`), which
    shares no code with `det`'s recursion and prints the same bytes."""
    from . import lehmer

    _print_poly(lehmer.lambda_sum(args.n), args.json)
    return 0


def _fractions(entries, render, fraction):
    """Yield `fraction(render(r.num), render(r.den))` for each RatFunc r.

    A denominator that is the previous entry's numerator object, as on U's
    diagonal (lam(j)/lam(j-1) follows lam(j-1)/lam(j-2)), reuses its form,
    so `lu` renders each lam(j) twice, not three times.
    """
    num = num_form = None
    for r in entries:
        den_form = num_form if r.den is num else render(r.den)
        num, num_form = r.num, render(r.num)
        yield fraction(num_form, den_form)


def _cmd_lu(args) -> int:
    from . import lehmer
    from .poly import to_json, to_text

    f = lehmer.closed_factors(args.n)
    if args.json:  # the bytes of `json.dumps(ratfunc_to_json_obj(r))` and of `str(r)`
        render, fraction = to_json, '{{"num": {}, "den": {}}}'.format
    else:
        render, fraction = to_text, lambda num, den: num if den == "1" else f"({num})/({den})"
    _print_bands(f.n, (("u_diag", _fractions(f.u_diag, render, fraction)),
                       ("u_super", map(render, f.u_super)),
                       ("l_sub", _fractions(f.l_sub, render, fraction))), args.json)
    return 0


def _cmd_qbinom(args) -> int:
    from .qcomb import gauss_product

    _print_poly(gauss_product(args.n, args.k), args.json)
    return 0


def _cmd_limit(args) -> int:
    from . import series
    from .poly import to_json, to_text

    coeffs = series.limit_det(args.zdeg, args.qdeg)
    if args.json:
        # The bytes of json.dumps on the whole object, written in pieces.
        sys.stdout.write(f'{{"z_trunc": {args.zdeg}, "q_trunc": {args.qdeg}, "coeffs": [')
        _write_joined(map(to_json, coeffs))
        sys.stdout.write("]}\n")
    else:
        sys.stdout.writelines(f"z^{k}: {to_text(c)}\n" for k, c in enumerate(coeffs))
    return 0


def _cmd_stabilize(args) -> int:
    from . import series

    try:
        d = series.stabilization_check(args.n, args.k)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print("exact" if d is None else str(d))
    return 0


def _cmd_dyck(args) -> int:
    from . import series

    print(series.dyck_count(args.m, args.h))
    return 0


def _cmd_verify(args) -> int:
    from . import lehmer, linalg

    m = lehmer.lehmer_matrix(args.n)
    f = lehmer.closed_factors(args.n)
    det = lehmer.lambda_rec(args.n)
    lu_ok = linalg.lu_generic(m) == f
    product = linalg.product_check(f, m)
    # A failed product check names its first differing entry, 1-based.
    where = "" if product else " at entry ({}, {})".format(*(k + 1 for k in product.mismatch))
    checks = [
        ("lu_generic rediscovers closed factors", lu_ok, ""),
        ("product L*U equals matrix", product.ok, where),
        ("continuant det equals closed det", linalg.det_cofactor(m) == det, ""),
        ("closed sum equals recursion det", lehmer.lambda_sum(args.n) == det, ""),
    ]
    for name, ok, detail in checks:
        print(f"{name}: PASS" if ok else f"{name}: FAIL{detail}")
    return 0 if all(ok for _, ok, _ in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlehmer",
        description="Exact computations around the Lehmer tridiagonal determinant family.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def with_json(p):
        p.add_argument("--json", action="store_true", help="emit the JSON form")
        return p

    p = with_json(sub.add_parser("lambda", help="the determinant polynomial lam(j)"))
    p.add_argument("n", metavar="j", type=_capped(_nonneg_int, LAMBDA_MAX_N, "lambda", "n",
                                                  "its output grows about as n^3"))
    p.set_defaults(func=_cmd_lambda)

    p = with_json(sub.add_parser("matrix", help="the n x n Lehmer matrix bands"))
    p.add_argument("n", type=_capped(_positive_int, MATRIX_MAX_N, "matrix", "n",
                                     "it holds every entry in memory"))
    p.set_defaults(func=_cmd_matrix)

    p = with_json(sub.add_parser("det", help="closed-form determinant of M(n)"))
    p.add_argument("n", type=_capped(_positive_int, DET_MAX_N, "det", "n",
                                     "its time grows about as n^4"))
    p.set_defaults(func=_cmd_det)

    p = with_json(sub.add_parser("lu", help="closed-form LU factors of M(n)"))
    p.add_argument("n", type=_capped(_positive_int, LU_MAX_N, "lu", "n",
                                     "it prints every lam(j) three times"))
    p.set_defaults(func=_cmd_lu)

    p = sub.add_parser("verify", help="run the independent oracles against the closed forms")
    p.add_argument("n", type=_capped(_positive_int, VERIFY_MAX_N, "verify", "n",
                                     "its cost grows about as n^6"))
    p.set_defaults(func=_cmd_verify)

    p = with_json(sub.add_parser("qbinom", help="Gaussian q-binomial coefficient"))
    p.add_argument("n", type=_capped(_nonneg_int, QBINOM_MAX_N, "qbinom", "n",
                                     "its cost grows about as n^5"))
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_qbinom)

    p = with_json(sub.add_parser("limit", help="the infinite-size limit determinant series"))
    p.add_argument("--zdeg", required=True, help="z truncation order",
                   type=_capped(_nonneg_int, LIMIT_MAX_ZDEG, "limit", "--zdeg",
                                "each z^k inverts (q;q)_k"))
    p.add_argument("--qdeg", required=True, help="q truncation order",
                   type=_capped(_nonneg_int, LIMIT_MAX_QDEG, "limit", "--qdeg",
                                "each z^k line holds qdeg + 1 terms"))
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("stabilize", help="q-degree through which det M(n) agrees with the limit at z^k")
    p.add_argument("n", type=_capped(_positive_int, STABILIZE_MAX_N, "stabilize", "n",
                                     "its cost grows about as n^4"))
    p.add_argument("k", type=_nonneg_int)
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("dyck", help="bounded-height Dyck path count")
    p.add_argument("m", help="half-length",
                   type=_capped(_nonneg_int, DYCK_MAX_M, "dyck", "m",
                                "its cost grows about as m^3"))
    p.add_argument("h", type=_nonneg_int, help="height bound")
    p.set_defaults(func=_cmd_dyck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
