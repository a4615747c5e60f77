"""Command-line surface: every computation behind one executable.

Output is deterministic (identical bytes for identical arguments).  Exit
codes: 0 success or all checks passed, 1 a verification check failed, 2 a
usage error (what `parse_args` cannot read against `VERBS`, or a z-power
that `stabilize`'s lam(n) lacks), 141 stdout closed early (128 + SIGPIPE).

`lambda` prints lam(j) from the closed sum (`lehmer.lambda_sum`) and `det`
prints det M(n) from the recursion (`lehmer.lambda_rec`): the same bytes by
two routes that share no code, which `verify` checks against each other.

Each verb imports the modules it runs when it runs, and none imports `json`
(`poly.to_json` writes the JSON form itself): every command starts a fresh
interpreter, and for the small ones importing more would cost more than the
work.  So `qlehmer --help` reads the `VERBS` table and loads no module
the bare interpreter lacks but this one (no `argparse`, hence no `gettext`
or `locale`), `qbinom` none of `lehmer`, `linalg` or `series`, `dyck` only
`series`, and `limit` neither `lehmer` nor `qcomb`.
"""

import os
import sys
from types import SimpleNamespace


# Largest sizes the verbs accept; larger ones are refused with exit 2 before
# any work starts.  Times and peaks (from wait4) are from a shared 2-core
# host, CPython 3.11.
#
# `verify`: the checks cost about n^6.  Most pairs share a denominator (see
# `qlehmer.poly`), so the time goes into two lam(j-1) * lam(j) products per
# sub-diagonal entry of L*U.  A product is a monomial shift, or one packed
# kernel per product row, and these take the kernel: `verify 52` takes
# 1.0 s, `verify 60` 2.7 to 3.0 s and 24 MB, `verify 62` 3.4 s and
# `verify 64` 4.4 s and 27 MB.
VERIFY_MAX_N = 60
# `det` and `lambda` print lam(n) by two routes, both written in pieces of
# 16384 terms, one band of total degree rendered at a time (`poly.to_json`
# and `poly.to_text` given `sys.stdout.write`), never as one string.
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
# denominators), so its output outgrows `det`'s, but renders it twice: on U's
# diagonal a denominator reuses the previous numerator's form.  It is written
# in pieces, and the factors share their coefficient tuples with the lam
# table.  Time binds first, most of it printing: `lu 88` takes 1.9 to 2.0 s
# and 50 MB in text form and 1.3 to 1.8 s and 50 to 51 MB with --json.
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
    if args.json:  # the bytes of json.dumps on the whole object, written in pieces
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
        _usage("stabilize", str(exc))
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


# verb: (handler, help line, takes --json, arguments).  An argument is (name,
# minimum, cap, why): `--name` is a required option, any other a positional,
# and a value below the minimum or above the cap (None: no bound) is refused.
VERBS = {
    "lambda": (_cmd_lambda, "the determinant polynomial lam(n)", True,
               [("n", 0, LAMBDA_MAX_N, "its output grows about as n^3")]),
    "matrix": (_cmd_matrix, "the n x n Lehmer matrix bands", True,
               [("n", 1, MATRIX_MAX_N, "it holds every entry in memory")]),
    "det": (_cmd_det, "closed-form determinant of M(n)", True,
            [("n", 1, DET_MAX_N, "its time grows about as n^4")]),
    "lu": (_cmd_lu, "closed-form LU factors of M(n)", True,
           [("n", 1, LU_MAX_N, "it prints every lam(j) three times")]),
    "verify": (_cmd_verify, "run the independent oracles against the closed forms", False,
               [("n", 1, VERIFY_MAX_N, "its cost grows about as n^6")]),
    "qbinom": (_cmd_qbinom, "Gaussian q-binomial coefficient [n k]_q", True,
               [("n", 0, QBINOM_MAX_N, "its cost grows about as n^5"), ("k", None, None, "")]),
    "limit": (_cmd_limit, "the infinite-size limit determinant series to z^zdeg and q^qdeg", True,
              [("--zdeg", 0, LIMIT_MAX_ZDEG, "each z^k inverts (q;q)_k"),
               ("--qdeg", 0, LIMIT_MAX_QDEG, "each z^k line holds qdeg + 1 terms")]),
    "stabilize": (_cmd_stabilize, "q-degree to which det M(n) agrees with the limit at z^k", False,
                  [("n", 1, STABILIZE_MAX_N, "its cost grows about as n^4"), ("k", 0, None, "")]),
    "dyck": (_cmd_dyck, "Dyck paths of half-length m and height at most h", False,
             [("m", 0, DYCK_MAX_M, "its cost grows about as m^3"), ("h", 0, None, "")]),
}


def _usage(verb, error: str | None = None):
    """Print `verb`'s usage (None: qlehmer's) and help, exit 0; or `error`, exit 2."""
    if verb is None:
        prog, usage = "qlehmer", "qlehmer [-h] {%s} ..." % ",".join(VERBS)
        lines = ["Exact computations around the Lehmer tridiagonal determinant family.", "",
                 "verbs:", *(f"  {name:<10} {spec[1]}" for name, spec in VERBS.items())]
    else:
        _, line, takes_json, arguments = VERBS[verb]
        prog, lines = f"qlehmer {verb}", [line] + ["", "--json  emit the JSON form"] * takes_json
        words = [name + f" {name[2:].upper()}" * (name[0] == "-") for name, *_ in arguments]
        usage = " ".join([prog, "[-h]", *words] + ["[--json]"] * takes_json)
    tail = [f"{prog}: error: {error}"] if error else ["", *lines]
    print(f"usage: {usage}", *tail, sep="\n", file=sys.stderr if error else sys.stdout)
    sys.exit(2 if error else 0)


def _is_value(token: str) -> bool:
    """A token that is not an option: no leading dash, or a negative integer."""
    return token[:1] != "-" or token[1:].isdigit()


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read `argv` against `VERBS` into the verb, `json` and each argument, named
    without dashes.  Options take full names, as `--opt value` or `--opt=value`,
    anywhere among the positionals; `-3` is a value.  Help exits 0, errors 2."""
    verb, *rest = argv or [None]
    if {"-h", "--help"} & set(argv):
        _usage(verb if verb in VERBS else None)
    if verb not in VERBS:
        _usage(None, "the following arguments are required: verb" if verb is None else
               f"argument verb: invalid choice: {verb!r} (choose from {', '.join(VERBS)})")
    _, _, takes_json, arguments = VERBS[verb]
    names = [name for name, *_ in arguments]
    texts, positionals, extra, as_json = {}, [], [], False
    tokens = iter(rest)
    for token in tokens:
        name, eq, text = token.partition("=")
        if token == "--json" and takes_json:
            as_json = True
        elif _is_value(token):
            positionals.append(token)
        elif name in names:
            if not eq and not _is_value(text := next(tokens, "-")):  # "-": none left
                _usage(verb, f"argument {name}: expected one argument")
            texts[name] = text
        else:
            extra.append(token)
    slots = [name for name in names if name[0] != "-"]
    texts.update(zip(slots, positionals))
    missing, extra = [name for name in names if name not in texts], extra + positionals[len(slots):]
    if missing or extra:
        _usage(verb, "the following arguments are required: " + ", ".join(missing) if missing
               else "unrecognized arguments: " + " ".join(extra))
    values = {"verb": verb, "json": as_json}
    for name, low, cap, why in arguments:
        text = texts[name]
        try:
            value = values[name.lstrip("-")] = int(text)
        except ValueError:  # also a string of more digits than `int` converts
            _usage(verb, f"argument {name}: invalid int value: {text!r}")
        if low is not None and value < low:
            _usage(verb, f"argument {name}: expected an integer >= {low}, got {text}")
        if cap is not None and value > cap:
            _usage(verb, f"argument {name}: {verb} is limited to {name} <= {cap} ({why}), "
                         f"got {text}")
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return VERBS[args.verb][0](args)


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the Python docs' recipe: keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    console_main()
