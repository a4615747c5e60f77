"""The command-line surface: canonical output, exit codes, JSON round-trips."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import qlehmer
from qlehmer import cli, lehmer, linalg, poly, qcomb, series
from qlehmer.lehmer import BandedFactors, closed_factors, lehmer_matrix
from qlehmer.poly import (
    RAT_ONE,
    Poly2,
    RatFunc,
    ratfunc_to_json_obj,
    to_json_obj,
    to_text,
)


def decode(obj):
    """The polynomial of a JSON object of [z_exp, q_exp, coeff] triples, or of
    [v_exp, u_exp, coeff] ones under "uv"."""
    scale = 2 if obj["vars"] == "qz" else 1
    return Poly2({(scale * eq, scale * ez): int(c) for ez, eq, c in obj["terms"]})


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_det_3():
    code, out = run("det", "3")
    assert code == 0
    assert out == "1 - z - q*z\n"


def test_lambda_matches_det():
    # `lambda` prints the closed sum and `det` the recursion, two routes that
    # share no code; both forms must agree byte for byte.
    for n in [*range(1, 61), 112]:
        for form in ((), ("--json",)):
            assert run("lambda", str(n), *form) == run("det", str(n), *form), (n, form)


def test_lambda_runs_no_ring_arithmetic_and_no_recursion(monkeypatch):
    # `lambda` prints `lambda_sum`, which builds each z-row on dense q-lists:
    # with Poly2 sums, differences and products and the recursion made to
    # raise, it still prints lam(30).
    expected = run("det", "30")

    def forbidden(*args):
        raise AssertionError("lambda ran ring arithmetic or the recursion")

    for name in ("__mul__", "__rmul__", "__add__", "__sub__"):
        monkeypatch.setattr(Poly2, name, forbidden)
    monkeypatch.setattr(lehmer, "lambdas", forbidden)
    assert run("lambda", "30") == expected


def test_qbinom():
    code, out = run("qbinom", "4", "2")
    assert code == 0
    assert out == "1 + q + 2*q^2 + q^3 + q^4\n"


def test_qbinom_out_of_range_is_zero():
    assert run("qbinom", "3", "5") == (0, "0\n")
    assert run("qbinom", "5", "-1") == (0, "0\n")  # `-1` is a value, not an option


def test_matrix_bands():
    code, out = run("matrix", "3")
    assert code == 0
    assert out.splitlines() == ["n: 3", "diag: 1, 1, 1",
                                "super: v, v*u", "sub: v, v*u"]


def test_lu_text():
    code, out = run("lu", "3")
    assert code == 0
    assert out.splitlines() == [
        "n: 3",
        "u_diag: 1, 1 - z, (1 - z - q*z)/(1 - z)",
        "u_super: v, v*u",
        "l_sub: v, (v*u)/(1 - z)",
    ]


def test_limit_lines():
    code, out = run("limit", "--zdeg", "2", "--qdeg", "4")
    assert code == 0
    assert out.splitlines() == ["z^0: 1",
                                "z^1: -1 - q - q^2 - q^3 - q^4",
                                "z^2: q^2 + q^3 + 2*q^4"]


def test_limit_one_line_per_power():
    assert run("limit", "--zdeg", "2", "--qdeg", "3") == (
        0, "z^0: 1\nz^1: -1 - q - q^2 - q^3\nz^2: q^2 + q^3\n")


def test_stabilize():
    assert run("stabilize", "6", "1") == (0, "4\n")
    assert run("stabilize", "6", "0") == (0, "exact\n")


def test_stabilize_absent_power_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("stabilize", "5", "3")
    assert exc.value.code == 2


def test_dyck():
    assert run("dyck", "3", "2") == (0, "4\n")
    assert run("dyck", "0", "0") == (0, "1\n")


def test_verify_passes():
    code, out = run("verify", "6")
    assert code == 0
    assert out.splitlines() == [
        "lu_generic rediscovers closed factors: PASS",
        "product L*U equals matrix: PASS",
        "continuant det equals closed det: PASS",
        "closed sum equals recursion det: PASS",
    ]


def test_verify_reports_a_wrong_closed_sum(monkeypatch):
    monkeypatch.setattr(lehmer, "lambda_sum", lambda n: lehmer.lambda_rec(n) + 1)
    code, out = run("verify", "4")
    assert code == 1
    assert out.splitlines()[-1] == "closed sum equals recursion det: FAIL"


def test_closed_sum_multiplies_and_divides_no_polynomials(monkeypatch):
    # `verify`'s closed sum runs on dense q-lists alone: with every binding
    # of `exact_div` and the Poly2 product made to raise, it still gives lam(30).
    expected = lehmer.lambda_rec(30)

    def forbidden(*args):
        raise AssertionError("lambda_sum multiplied or divided polynomials")

    for module in (poly, qcomb):
        monkeypatch.setattr(module, "exact_div", forbidden)
    monkeypatch.setattr(Poly2, "__mul__", forbidden)
    monkeypatch.setattr(Poly2, "__rmul__", forbidden)
    assert lehmer.lambda_sum(30) == expected


def test_verify_names_the_first_wrong_product_entry(monkeypatch):
    def wrong_factors(n):
        f = closed_factors(n)
        return BandedFactors(f.n, f.u_diag, f.u_super, (f.l_sub[0], RAT_ONE, *f.l_sub[2:]))

    monkeypatch.setattr(lehmer, "closed_factors", wrong_factors)
    code, out = run("verify", "5")
    assert code == 1
    # product_check reports the 0-based (2, 1); verify prints rows and columns from 1.
    assert "product L*U equals matrix: FAIL at entry (3, 2)" in out.splitlines()


def test_verify_above_cap_exits_2_without_computing(monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError("verify computed past its cap")

    for name in ("lehmer_matrix", "closed_factors", "lambda_rec", "lambda_sum"):
        monkeypatch.setattr(lehmer, name, forbidden)
    with pytest.raises(SystemExit) as exc:
        run("verify", str(cli.VERIFY_MAX_N + 1))
    assert exc.value.code == 2
    assert f"n <= {cli.VERIFY_MAX_N}" in capsys.readouterr().err
    assert cli.parse_args(["verify", str(cli.VERIFY_MAX_N)]).n == cli.VERIFY_MAX_N


@pytest.mark.parametrize("verb, size, cap", [
    ("det", str(cli.DET_MAX_N + 1), cli.DET_MAX_N),
    ("lambda", str(cli.LAMBDA_MAX_N + 1), cli.LAMBDA_MAX_N),
    ("lu", str(cli.LU_MAX_N + 1), cli.LU_MAX_N),
    ("matrix", str(cli.MATRIX_MAX_N + 1), cli.MATRIX_MAX_N),
])
def test_closed_verbs_above_cap_exit_2_without_computing(verb, size, cap, monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError(f"{verb} computed past its cap")

    for name in ("lambdas", "lambda_rec", "lambda_sum", "closed_factors", "lehmer_matrix"):
        monkeypatch.setattr(lehmer, name, forbidden)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        run(verb, size)
    assert time.perf_counter() - start < 0.5
    assert exc.value.code == 2
    assert f"{verb} is limited to n <= {cap}" in capsys.readouterr().err


def test_closed_caps_admit_the_benchmarked_sizes():
    # 128 is the largest det the benchmark's own tests run; 112 and 96 are
    # the sizes of its workload.  Parse only: nothing is computed.
    for n in (96, 112, 128, cli.DET_MAX_N):
        assert cli.parse_args(["det", str(n), "--json"]).n == n
    for n in (96, 112, 128, cli.DET_MAX_N, cli.LAMBDA_MAX_N):
        assert cli.parse_args(["lambda", str(n)]).n == n
    assert cli.parse_args(["lu", str(cli.LU_MAX_N)]).n == cli.LU_MAX_N
    assert cli.parse_args(["matrix", str(cli.MATRIX_MAX_N), "--json"]).n == cli.MATRIX_MAX_N
    assert cli.parse_args(["lambda", "0"]).n == 0


@pytest.mark.parametrize("argv, limited", [
    (["qbinom", str(cli.QBINOM_MAX_N + 1), "2"],
     f"qbinom is limited to n <= {cli.QBINOM_MAX_N}"),
    (["stabilize", str(cli.STABILIZE_MAX_N + 1), "1"],
     f"stabilize is limited to n <= {cli.STABILIZE_MAX_N}"),
    (["limit", "--zdeg", str(cli.LIMIT_MAX_ZDEG + 1), "--qdeg", "1"],
     f"limit is limited to --zdeg <= {cli.LIMIT_MAX_ZDEG}"),
    (["limit", "--zdeg", "1", "--qdeg", str(cli.LIMIT_MAX_QDEG + 1)],
     f"limit is limited to --qdeg <= {cli.LIMIT_MAX_QDEG}"),
    (["dyck", str(cli.DYCK_MAX_M + 1), "1"],
     f"dyck is limited to m <= {cli.DYCK_MAX_M}"),
])
def test_series_verbs_above_cap_exit_2_without_computing(argv, limited, monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError(f"{argv[0]} computed past its cap")

    monkeypatch.setattr(qcomb, "gauss_product", forbidden)
    for name in ("stabilization_check", "limit_det", "dyck_count"):
        monkeypatch.setattr(series, name, forbidden)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert time.perf_counter() - start < 0.5
    assert exc.value.code == 2
    assert limited in capsys.readouterr().err


def test_series_caps_admit_the_benchmarked_sizes():
    # The benchmark's `series` workload runs stabilize 100 20, qbinom 64 k
    # for k in 30..34, limit 20/1500 and dyck m h for m <= 60, h <= m + 2.
    # Parse only: nothing is computed.
    for n in (100, cli.STABILIZE_MAX_N):
        assert cli.parse_args(["stabilize", str(n), "20"]).n == n
    for n in (64, cli.QBINOM_MAX_N):
        assert cli.parse_args(["qbinom", str(n), "34", "--json"]).n == n
    for z, q in ((20, 1500), (cli.LIMIT_MAX_ZDEG, cli.LIMIT_MAX_QDEG)):
        args = cli.parse_args(["limit", "--zdeg", str(z), "--qdeg", str(q)])
        assert (args.zdeg, args.qdeg) == (z, q)
    for m in (60, cli.DYCK_MAX_M):
        assert cli.parse_args(["dyck", str(m), str(m + 2)]).m == m


@pytest.mark.parametrize("argv", [
    ["det", "0"],
    ["matrix", "-3"],
    ["lambda", "-1"],
    ["dyck", "2"],
    ["nonsense", "1"],
    [],
])
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["det", "--help"], ["limit", "-h"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: qlehmer")
    if argv[0].startswith("-"):
        assert all(re.search(rf"^  {verb} ", out, re.MULTILINE) for verb in cli.VERBS)


@pytest.mark.parametrize("argv, same", [
    (["limit", "--qdeg=3", "--zdeg", "2"], ["limit", "--zdeg", "2", "--qdeg", "3"]),
    (["limit", "--json", "--zdeg=2", "--qdeg=3"], ["limit", "--zdeg", "2", "--qdeg", "3", "--json"]),
    (["det", "--json", "4"], ["det", "4", "--json"]),
    (["qbinom", "--json", "5", "-1"], ["qbinom", "5", "-1", "--json"]),
])
def test_options_may_come_anywhere(argv, same):
    assert run(*argv) == run(*same)


@pytest.mark.parametrize("argv, says", [
    (["det", "5", "--bogus"], "unrecognized arguments: --bogus"),
    (["verify", "5", "--json"], "unrecognized arguments: --json"),
    (["det", "--js", "5"], "unrecognized arguments: --js"),
    (["limit", "--zdeg", "3"], "required: --qdeg"),
    (["limit", "--zdeg"], "argument --zdeg: expected one argument"),
    (["det", "5", "6"], "unrecognized arguments: 6"),
    (["det", "x"], "invalid int value: 'x'"),
    (["matrix", "-3"], "expected an integer >= 1, got -3"),
    (["det", "7" * 5000], "invalid int value"),
    (["dyck", "2"], "required: h"),
    (["nonsense", "1"], "invalid choice: 'nonsense'"),
    (["limit", "--qdeg", "3", "--zdeg"], "argument --zdeg: expected one argument"),
    (["limit", "--zdeg", "--qdeg", "3"], "argument --zdeg: expected one argument"),
    (["limit", "--zdeg", "1", "--qdeg", "-3"], "argument --qdeg: expected an integer >= 0, got -3"),
    (["stabilize", "10", "6"], "z^6 is absent from the order-10 determinant"),
])
def test_usage_errors_print_usage_and_no_traceback(argv, says, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: qlehmer")
    assert error.startswith(f"qlehmer{' ' + argv[0] if argv[0] in cli.VERBS else ''}: error: ")
    assert says in error


def test_closed_pipe_exits_141_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(qlehmer.__file__).resolve().parent.parent))
    child = subprocess.Popen([sys.executable, "-m", "qlehmer.cli", "det", "112", "--json"], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.read(10) == b'{"vars": "'
    child.stdout.close()
    assert child.stderr.read() == b""
    assert child.wait(timeout=60) == 141


@pytest.mark.parametrize("argv", [
    ["lambda", "7"],
    ["det", "9"],
    ["qbinom", "6", "3"],
])
def test_json_triples_round_trip(argv):
    _, text_out = run(*argv)
    _, json_out = run(*argv, "--json")
    obj = json.loads(json_out)
    assert set(obj) == {"vars", "terms"}
    assert to_text(decode(obj)) == text_out.rstrip("\n")


def test_matrix_json_round_trip():
    _, text_out = run("matrix", "4")
    obj = json.loads(run("matrix", "4", "--json")[1])
    lines = [f"n: {obj['n']}"]
    for label, key in (("diag", "diag"), ("super", "super"), ("sub", "sub")):
        polys = [to_text(decode(o)) for o in obj[key]]
        lines.append(f"{label}: " + ", ".join(polys))
    assert "\n".join(lines) + "\n" == text_out


def test_lu_json_round_trip():
    _, text_out = run("lu", "4")
    obj = json.loads(run("lu", "4", "--json")[1])
    lines = [f"n: {obj['n']}"]
    lines.append("u_diag: " + ", ".join(
        str(RatFunc(decode(o["num"]), decode(o["den"]))) for o in obj["u_diag"]))
    lines.append("u_super: " + ", ".join(
        to_text(decode(o)) for o in obj["u_super"]))
    lines.append("l_sub: " + ", ".join(
        str(RatFunc(decode(o["num"]), decode(o["den"]))) for o in obj["l_sub"]))
    assert "\n".join(lines) + "\n" == text_out


@pytest.mark.parametrize("n", range(1, 13))
def test_band_verbs_stream_the_bytes_of_the_whole_object(n):
    # `lu` and `matrix` write their output in pieces; the bytes must be those
    # of one json.dumps call on the whole object, and of one joined line per band.
    f, m = closed_factors(n), lehmer_matrix(n)
    for verb, bands in [
        ("lu", (("u_diag", f.u_diag, ratfunc_to_json_obj), ("u_super", f.u_super, to_json_obj),
                ("l_sub", f.l_sub, ratfunc_to_json_obj))),
        ("matrix", (("diag", m.diag, to_json_obj), ("super", m.superdiag, to_json_obj),
                    ("sub", m.subdiag, to_json_obj))),
    ]:
        whole = {"n": n, **{key: [to_obj(x) for x in band] for key, band, to_obj in bands}}
        assert run(verb, str(n), "--json") == (0, json.dumps(whole) + "\n")
        lines = [f"n: {n}"] + [f"{key}: " + ", ".join(str(x) for x in band)
                               for key, band, _ in bands]
        assert run(verb, str(n)) == (0, "\n".join(lines) + "\n")


def test_u_diag_renders_each_lambda_once():
    # U's diagonal is lam(j)/lam(j-1): each denominator is the previous
    # entry's numerator, and its rendered form is reused.
    f = closed_factors(9)
    rendered = []

    def render(p):
        rendered.append(p)
        return to_text(p)

    forms = list(cli._fractions(f.u_diag, render, "({})/({})".format))
    assert forms == [f"({r.num})/({r.den})" for r in f.u_diag]
    assert rendered == [f.u_diag[0].den] + [r.num for r in f.u_diag]


@pytest.mark.parametrize("parts", [
    [], ["a"], [""], ["x" * 70000], ["ab"] * 50000, ["x" * 40000, "", "y" * 30000, "z"],
])
def test_write_joined_matches_one_join(parts, capsys):
    # Pieces are cut at about 64 KB; the separators between them must survive.
    cli._write_joined(iter(parts))
    assert capsys.readouterr().out == ", ".join(parts)


def test_limit_json_round_trip():
    _, text_out = run("limit", "--zdeg", "3", "--qdeg", "6")
    obj = json.loads(run("limit", "--zdeg", "3", "--qdeg", "6", "--json")[1])
    lines = [f"z^{k}: {to_text(decode(o))}"
             for k, o in enumerate(obj["coeffs"])]
    assert "\n".join(lines) + "\n" == text_out


def test_output_is_deterministic():
    commands = [
        ["lambda", "8"], ["matrix", "5"], ["det", "7"], ["lu", "5"],
        ["qbinom", "6", "3"], ["limit", "--zdeg", "3", "--qdeg", "8"],
        ["stabilize", "8", "2"], ["dyck", "5", "3"], ["verify", "5"],
    ]
    for argv in commands:
        assert run(*argv) == run(*argv), argv


# sha256 of stdout, pinned so that output bytes cannot drift between versions.
PINNED_STDOUT = {
    "det 40 --json": "62afdddd1ff96c3d2445b031bb9d50a1dfc67d122c083ac044bb4b9e99beb6f8",
    "lambda 30": "cb6d7fdc8777a00956a490b9ae66a4be197642f307ae1f2dbad9e0a25e036921",
    "lu 12": "27e53fbb5171318970f6e4e361889db9fe817ebfeea26f0eb216b3b633718c8b",
    "lu 12 --json": "f6145e0d9fb5508787b0fc55a78c6c268918a74f9c1aaa8cb64b10c33643cffb",
    "matrix 7": "b22e01be96329431e3c307198d1a61e7ab089f05031d1236cdc9a33e92c3459a",
    "matrix 7 --json": "bac9175c81ee570e1771ad0c311526b951ac5aeb8dfc9bd0d9be5ba6b2893a58",
    "qbinom 30 12": "3a84057e61fd2560fe54773b6e90428c151c37df154d795e6844a2035cf6857d",
    "qbinom 30 12 --json": "4001031869afde9276cd381e99b6c008bc72c668eba64a0ed508ba968946d9b5",
    "limit --zdeg 8 --qdeg 60": "d3254fd558a9a7239f67063adf746e2834491e77575b0c378b3277c4507d87ab",
    "limit --zdeg 8 --qdeg 60 --json":
        "e47ecafa89349a02b75a3972b6a7bddb9264f5d710cd2e22efb2966b2bad9ace",
    "verify 10": "dd52bbdf77d74e2a92e4e09255251dea8937a15e1ff9bc3132339e339fa65c96",
    # The division verbs; the [80 20] quotient outgrows both operands, so its
    # division takes the width-doubling path.
    "qbinom 80 20 --json": "85fd29cfa8890e734d1368385efda0fa9ea1a6fd8e9b68e88ee048766024814c",
    "stabilize 100 20": "95cf32708a31caa478a0e9141103ac567d85e5186e697e7e0c81f75589999e31",
}


def readme_examples():
    """The `$ qlehmer ...` commands of README.md with the output shown under each."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return re.findall(r"^\$ qlehmer (.+)\n((?:(?!\$ |```).*\n)*)", readme, re.MULTILINE)


def test_stdout_bytes_are_pinned_and_readme_examples_hold():
    for command, digest in PINNED_STDOUT.items():
        code, out = run(*command.split())
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command
    examples = readme_examples()
    assert [command for command, _ in examples] == ["det 3", "lu 3", "verify 8"]
    for command, shown in examples:
        assert run(*command.split()) == (0, shown), command


# Run one verb in a fresh interpreter and print, on stderr, the modules it
# loaded beyond those the bare interpreter had already loaded.
IMPORT_PROBE = """\
import sys
bare = set(sys.modules)
from qlehmer import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
sys.stderr.write(" ".join(sorted(set(sys.modules) - bare)))
"""

OTHER_MODULES = {f"qlehmer.{name}" for name in ("poly", "qcomb", "lehmer", "linalg", "series")}


def loaded_modules(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(qlehmer.__file__).resolve().parent.parent))
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return set(child.stderr.split())


# (argv, modules it must load, modules it must not load); no verb loads
# `json`, since `poly.to_json` writes the JSON form itself, nor `argparse`
# (which loads `gettext` and `locale`), since `cli.parse_args` reads the
# command line itself.
FOOTPRINTS = [
    (["--help"], {"qlehmer.cli"}, OTHER_MODULES | {"json"}),
    (["qbinom", "6", "3"], {"qlehmer.qcomb"},
     {"qlehmer.lehmer", "qlehmer.linalg", "qlehmer.series", "json"}),
    (["qbinom", "6", "3", "--json"], {"qlehmer.qcomb"},
     {"qlehmer.lehmer", "qlehmer.linalg", "qlehmer.series", "json"}),
    (["stabilize", "8", "2"], {"qlehmer.series", "qlehmer.qcomb"},
     {"qlehmer.lehmer", "qlehmer.linalg", "json"}),
    (["limit", "--zdeg", "2", "--qdeg", "4"], {"qlehmer.series", "qlehmer.poly"},
     {"qlehmer.lehmer", "qlehmer.qcomb", "qlehmer.linalg", "json"}),
    (["dyck", "3", "2"], {"qlehmer.series"}, OTHER_MODULES - {"qlehmer.series"} | {"json"}),
    (["det", "5"], {"qlehmer.lehmer"},
     {"qlehmer.qcomb", "qlehmer.linalg", "qlehmer.series", "json"}),
    (["lambda", "5", "--json"], {"qlehmer.lehmer"},
     {"qlehmer.qcomb", "qlehmer.linalg", "qlehmer.series", "json"}),
    (["matrix", "3", "--json"], {"qlehmer.lehmer"},
     {"qlehmer.qcomb", "qlehmer.linalg", "qlehmer.series", "json"}),
    (["lu", "3"], {"qlehmer.lehmer"},
     {"qlehmer.qcomb", "qlehmer.linalg", "qlehmer.series", "json"}),
    (["lu", "3", "--json"], {"qlehmer.lehmer"},
     {"qlehmer.qcomb", "qlehmer.linalg", "qlehmer.series", "json"}),
    (["limit", "--zdeg", "2", "--qdeg", "4", "--json"], {"qlehmer.series"},
     {"qlehmer.lehmer", "qlehmer.qcomb", "qlehmer.linalg", "json"}),
    (["verify", "3"], {"qlehmer.lehmer", "qlehmer.linalg"},
     {"qlehmer.qcomb", "qlehmer.series", "json"}),
]


@pytest.mark.parametrize("argv, loads, skips", FOOTPRINTS,
                         ids=[" ".join(argv) for argv, _, _ in FOOTPRINTS])
def test_each_verb_imports_only_what_it_runs(argv, loads, skips):
    # Every command starts a fresh interpreter, so what it imports is paid
    # on every run; `dataclasses` (which loads `inspect`) on none of them.
    loaded = loaded_modules(argv)
    assert loads <= loaded, loads - loaded
    never = skips | {"dataclasses", "argparse", "gettext", "locale"}
    assert not loaded & never, loaded & never
