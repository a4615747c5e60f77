"""Tests of the benchmark's own parts: exact span counts, wrapper coverage at
every import site, and output checks that reject wrong answers.

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys

import pytest

import checks
import run


def traced(*argv):
    child = run.run_child(run.cli_cmd(argv, True), run.child_env(), 120)
    assert child.returncode == 0, child.stderr.decode()
    return child.stdout.decode(), run.read_trace(child.stderr)


def plain(*argv):
    child = run.run_child(run.cli_cmd(argv, False), run.child_env(), 120)
    assert child.returncode == 0, child.stderr.decode()
    return child.stdout.decode()


@pytest.mark.parametrize("n", [3, 128])
def test_det_records_two_products_per_recursion_step(n):
    out, trace = traced("det", str(n), "--json")
    checks.check_lambda(n, (2, 3), True, out)
    assert trace["calls"]["poly.mul"] == 2 * (n - 1)
    assert trace["calls"]["poly.add"] == n - 1
    assert trace["counts"]["poly.mul.monomial_calls"] == 2 * (n - 1)
    assert "linalg.lu_generic" not in trace["calls"]


def test_verify_records_every_ratfunc_comparison():
    out, trace = traced("verify", "16")
    checks.check_verify(out)
    # 16 + 15 factor entries in lu_generic(m) == f, then a 16 x 16 product.
    assert trace["calls"]["poly.ratfunc_eq"] == 31 + 256
    # All 31 factor entries and 228 of the product entries are term-identical.
    assert trace["counts"]["poly.ratfunc_eq.identical_calls"] == 31 + 228
    assert trace["calls"]["lehmer.factors_eq"] == 1
    assert trace["calls"]["linalg.product_check"] == 1


def test_wrappers_replace_every_reference():
    script = """
import json, spans
tracer = spans.install()
import qlehmer
from qlehmer import linalg, poly, qcomb, series
p = poly.Poly2.monomial(2, 1, 0)
3 * p; p * p; 1 + p; p + p; 1 - p; -p
fresh = [name for mod in (qlehmer, poly, qcomb, series, linalg)
         for name in ("exact_div", "ratfunc_eq", "poch_qq", "gauss_product", "to_text")
         if hasattr(mod, name) and not hasattr(getattr(mod, name), "__wrapped__")]
print(json.dumps({"calls": tracer.calls, "fresh": fresh}))
"""
    child = subprocess.run([sys.executable, "-c", script], cwd=run.BENCH, env=run.child_env(),
                           capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(child.stdout)
    assert result["fresh"] == []
    assert result["calls"] == {"poly.mul": 2, "poly.add": 4}


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_checks_accept_cli_output_and_reject_altered_output():
    det_text = plain("det", "12")
    checks.check_lambda(12, (-3, 2), False, det_text)
    with pytest.raises(checks.CheckError):
        checks.check_lambda(12, (-3, 2), False, det_text.replace(" - z ", " - 2*z ", 1))
    det_json = json.loads(plain("det", "12", "--json"))
    det_json["terms"][-1][2] = str(int(det_json["terms"][-1][2]) + 1)
    with pytest.raises(checks.CheckError):
        checks.check_lambda(12, (2, 2), True, json.dumps(det_json))

    qb = plain("qbinom", "9", "4")
    checks.check_qbinom(9, 4, qb)
    with pytest.raises(checks.CheckError):
        checks.check_qbinom(9, 4, qb.replace(" + q + ", " + 2*q + ", 1))

    limit = plain("limit", "--zdeg", "6", "--qdeg", "40")
    checks.check_limit(6, 40, limit)
    with pytest.raises(checks.CheckError):
        checks.check_limit(6, 40, limit.replace("q^40", "q^39", 1))

    checks.check_dyck(9, 3, plain("dyck", "9", "3"))
    with pytest.raises(checks.CheckError):
        checks.check_dyck(9, 4, plain("dyck", "9", "3"))
    checks.check_stabilize(30, 7, plain("stabilize", "30", "7"))
    with pytest.raises(checks.CheckError):
        checks.check_verify(plain("verify", "5").replace("PASS", "FAIL", 1))


def test_references():
    assert [checks.fibonacci(n) for n in range(1, 9)] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert checks.gauss_binomial_at(4, 2, 2) == 35  # 1 + 2 + 2*4 + 8 + 16
    assert checks.partitions_upto(2, 5) == [1, 1, 2, 2, 3, 3]
    assert [checks.bounded_dyck(m, 1) for m in range(5)] == [1] * 5
    assert [checks.bounded_dyck(4, h) for h in range(5)] == [0, 1, 8, 13, 14]
    assert checks.parse_text("1 - z - q*z") == {(0, 0): 1, (1, 0): -1, (1, 1): -1}
    assert checks.parse_text("-3*q^2*z^4 + 5") == {(4, 2): -3, (0, 0): 5}


def test_operation_past_its_timeout_is_killed():
    child = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                          run.child_env(), 0.5)
    assert child.returncode is None
    assert child.wall < 5


def test_reference_task_runs_and_its_output_is_checked():
    ref = run.reference_time(run.child_env())
    assert ref.wall > 0 and ref.cpu > 0
