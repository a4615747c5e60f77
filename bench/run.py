#!/usr/bin/env python3
"""The qlehmer benchmark: time to result of the `qlehmer` CLI.

    python3 bench/run.py --workload verify|closed|series --seed N --seconds S --trace 0|1

Each operation runs as `python -m qlehmer.cli ...` in a fresh process, with
PYTHONPATH set to this checkout's `src`, one at a time (a closed loop with a
single client).  A pass is one run of the workload's operations; passes
repeat while another one still fits in S seconds.  Every output is checked against
references in `checks.py`.

The host's speed drifts by up to a factor of two over minutes on a shared
machine, so the time metrics are relative: each operation is preceded by the
fixed task in `reference.py`, and its time is divided by that task's time.

With --trace 0 the last stdout line reports the end-to-end metrics (medians
over passes).  With --trace 1, untraced and traced passes alternate, and it
reports the per-layer metrics recorded by `spans.py`.  Lines before the last
one give the seed's operations, quartiles, sample counts and failures.  See
README.md next to this file for what each workload is for.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

OP_TIMEOUT_S = 60.0
# A CLI process that does no work and takes longer than this is broken.
SETUP_TIMEOUT_S = 10.0
# No operation runs past this many seconds from the start of a run, so that a
# regression cannot keep a run from finishing within 180 s.
RUN_BUDGET_S = 150.0
# Set-up is timed this many times before the first pass and once before each pass.
SETUP_REPEATS = 4
REFERENCE = BENCH / "reference.py"
REFERENCE_OUTPUT = f"2401 {7 ** 48}"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[str], None]


# Sizes are fixed where the cost is steep in them (verify costs about N^6.5,
# so N +- 1 moves a pass by a third).  The seed picks arguments whose cost is
# flat or small: a second, small verify; the test point and a small det in
# `closed`; k of the q-binomial near n/2 and the Dyck path size in `series`.


def verify_ops(rng: random.Random) -> list[Op]:
    small = rng.randint(6, 12)
    return [Op(("verify", "22"), checks.check_verify),
            Op(("verify", str(small)), checks.check_verify)]


def closed_ops(rng: random.Random) -> list[Op]:
    point = (rng.choice([2, 3, -2, -3]), rng.choice([2, 3, -2, -3]))
    small = rng.randint(12, 40)
    return [Op(("det", "112", "--json"), functools.partial(checks.check_lambda, 112, point, True)),
            Op(("lambda", "96"), functools.partial(checks.check_lambda, 96, point, False)),
            Op(("det", str(small)), functools.partial(checks.check_lambda, small, point, False))]


def series_ops(rng: random.Random) -> list[Op]:
    k = rng.randint(30, 34)
    m = rng.randint(30, 60)
    h = rng.randint(3, m + 2)
    return [Op(("stabilize", "100", "20"), functools.partial(checks.check_stabilize, 100, 20)),
            Op(("qbinom", "64", str(k)), functools.partial(checks.check_qbinom, 64, k)),
            Op(("limit", "--zdeg", "20", "--qdeg", "1500"),
               functools.partial(checks.check_limit, 20, 1500)),
            Op(("dyck", str(m), str(h)), functools.partial(checks.check_dyck, m, h))]


WORKLOADS = {"verify": verify_ops, "closed": closed_ops, "series": series_ops}

# Spans each workload must enter; zero calls to one of them is an error.
REQUIRED_SPANS = {
    "verify": ("cli.main", "lehmer.closed_factors", "lehmer.lambda_rec", "lehmer.factors_eq",
               "linalg.lu_generic", "linalg.product_check", "linalg.det_cofactor",
               "poly.mul", "poly.add", "poly.ratfunc_eq", "poly.ratfunc"),
    "closed": ("cli.main", "lehmer.lambda_rec", "poly.mul", "poly.add", "poly.format"),
    "series": ("cli.main", "series.stabilization_check", "series.invert_poch",
               "series.limit_det", "series.dyck_count", "qcomb.gauss_product",
               "qcomb.poch_qq", "poly.exact_div", "poly.mul", "poly.add", "poly.format"),
}

END_TO_END = {"wall_ref": "ratio", "cpu_ref": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
# Printed before the result line with quartiles, but not gated: in seconds,
# these follow the host's speed.
ABSOLUTE = {"wall_s": "s", "cpu_s": "s"}

SELF_TIMED = ("poly.mul", "poly.add", "poly.exact_div", "poly.ratfunc_eq", "poly.format",
              "qcomb.poch_qq", "qcomb.gauss_product", "lehmer.lambda_rec",
              "lehmer.closed_factors", "lehmer.factors_eq", "linalg.lu_generic",
              "linalg.product_check", "linalg.det_cofactor", "series.limit_det",
              "series.invert_poch", "series.stabilization_check", "series.dyck_count",
              "cli.main")
CALL_COUNTED = ("poly.mul", "poly.add", "poly.exact_div", "poly.ratfunc_eq", "qcomb.poch_qq",
                "qcomb.gauss_product", "series.invert_poch")

PER_LAYER = {f"{name}.calls": "count" for name in CALL_COUNTED}
PER_LAYER.update({f"{name}.self_s": "s" for name in SELF_TIMED})
PER_LAYER.update({
    "poly.mul.term_pairs": "count", "poly.mul.monomial_share": "ratio",
    "poly.exact_div.quot_terms": "count", "poly.ratfunc_eq.identical_share": "ratio",
    "poly.ratfunc.ops": "count", "cli.stdout_bytes": "bytes", "cli.out_terms": "count",
    "cli.out_coeff_bits": "bits", "trace.overhead_ratio": "ratio",
})
# Metrics that count work rather than time it: equal in every traced pass.
COUNT_METRICS = tuple(name for name, unit in PER_LAYER.items()
                      if unit != "s" and name != "trace.overhead_ratio")


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass
class Child:
    wall: float
    cpu: float
    rss_kb: int
    returncode: int | None  # None when killed at its timeout
    stdout: bytes
    stderr: bytes


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    # Sums over operations of the operation's time / the reference task's time.
    wall_ref: float = 0.0
    cpu_ref: float = 0.0
    rss_kb: int = 0
    stdout_bytes: int = 0
    trace: dict = field(default_factory=dict)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # stdout already checked, per operation; the CLI's output is deterministic,
    # so a byte-identical repeat needs no second check.
    verified: dict[tuple[str, ...], bytes] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], env: dict[str, str], timeout: float) -> Child:
    """Run one process to completion or until `timeout`, collecting its output
    and its own resource usage from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    out = {out_fd: bytearray(), err_fd: bytearray()}
    killed = False
    # Killed with os.kill, not Popen.kill: Popen polls first and may reap the
    # child, and then wait4 could not collect its usage.  Until wait4 reaps
    # it, the pid cannot be reused.
    try:
        with selectors.DefaultSelector() as sel:
            for fd in out:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + timeout - time.perf_counter()
                if remaining <= 0:
                    os.kill(proc.pid, signal.SIGKILL)
                    killed = True
                    break
                for key, _ in sel.select(remaining):
                    chunk = os.read(key.fd, 1 << 20)
                    if chunk:
                        out[key.fd] += chunk
                    else:
                        sel.unregister(key.fd)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(wall=wall, cpu=usage.ru_utime + usage.ru_stime, rss_kb=usage.ru_maxrss,
                 returncode=None if killed else proc.returncode,
                 stdout=bytes(out[out_fd]), stderr=bytes(out[err_fd]))


def cli_cmd(argv, traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(BENCH / "traced_cli.py"), str(SRC), *argv]
    return [sys.executable, "-m", "qlehmer.cli", *argv]


def guard_source(env: dict[str, str]) -> None:
    """The package a child imports must be this checkout's src."""
    if not (SRC / "qlehmer" / "cli.py").is_file():
        raise SetupError(f"no qlehmer sources under {SRC}")
    probe = run_child([sys.executable, "-c", "import qlehmer.cli; print(qlehmer.cli.__file__)"],
                      env, SETUP_TIMEOUT_S)
    if probe.returncode != 0:
        raise SetupError(f"cannot import qlehmer.cli: {probe.stderr.decode()[-400:]}")
    origin = Path(probe.stdout.decode().strip()).resolve()
    if not origin.is_relative_to(SRC):
        raise SetupError(f"children import qlehmer from {origin}, not from {SRC}")


def setup_time(env: dict[str, str]) -> float:
    """Wall time of a CLI process that does no work (`qlehmer --help`)."""
    child = run_child(cli_cmd(["--help"], False), env, SETUP_TIMEOUT_S)
    if child.returncode != 0:
        raise SetupError(f"`qlehmer --help` exited {child.returncode}")
    return child.wall


def reference_time(env: dict[str, str]) -> Child:
    """Run the reference task once; its times measure the host's current speed."""
    child = run_child([sys.executable, str(REFERENCE)], env, SETUP_TIMEOUT_S)
    if child.returncode != 0 or child.stdout.decode().strip() != REFERENCE_OUTPUT:
        raise SetupError(f"the reference task failed: exit {child.returncode}, "
                         f"output {child.stdout.decode()[-200:]!r}")
    return child


def run_pass(ops: list[Op], traced: bool, env, deadline: float, tally: Tally) -> Pass:
    result = Pass()
    for op in ops:
        tally.attempted += 1
        label = " ".join(op.argv)
        timeout = min(OP_TIMEOUT_S, deadline - time.perf_counter())
        if timeout <= 0:
            tally.fail(f"{label}: not started, the run's time budget is spent")
            continue
        ref = reference_time(env)
        child = run_child(cli_cmd(op.argv, traced), env, timeout)
        result.wall += child.wall
        result.cpu += child.cpu
        result.wall_ref += child.wall / ref.wall
        result.cpu_ref += child.cpu / ref.cpu
        result.rss_kb = max(result.rss_kb, child.rss_kb)
        result.stdout_bytes += len(child.stdout)
        if child.returncode is None:
            tally.fail(f"{label}: killed after {timeout:.1f} s")
            continue
        if child.returncode != 0:
            tally.fail(f"{label}: exit {child.returncode}: {child.stderr.decode()[-300:]}")
            continue
        if tally.verified.get(op.argv) != child.stdout:
            try:
                op.check(child.stdout.decode())
            except (checks.CheckError, ValueError) as exc:
                tally.fail(f"{label}: {exc}")
                continue
            tally.verified[op.argv] = child.stdout
        if traced:
            report = read_trace(child.stderr)
            if report is None:
                tally.fail(f"{label}: the traced child wrote no span report")
                continue
            merge_trace(result.trace, report)
    return result


def read_trace(stderr: bytes) -> dict | None:
    for line in stderr.decode().splitlines():
        if line.startswith(spans.TRACE_MARK):
            return json.loads(line[len(spans.TRACE_MARK):])
    return None


def merge_trace(total: dict, part: dict) -> None:
    for kind in ("calls", "self_s", "counts"):
        bucket = total.setdefault(kind, {})
        for name, value in part[kind].items():
            bucket[name] = bucket.get(name, 0) + value
    maxima = total.setdefault("maxima", {})
    for name, value in part["maxima"].items():
        maxima[name] = max(maxima.get(name, 0), value)


def layer_metrics(p: Pass) -> dict[str, float]:
    calls = p.trace.get("calls", {})
    self_s = p.trace.get("self_s", {})
    counts = p.trace.get("counts", {})
    maxima = p.trace.get("maxima", {})

    def share(part: str, whole: str) -> float:
        return counts.get(part, 0) / calls[whole] if calls.get(whole) else 0.0

    m = {f"{name}.calls": calls.get(name, 0) for name in CALL_COUNTED}
    m.update({f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED})
    m["poly.mul.term_pairs"] = counts.get("poly.mul.term_pairs", 0)
    m["poly.mul.monomial_share"] = share("poly.mul.monomial_calls", "poly.mul")
    m["poly.exact_div.quot_terms"] = counts.get("poly.exact_div.quot_terms", 0)
    m["poly.ratfunc_eq.identical_share"] = share("poly.ratfunc_eq.identical_calls",
                                                 "poly.ratfunc_eq")
    m["poly.ratfunc.ops"] = calls.get("poly.ratfunc", 0)
    m["cli.stdout_bytes"] = p.stdout_bytes
    m["cli.out_terms"] = counts.get("cli.out_terms", 0)
    m["cli.out_coeff_bits"] = maxima.get("cli.out_coeff_bits", 0)
    return m


def describe(name: str, values: list[float], unit: str) -> str:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return (f"# {name}: median {med:.4f} {unit}, quartiles {q1:.4f}..{q3:.4f}, "
            f"n={len(values)}")


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, list[float]]:
    return {"wall_ref": [p.wall_ref for p in passes],
            "cpu_ref": [p.cpu_ref for p in passes],
            "peak_rss_mb": [p.rss_kb / 1024 for p in passes],
            "setup_s": setup,
            "wall_s": [p.wall for p in passes],
            "cpu_s": [p.cpu for p in passes]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    env = child_env()
    tally = Tally()
    try:
        guard_source(env)
        setup_time(env)  # may write bytecode caches; not kept
        setup = [setup_time(env) for _ in range(SETUP_REPEATS)]
        ops = WORKLOADS[args.workload](random.Random(args.seed))
        print(f"# workload {args.workload}, seed {args.seed}: "
              + "; ".join("qlehmer " + " ".join(op.argv) for op in ops))
        stop = time.perf_counter() + args.seconds
        untraced: list[Pass] = []
        traced: list[Pass] = []
        while True:
            began = time.perf_counter()
            setup.append(setup_time(env))
            untraced.append(run_pass(ops, False, env, deadline, tally))
            if args.trace:
                traced.append(run_pass(ops, True, env, deadline, tally))
            now = time.perf_counter()
            # Stop when another round would end past --seconds.
            enough = not args.trace or len(traced) >= 2
            if now >= deadline or (enough and 2 * now - began > stop):
                break
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    summary = end_to_end(untraced, setup)
    for name, values in summary.items():
        print(describe(name, values, {**END_TO_END, **ABSOLUTE}[name]))
    print(f"# fail_ratio: {tally.failed}/{tally.attempted}")
    for message in tally.errors[:20]:
        print(f"# FAILED {message}", file=sys.stderr)

    correct = tally.failed == 0
    if args.trace:
        per_pass = [layer_metrics(p) for p in traced]
        for name in REQUIRED_SPANS[args.workload]:
            if not all(p.trace.get("calls", {}).get(name) for p in traced):
                correct = False
                print(f"# ERROR span {name} recorded no calls in a traced pass", file=sys.stderr)
        for name in COUNT_METRICS:
            if len({m[name] for m in per_pass}) > 1:
                correct = False
                print(f"# ERROR count {name} differs between traced passes: "
                      f"{[m[name] for m in per_pass]}", file=sys.stderr)
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in PER_LAYER if name.endswith(".self_s")}
        values.update({name: per_pass[0][name] for name in COUNT_METRICS})
        values["trace.overhead_ratio"] = (statistics.median(p.wall_ref for p in traced)
                                          / statistics.median(p.wall_ref for p in untraced))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": statistics.median(summary[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
