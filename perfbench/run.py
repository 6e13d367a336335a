"""The benchmark: one command per workload run, every op's output checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json):

* restrict-cold -- `schubpuzzles restrict --k 5 --n 5 --format json`, one
  query per fresh interpreter, for four λ the seed draws from Gr(5,10);
* product-sweep -- `two_step_product(λ, μ, 6)` for all 400 pairs of Gr(3,6)
  strings, in an order the seed shuffles, in one warm process;
* crosscheck-restriction -- `schubpuzzles crosscheck --which restriction
  --k 2 --n 4 --format json`, each run in a fresh interpreter.

A run repeats passes of the workload's op list until S seconds have
passed (at least one pass). The load is a closed loop with one client: each
op starts when the previous one has ended, and at most one worker process
runs at a time. restrict-cold and crosscheck-restriction start a fresh
worker for every op, so every op runs with cold caches; product-sweep runs
every pass in one warm worker and times the passes after the first.

Every distinct op is timed many times in a run, and its time is the median
of its timings: a shared virtual machine can change speed by up to 40% for
seconds at a time, so a single timing says little. With --trace 0 the
run reports the end-to-end metrics over these per-op times; with --trace 1
it alternates an untraced and a traced pass of the same ops and reports the
per-layer metrics, each the median over traced passes. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")
SETUP_SAMPLES = 15  # interpreter start-ups timed before the ops of a run
WORKER_TIMEOUT_S = 150
END_TO_END = {"solve_s": "s", "op_p50_s": "s", "op_p90_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The benchmark could not run: no result is printed."""


def spawn_worker(passes: list, trace: bool, least: int = 1, seconds: float = 0.0) -> dict:
    """Run passes of ops in a fresh interpreter (see worker.py); add its
    set-up time to its report."""
    job = {"passes": passes, "least": least, "seconds": seconds, "trace": trace}
    job = json.dumps(job).encode()
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"), ROOT]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(job, timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited {proc.returncode}: {err.decode()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def run_pass(workload: str, ops: list, trace: bool) -> list[dict]:
    """Run one pass of ops; one report per worker, each with one pass."""
    if workloads.WORKLOADS[workload]:
        return [spawn_worker([[op]], trace) for op in ops]
    return [spawn_worker([ops], trace)]


class Run:
    """What one benchmark run has measured so far."""

    def __init__(self, goldens: dict):
        self.goldens = goldens
        self.attempted = 0
        self.failures: list[str] = []
        self.setups: list[float] = []
        self.rss_kb: list[int] = []
        self.timings: dict[str, list[float]] = {}  # op key -> its timed runs

    def add_worker(self, report: dict) -> None:
        self.setups.append(report["setup_s"])
        self.rss_kb.append(report["maxrss_kb"])

    def record(self, ops: list, results: list[dict], timed: bool) -> float:
        """Check the results of ops; keep their times when `timed`; return
        their summed time."""
        for op, result in zip(ops, results, strict=True):
            self.attempted += 1
            why = workloads.check_op(op, result, self.goldens)
            if why is not None:
                self.failures.append(f"{workloads.op_key(op)}: {why}")
            if timed:
                self.timings.setdefault(workloads.op_key(op), []).append(result["seconds"])
        return sum(r["seconds"] for r in results)

    def record_pass(self, ops: list, reports: list[dict], timed: bool) -> float:
        """Record a pass run by run_pass; return its summed op time."""
        for report in reports:
            self.add_worker(report)
        return self.record(ops, [r for report in reports for r in report["passes"][0]], timed)

    def probe_setup(self) -> None:
        for _ in range(SETUP_SAMPLES):
            self.add_worker(spawn_worker([], False))

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures), "metrics": metrics}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: str, seed: int, seconds: float, run: Run) -> dict:
    deadline = time.monotonic() + seconds
    run.probe_setup()  # also lets the first timed op find the bytecode cached
    if workloads.WORKLOADS[workload]:
        last = 0.0
        for index in itertools.count():  # at least one whole pass
            ops = workloads.pass_ops(workload, seed, index)
            while ops and (index == 0 or time.monotonic() + last <= deadline):
                op = ops.pop(0)
                started = time.monotonic()
                run.record_pass([op], [spawn_worker([[op]], False)], True)
                last = time.monotonic() - started
            if ops:
                break
    else:
        plan = [workloads.pass_ops(workload, seed, i) for i in range(2 * int(seconds) + 2)]
        report = spawn_worker(plan, False, 2, max(0.0, deadline - time.monotonic()))
        run.add_worker(report)
        for index, results in enumerate(report["passes"]):
            run.record(plan[index], results, index > 0)  # pass 0 fills the caches
    per_op = [statistics.median(t) for t in run.timings.values()]
    counts = [len(t) for t in run.timings.values()]
    p90 = (statistics.quantiles(per_op, n=10, method="inclusive")[8]
           if len(per_op) > 1 else per_op[0])
    print(f"{workload}: {len(per_op)} distinct ops timed {min(counts)} to {max(counts)} "
          f"times each, {sum(counts)} in all; {len(run.setups)} set-ups, "
          f"{len(run.rss_kb)} workers")
    if len(per_op) <= 8:
        for key, times in run.timings.items():
            print(f"  {key}: " + " ".join(f"{t:.3f}" for t in times))
    print("set-up times: " + " ".join(f"{s:.4f}" for s in run.setups))
    values = {
        "solve_s": sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_p90_s": p90,
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": max(run.rss_kb) / 1024,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def _merge(summaries: list[dict]) -> dict:
    """Sum the tracer summaries of the workers of one pass."""
    merged: dict = {}
    for summary in summaries:
        for part, values in summary.items():
            into = merged.setdefault(part, {})
            for key, value in values.items():
                into[key] = into.get(key, 0) + value
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, op_wall: float, overhead: float) -> dict:
    """The per-layer metrics of one traced pass, from its merged summary."""
    self_s = {k: trace["self_first"].get(k, 0.0) + trace["self_rest"].get(k, 0.0)
              for k in set(trace["self_first"]) | set(trace["self_rest"])}
    calls, total, counts = trace["calls"], trace["total"], trace["counts"]
    m: dict[str, dict] = {}

    def layer(name: str, *parts: str) -> None:
        if "calls" in parts:
            m[f"{name}.calls"] = _metric(calls.get(name, 0), "count")
        if "self_s" in parts:
            m[f"{name}.self_s"] = _metric(self_s.get(name, 0.0), "s")
        if "total_s" in parts:
            m[f"{name}.total_s"] = _metric(total.get(name, 0.0), "s")

    layer("poly.mul", "calls", "self_s")
    m["poly.mul.term_products"] = _metric(counts.get("poly.mul.term_products", 0), "count")
    m["poly.mul.unit_frac"] = _metric(
        _ratio(counts.get("poly.mul.unit_ops", 0), calls.get("poly.mul", 0)), "ratio")
    layer("poly.add", "calls", "self_s")
    layer("poly.substitute", "calls", "self_s")
    m["poly.substitute.terms_in"] = _metric(counts.get("poly.substitute.terms_in", 0), "count")
    layer("poly.pow", "calls", "self_s")
    layer("poly.format", "calls", "self_s")
    transfer_calls = 0
    for family in ("half", "triangle", "wiring"):
        name = f"diagram.transfer.{family}"
        layer(name, "calls", "self_s")
        m[f"{name}.states_out"] = _metric(counts.get(f"{name}.states_out", 0), "count")
        transfer_calls += calls.get(name, 0)
    m["diagram.transfer.repeat_frac"] = _metric(
        _ratio(counts.get("diagram.transfer.repeats", 0), transfer_calls), "ratio")
    layer("diagram.enumerate", "calls", "self_s")
    m["diagram.enumerate.labelings_out"] = _metric(
        counts.get("diagram.enumerate.labelings_out", 0), "count")
    layer("diagram.build", "calls", "self_s")
    layer("weyl.restriction", "calls", "self_s", "total_s")
    hits = counts.get("weyl.restriction.hits", 0)
    m["weyl.restriction.hit_frac"] = _metric(
        _ratio(hits, hits + counts.get("weyl.restriction.misses", 0)), "ratio")
    m["weyl.restriction.cache_size"] = _metric(
        counts.get("weyl.restriction.cache_size", 0), "count")
    layer("weyl.subword", "calls", "self_s", "total_s")
    layer("weyl.shortest_lift", "calls", "self_s")
    layer("schubert.specialize", "calls", "self_s", "total_s")
    layer("schubert", "self_s")
    layer("labels.strings", "calls", "self_s")
    m["labels.strings.useful_frac"] = _metric(
        _ratio(counts.get("labels.strings.returned", 0), counts.get("labels.strings.walked", 0)),
        "ratio")
    layer("cli", "self_s")
    m["trace.bookkeeping_s"] = _metric(self_s.get(tracing.TRACE_LAYER, 0.0), "s")
    m["trace.op_wall_s"] = _metric(op_wall, "s")
    m["trace.overhead_s"] = _metric(overhead, "s")
    return m


def print_shares(workload: str, trace: dict, reports: list[dict]) -> None:
    """Each layer's share of traced op time less the tracer's bookkeeping,
    for the whole pass and, when one worker ran every op, for the ops after
    the first."""
    first = sum(r["passes"][0][0]["seconds"] for r in reports)
    wall = sum(o["seconds"] for r in reports for o in r["passes"][0])
    views = [("pass", trace["self_first"], trace["self_rest"], wall)]
    if len(reports) == 1 and len(reports[0]["passes"][0]) > 1:
        views.append(("after first op", {}, trace["self_rest"], wall - first))
    for view, a, b, base in views:
        shares = {k: a.get(k, 0.0) + b.get(k, 0.0) for k in set(a) | set(b)}
        bookkeeping = shares.pop(tracing.TRACE_LAYER, 0.0)
        base -= bookkeeping
        print(f"{workload} traced self-time shares ({view}: {base:.3f} s of op time "
              f"+ {bookkeeping:.3f} s tracer bookkeeping):")
        for name, value in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {name:32s} {value:9.3f} s  {100 * _ratio(value, base):5.1f}%")


def traced_run(workload: str, seed: int, seconds: float, run: Run) -> dict:
    """Repeat the first pass's ops, untraced then traced, while the next
    repeat would still end in time (at least once). Every traced pass runs
    the same ops, so the counters repeat exactly and the medians only smooth
    the times."""
    deadline = time.monotonic() + seconds
    ops = workloads.pass_ops(workload, seed, 0)
    per_pass: list[dict] = []
    last = 0.0
    while not per_pass or time.monotonic() + last <= deadline:
        started = time.monotonic()
        untraced = run.record_pass(ops, run_pass(workload, ops, False), False)
        reports = run_pass(workload, ops, True)
        traced = run.record_pass(ops, reports, False)
        trace = _merge([r["trace"] for r in reports])
        if not per_pass:
            print_shares(workload, trace, reports)
        per_pass.append(layer_metrics(trace, traced, traced - untraced))
        last = time.monotonic() - started
    return {name: _metric(statistics.median(p[name]["value"] for p in per_pass), m["unit"])
            for name, m in per_pass[0].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(GOLDENS) as fh:
            goldens = json.load(fh)
        run = Run(goldens)
        measure = traced_run if args.trace else timed_run
        metrics = measure(args.workload, args.seed, args.seconds, run)
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for failure in run.failures[:10]:
        print(f"FAILED {failure}")
    fail_frac = len(run.failures) / run.attempted
    print(f"fail_frac {fail_frac} ({len(run.failures)}/{run.attempted} ops)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(run.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
