"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from schubpuzzles import diagram, poly, schubert, weyl  # noqa: E402
from schubpuzzles.labels import Gr, LabelString  # noqa: E402

with open(os.path.join(BENCH, "goldens.json")) as fh:
    GOLDENS = json.load(fh)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_same_seed_gives_same_op_list():
    for name in workloads.WORKLOADS:
        first = [workloads.pass_ops(name, 7, i) for i in range(3)]
        assert first == [workloads.pass_ops(name, 7, i) for i in range(3)]


def test_other_seed_changes_restrict_lambdas():
    lams = {frozenset(op[3] for op in workloads.pass_ops("restrict-cold", seed, 0))
            for seed in range(5)}
    assert len(lams) == 5


def test_every_pass_of_a_run_repeats_the_same_ops():
    for name in workloads.WORKLOADS:
        keys = [sorted(map(workloads.op_key, workloads.pass_ops(name, 7, i))) for i in range(3)]
        assert keys[0] == keys[1] == keys[2]


def test_every_drawable_op_has_a_golden():
    keys = {workloads.op_key(op) for name in workloads.WORKLOADS
            for seed in range(3) for op in workloads.pass_ops(name, seed, 0)}
    assert keys <= {workloads.op_key(op) for op in workloads.all_ops()} == set(GOLDENS)


def test_tampered_output_is_a_failure():
    op = workloads.product_op("000111", "010101")
    _, outcome = worker.run_op(op)
    assert workloads.check_op(op, outcome, GOLDENS) is None
    tampered = dict(outcome, output=outcome["output"].replace('"puzzles": 1', '"puzzles": 2', 1))
    assert tampered["output"] != outcome["output"]
    assert workloads.check_op(op, tampered, GOLDENS) is not None
    assert workloads.check_op(op, dict(outcome, rc=2), GOLDENS) is not None
    assert workloads.check_op(op, {"error": "ValueError: boom"}, GOLDENS) is not None


def test_worker_sends_digests_that_are_checked():
    op = workloads.product_op("000111", "010101")
    [result] = worker.run_ops([op])
    assert "output" not in result
    assert workloads.check_op(op, result, GOLDENS) is None
    tampered = dict(result, digest=workloads.digest("tampered"))
    assert workloads.check_op(op, tampered, GOLDENS) is not None


def test_worker_runs_the_least_passes_then_stops_in_time():
    op = workloads.product_op("000111", "010101")
    job = {"passes": [[op]] * 50, "least": 2, "seconds": 0.0}
    assert len(worker.run_passes(job, time.clock_gettime(time.CLOCK_MONOTONIC))) == 2


def test_failed_crosscheck_report_is_a_failure():
    op = workloads.CROSSCHECK_OP
    checked = workloads.CROSSCHECK_CHECKED
    for report in ({"checked": checked, "failed": 1, "first_failure": "x"},
                   {"checked": checked - 1, "failed": 0, "first_failure": None}):
        output = json.dumps(report) + "\n"
        goldens = {workloads.op_key(op): workloads.digest(output)}
        assert workloads.check_op(op, {"rc": 0, "output": output}, goldens) is not None


def _traced(ops):
    tracer = tracing.Tracer()
    with tracer.installed():
        results = worker.run_ops(ops, tracer)
    return tracer.summary(), results


def test_self_times_sum_to_traced_op_wall():
    ops = [["product", "0011", "0101", 4], ["product", "0101", "0011", 4],
           ["cli", "restrict", "--lambda", "0011", "--k", "2", "--n", "2", "--format", "json"]]
    summary, results = _traced(ops)
    assert all(r.get("rc") == 0 for r in results)
    wall = sum(r["seconds"] for r in results)
    first, rest = summary["self_first"], summary["self_rest"]
    layers = {k: first.get(k, 0.0) + rest.get(k, 0.0) for k in set(first) | set(rest)}
    assert min(layers.values()) > -1e-6
    assert abs(sum(layers.values()) - wall) <= 0.03 * wall
    assert layers["diagram.transfer.triangle"] > 0 and layers["diagram.transfer.half"] > 0
    assert summary["calls"]["poly.mul"] > 0


def test_restriction_cache_hits_count_as_calls():
    space = Gr(1, 2)
    lam, mu = LabelString.parse("01"), LabelString.parse("10")
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.run_op(0, lambda: [weyl.restriction(lam, mu, space) for _ in range(3)])
    assert tracer.summary()["calls"]["weyl.restriction"] == 3
    assert tracer.counts["weyl.restriction.hits"] >= 2


def test_no_wrapper_survives_the_traced_run():
    originals = {
        "schubert.transfer": schubert.transfer,
        "diagram.transfer": diagram.transfer,
        "weyl.restriction": weyl.restriction,
        "Polynomial.__mul__": vars(poly.Polynomial)["__mul__"],
    }
    assert tracing.installed_wrappers() == []
    tracer = tracing.Tracer()
    with tracer.installed():
        installed = tracing.installed_wrappers()
        assert "schubpuzzles.schubert.transfer" in installed
        assert "schubpuzzles.poly.Polynomial.__mul__" in installed
        assert schubert.transfer is diagram.transfer is not originals["diagram.transfer"]
    assert tracing.installed_wrappers() == []
    assert schubert.transfer is originals["schubert.transfer"]
    assert diagram.transfer is originals["diagram.transfer"]
    assert weyl.restriction is originals["weyl.restriction"]
    assert vars(poly.Polynomial)["__mul__"] is originals["Polynomial.__mul__"]


def test_benchmark_json_names_every_reported_metric():
    empty = {"self_first": {}, "self_rest": {}, "total": {}, "calls": {}, "counts": {}}
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.layer_metrics(empty, 1.0, 0.0))
    assert sorted(m["name"] for m in SPEC["end_to_end"]) == sorted(run.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
