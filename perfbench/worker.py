"""Runs benchmark ops in a fresh interpreter.

Usage: python3 -I perfbench/worker.py ROOT < job.json

The job is ``{"passes": [[op, ...], ...], "least": L, "seconds": S,
"trace": bool}``. The worker imports the program from ROOT/src, reads the
job and stamps the moment it is ready to run its first op on the
system-wide monotonic clock. It runs the first L passes, each pass's ops
one after the other, then each further pass while that pass would still
end within S seconds of the stamp, judged by the last pass's time. It prints one JSON line: the ready stamp, each op's
time and outcome by pass, its peak resident set and, when traced, the
tracer's summary.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))


def run_op(op: list) -> tuple[float, dict]:
    """Run one op; return its wall time and its outcome for workloads.check_op."""
    from schubpuzzles import cli, schubert
    from schubpuzzles.labels import LabelString

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if op[0] == "cli":
                rc = cli.main(op[1:])
            elif op[0] == "product":
                _, lam_text, mu_text, n = op
                lam, mu = LabelString.parse(lam_text), LabelString.parse(mu_text)
                result = schubert.two_step_product(lam, mu, n)
                inputs = {"lambda": lam.compact(), "mu": mu.compact(), "n": n}
                print(json.dumps(result.to_json_dict(inputs)))
                rc = 0
            else:
                raise ValueError(f"unknown op kind {op[0]!r}")
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - t0, {"error": f"{type(exc).__name__}: {exc}"}
    seconds = time.perf_counter() - t0
    return seconds, {"rc": rc, "output": out.getvalue(), "stderr": err.getvalue()}


def run_ops(ops: list, tracer=None) -> list[dict]:
    """Run ops in order; each result holds the output's digest, and the
    output itself only where the check reads it."""
    import workloads

    results = []
    for index, op in enumerate(ops):
        if tracer is None:
            seconds, outcome = run_op(op)
        else:
            seconds, outcome = tracer.run_op(index, lambda: run_op(op))
        if "output" in outcome:
            outcome["digest"] = workloads.digest(outcome["output"])
            if not workloads.needs_output(op):
                del outcome["output"]
        results.append({"seconds": seconds, **outcome})
    return results


def run_passes(job: dict, ready: float, tracer=None) -> list[list[dict]]:
    done = []
    last = 0.0
    for ops in job["passes"]:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        if len(done) >= job["least"] and start + last > ready + job["seconds"]:
            break
        done.append(run_ops(ops, tracer))
        last = time.clock_gettime(time.CLOCK_MONOTONIC) - start
    return done


def main() -> int:
    root = os.path.abspath(sys.argv[1])
    src = os.path.join(root, "src")
    sys.path[:0] = [src, HERE]
    import schubpuzzles
    import schubpuzzles.cli  # noqa: F401  (imports every layer)

    if not os.path.abspath(schubpuzzles.__file__).startswith(src + os.sep):
        print(f"schubpuzzles imported from {schubpuzzles.__file__}, not {src}", file=sys.stderr)
        return 1
    job = json.loads(sys.stdin.read())
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import resource

    import tracing

    leftover = tracing.installed_wrappers()
    if leftover:
        print(f"tracer wrappers still installed: {leftover}", file=sys.stderr)
        return 1
    summary = None
    if job["trace"]:
        tracer = tracing.Tracer()
        with tracer.installed():
            results = run_passes(job, ready, tracer)
        summary = tracer.summary()
    else:
        results = run_passes(job, ready)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ready": ready, "passes": results, "maxrss_kb": maxrss_kb,
                      "trace": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
