"""Record the golden output digest of every op that any seed can draw.

Usage, from the root of a checkout: python3 perfbench/make_goldens.py

Runs every op once in this process (warm caches give the same output as
cold ones) and writes perfbench/goldens.json, mapping each op's key to the
SHA-256 of its output. Run it only on a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    goldens = {}
    for op in workloads.all_ops():
        _, outcome = worker.run_op(op)
        if outcome.get("error") or outcome["rc"] != 0:
            print(f"{workloads.op_key(op)} failed: {outcome}", file=sys.stderr)
            return 1
        key = workloads.op_key(op)
        goldens[key] = workloads.digest(outcome["output"])
        why = workloads.check_op(op, outcome, goldens)  # e.g. a failing crosscheck report
        if why is not None:
            print(f"{key} failed: {why}", file=sys.stderr)
            return 1
    with open(os.path.join(HERE, "goldens.json"), "w") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(goldens)} goldens written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
