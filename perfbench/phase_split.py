"""Split the restriction crosscheck into its phases with a light trace.

Usage, from the root of a checkout:

    python3 perfbench/phase_split.py --k 2      # the crosscheck-restriction workload
    python3 perfbench/phase_split.py --k 1 2 3 4  # the whole rank-4 sweep, in one process

Only schubert.specialize, weyl.restriction and weyl.subword are wrapped: a
few thousand spans instead of the millions of the full trace, so the phase
times stay close to untraced ones. Prints each phase's outermost time.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracing  # noqa: E402
from schubpuzzles import schubert  # noqa: E402

PHASES = ("schubert.specialize", "weyl.restriction", "weyl.subword")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, nargs="+", required=True)
    parser.add_argument("--n", type=int, default=4)
    args = parser.parse_args()
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    with tracer.installed(only=set(PHASES)):
        for k in args.k:
            report = tracer.run_op(k, lambda: schubert.crosscheck_restriction(k, args.n))
            print(report)
            if not report.passed:
                return 1
    wall = time.perf_counter() - t0
    total = tracer.summary()["total"]
    print(f"wall {wall:.2f} s")
    for phase in PHASES:
        print(f"{phase:22s} {total.get(phase, 0.0):7.2f} s  {100 * total.get(phase, 0.0) / wall:5.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
