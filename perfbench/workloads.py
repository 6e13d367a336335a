"""The benchmark's workloads: which ops each seed draws, and how an op's
output is checked against the recorded goldens.

An op is a JSON-ready list. ``["cli", *argv]`` runs the command-line front
end with ``argv``; ``["product", lam, mu, n]`` calls
``schubert.two_step_product`` and serialises the result the way the CLI's
``--format json`` does. A run repeats the same distinct ops in passes, so
that each op is timed many times; the seed draws them and the order of
each pass. The op list of a pass depends only on the workload, the seed and
the pass index, never on the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

RESTRICT_K, RESTRICT_N = 5, 5
PRODUCT_K, PRODUCT_N = 3, 6
# 672 identities, about 1.1 s in a fresh interpreter: short enough to be
# timed about 30 times in a run. (--k 3 checks 1792 in about 8 s.)
CROSSCHECK_K, CROSSCHECK_N = 2, 4
CROSSCHECK_CHECKED = 672

# Distinct λ per restrict-cold run. Each query starts a fresh interpreter
# and costs about 2 s, so a pass is about 8 s and a run times each λ about
# four times.
RESTRICT_PER_PASS = 4


def binary_strings(k: int, m: int) -> list[str]:
    """Every compact 0/1 string of length m with k zeros, sorted."""
    out = []
    for zeros in itertools.combinations(range(m), k):
        out.append("".join("0" if i in zeros else "1" for i in range(m)))
    return sorted(out)


def restrict_op(lam: str) -> list:
    return ["cli", "restrict", "--lambda", lam, "--k", str(RESTRICT_K),
            "--n", str(RESTRICT_N), "--format", "json"]


def product_op(lam: str, mu: str) -> list:
    return ["product", lam, mu, PRODUCT_N]


CROSSCHECK_OP = ["cli", "crosscheck", "--which", "restriction", "--k", str(CROSSCHECK_K),
                 "--n", str(CROSSCHECK_N), "--format", "json"]


def _product_pairs() -> list[tuple[str, str]]:
    strings = binary_strings(PRODUCT_K, PRODUCT_N)
    return [(lam, mu) for lam in strings for mu in strings]


# name -> whether every op runs in its own fresh interpreter (else one warm
# worker runs pass after pass)
WORKLOADS = {
    "restrict-cold": True,
    "product-sweep": False,
    "crosscheck-restriction": True,
}


def pass_ops(workload: str, seed: int, index: int) -> list[list]:
    """The ops of pass `index` of a run with this seed."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "restrict-cold":
        lams = random.Random(f"{workload}/{seed}").sample(
            binary_strings(RESTRICT_K, 2 * RESTRICT_N), RESTRICT_PER_PASS)
        rng.shuffle(lams)
        return [restrict_op(lam) for lam in lams]
    if workload == "product-sweep":
        pairs = _product_pairs()
        rng.shuffle(pairs)
        return [product_op(lam, mu) for lam, mu in pairs]
    if workload == "crosscheck-restriction":
        return [list(CROSSCHECK_OP)]
    raise ValueError(f"unknown workload {workload!r}")


def all_ops() -> list[list]:
    """Every op that any seed can draw."""
    ops = [restrict_op(lam) for lam in binary_strings(RESTRICT_K, 2 * RESTRICT_N)]
    ops += [product_op(lam, mu) for lam, mu in _product_pairs()]
    ops.append(list(CROSSCHECK_OP))
    return ops


def op_key(op: list) -> str:
    return " ".join(str(part) for part in op)


def digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()


def needs_output(op: list) -> bool:
    """Whether check_op reads the op's output, not only its digest."""
    return op == CROSSCHECK_OP


def check_op(op: list, outcome: dict, goldens: dict) -> str | None:
    """Why the op's outcome is wrong, or None when it matches its golden.

    `outcome` is what the worker reported for the op: an ``error`` text
    when the call raised, else the exit code ``rc`` and the ``output``,
    which the worker replaces by its ``digest`` unless needs_output(op)."""
    if outcome.get("error"):
        return outcome["error"]
    if outcome["rc"] != 0:
        return f"exit code {outcome['rc']}"
    key = op_key(op)
    if key not in goldens:
        return f"no golden for {key}"
    got = digest(outcome["output"]) if "output" in outcome else outcome["digest"]
    if got != goldens[key]:
        return "output differs from the golden"
    if op == CROSSCHECK_OP:
        report = json.loads(outcome["output"])
        if report["failed"] or report["checked"] != CROSSCHECK_CHECKED:
            return f"crosscheck report {report}"
    return None
