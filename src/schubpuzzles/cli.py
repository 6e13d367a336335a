"""Command-line front end.

Subcommands: restrict, product, enumerate, restriction-at-point,
verify-identities, crosscheck, duality.  Strings use the compact
encoding (2 = the letter "10") unless --verbose-labels is given.
Exit codes: 0 success, 1 validation error, 2 failed check.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import schubert
from .diagram import build_half_diagram, build_triangle_diagram, enumerate_labelings
from .labels import Fl, Gr, LabelString, SpGr
from .tensor import IDENTITY_NAMES, verify_identity
from .weyl import restriction


def _parse_string(text: str, what: str) -> LabelString:
    try:
        return LabelString.parse(text)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _print_expansion(result, inputs: dict, args) -> None:
    if args.format == "json":
        print(json.dumps(result.to_json_dict(inputs)))
        return
    for nu in sorted(result.terms):
        print(f"{nu.display(args.verbose_labels)} : {result.terms[nu]}")


def _cmd_restrict(args) -> int:
    lam = _parse_string(args.lam, "--lambda")
    result = schubert.restrict_to_spgr(lam, args.k, args.n)
    _print_expansion(result, {"lambda": lam.compact(), "k": args.k, "n": args.n}, args)
    return 0


def _cmd_product(args) -> int:
    lam = _parse_string(args.lam, "--lambda")
    mu = _parse_string(args.mu, "--mu")
    result = schubert.two_step_product(lam, mu, args.n)
    _print_expansion(
        result, {"lambda": lam.compact(), "mu": mu.compact(), "n": args.n}, args
    )
    return 0


def _cmd_enumerate(args) -> int:
    if args.family == "triangle":
        diagram = build_triangle_diagram(args.n)
        out = None
        if (args.nw is None) != (args.ne is None):
            raise ValueError("triangle boundaries --nw and --ne must be given together")
        if args.nw is not None:
            nw = _parse_string(args.nw, "--nw")
            ne = _parse_string(args.ne, "--ne")
            if len(nw) != args.n or len(ne) != args.n:
                raise ValueError(f"--nw and --ne must have length {args.n}")
            out = nw + ne
    else:
        diagram = build_half_diagram(args.n)
        if args.ne is not None:
            raise ValueError("half diagrams have no --ne boundary")
        out = None
        if args.nw is not None:
            out = _parse_string(args.nw, "--nw")
            if len(out) != 2 * args.n:
                raise ValueError(f"--nw must have length {2 * args.n}")
    inn = None
    if args.south is not None:
        inn = _parse_string(args.south, "--south")
        if len(inn) != args.n:
            raise ValueError(f"--south must have length {args.n}")
    labelings = enumerate_labelings(diagram, out_labels=out, in_labels=inn)
    if args.format == "json":
        payload = [
            {
                "edges": [
                    [e.ident, e.colour, str(e.parameter), lab.edge_labels[e.ident].compact]
                    for e in diagram.edges
                ],
                "fugacity": lab.fugacity.machine(),
            }
            for lab in labelings
        ]
        print(json.dumps({"family": args.family, "n": args.n, "labelings": payload}))
        return 0
    for idx, lab in enumerate(labelings, start=1):
        print(f"labeling {idx}")
        print(lab.dump(verbose=args.verbose_labels))
        print()
    print(f"{len(labelings)} labelings")
    return 0


def _make_space(args):
    if args.space == "gr":
        if args.k is None or args.m is None:
            raise ValueError("space gr needs --k and --m")
        return Gr(args.k, args.m)
    if args.space == "spgr":
        if args.k is None or args.n is None:
            raise ValueError("space spgr needs --k and --n")
        return SpGr(args.k, args.n)
    if args.j is None or args.k is None or args.m is None:
        raise ValueError("space fl needs --j, --k and --m")
    return Fl(args.j, args.k, args.m)


def _cmd_restriction_at_point(args) -> int:
    space = _make_space(args)
    lam = _parse_string(args.lam, "--lambda")
    mu = _parse_string(args.mu, "--mu")
    for name, s in (("--lambda", lam), ("--mu", mu)):
        if len(s) != space.rank:
            raise ValueError(f"{name} must have length {space.rank} on {space}")
        if s not in space:
            raise ValueError(f"{name} {s.compact()} does not index a class on {space}")
    value = restriction(lam, mu, space)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "space": str(space),
                    "lambda": lam.compact(),
                    "mu": mu.compact(),
                    "value": value.machine(),
                }
            )
        )
    else:
        print(value)
    return 0


def _cmd_verify_identities(args) -> int:
    results = {name: verify_identity(name) for name in IDENTITY_NAMES}
    good = sum(results.values())
    if args.format == "json":
        print(json.dumps({"checked": len(results), "failed": len(results) - good,
                          "results": results}))
    else:
        print(f"{good}/{len(results)} identities hold")
    if good != len(results):
        for name, ok in results.items():
            if not ok:
                print(f"failed: {name}", file=sys.stderr)
        return 2
    return 0


def _emit_report(report, args) -> int:
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        print(str(report))
    return 0 if report.passed else 2


def _cmd_crosscheck(args) -> int:
    if args.which == "restriction":
        if args.k is None or args.n is None:
            raise ValueError("crosscheck restriction needs --k and --n")
        report = schubert.crosscheck_restriction(args.k, args.n)
    else:
        if args.j is None or args.k is None or args.n is None:
            raise ValueError("crosscheck product needs --j, --k and --n")
        report = schubert.crosscheck_product(args.j, args.k, args.n)
    return _emit_report(report, args)


def _cmd_duality(args) -> int:
    return _emit_report(schubert.duality_check(args.k, args.m), args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubpuzzles",
        description="Exact Schubert-calculus expansions by puzzle enumeration, "
        "cross-checked against fixed-point restrictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--verbose-labels",
            action="store_true",
            help="write strings as comma-separated tokens instead of compact digits",
        )

    p = sub.add_parser("restrict", help="expand a Grassmannian class on the symplectic Grassmannian")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("product", help="two-step flag product of two Grassmannian classes")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("enumerate", help="list puzzle labelings with fugacities")
    p.add_argument("--family", choices=("triangle", "half"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nw", help="northwest boundary (triangle: length n; half: length 2n)")
    p.add_argument("--ne", help="northeast boundary (triangle only)")
    p.add_argument("--south", help="south boundary (length n)")
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("restriction-at-point", help="restrict a Schubert class to a fixed point")
    p.add_argument("--space", choices=("gr", "spgr", "fl"), required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--j", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    common(p)
    p.set_defaults(func=_cmd_restriction_at_point)

    p = sub.add_parser("verify-identities", help="check the crossing/bounce/split matrix identities")
    common(p)
    p.set_defaults(func=_cmd_verify_identities)

    p = sub.add_parser("crosscheck", help="fixed-point verification sweeps")
    p.add_argument("--which", choices=("restriction", "product"), required=True)
    p.add_argument("--j", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    common(p)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("duality", help="nonequivariant duality symmetry sweep")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_duality)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; fold that into the validation code
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
