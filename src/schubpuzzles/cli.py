"""Command-line front end.

Subcommands: restrict, product, enumerate, restriction-at-point,
verify-identities, crosscheck, duality.  Strings use the compact
encoding (2 = the letter "10") unless --verbose-labels is given.
Exit codes: 0 success, 1 validation error, 2 failed check.

Every subcommand is one entry of ``_COMMANDS``.  A query whose first
argument names a subcommand builds a parser with that subcommand alone,
which parses, prints and fails byte for byte as the full parser does; any
other argument list (none, ``-h``, an unknown command, ``--``) gets the full
parser.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import schubert
from .diagram import (
    IDENTITY_NAMES,
    build_half_diagram,
    build_triangle_diagram,
    enumerate_labelings,
    verify_identity,
)
from .labels import Fl, Gr, LabelString, SpGr
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
                    [ident, e.colour, str(e.parameter), lab.edge_labels[ident].compact]
                    for ident, e in enumerate(diagram.edges)
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


def _sizes(args, names, what: str) -> list[int]:
    """The values of the size options `names`; an error names them all when
    any is missing."""
    sizes = [getattr(args, name) for name in names]
    if None in sizes:
        flags = [f"--{name}" for name in names]
        raise ValueError(f"{what} needs {', '.join(flags[:-1])} and {flags[-1]}")
    return sizes


def _make_space(args):
    space = {"gr": Gr, "spgr": SpGr, "fl": Fl}[args.space]
    return space(*_sizes(args, space.__slots__, f"space {args.space}"))


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
        report = schubert.crosscheck_restriction(*_sizes(args, "kn", "crosscheck restriction"))
    else:
        report = schubert.crosscheck_product(*_sizes(args, "jkn", "crosscheck product"))
    return _emit_report(report, args)


def _cmd_duality(args) -> int:
    return _emit_report(schubert.duality_check(args.k, args.m), args)


_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}
_LAMBDA = ("--lambda", {"dest": "lam", "required": True})
_MU = ("--mu", {"required": True})

# subcommand -> (help, handler, its own arguments as (flag, keywords)), in the
# order of the top-level help; every subcommand also takes --format and
# --verbose-labels, after its own arguments
_COMMANDS = {
    "restrict": ("expand a Grassmannian class on the symplectic Grassmannian", _cmd_restrict,
                 (_LAMBDA, ("--k", _REQUIRED_INT), ("--n", _REQUIRED_INT))),
    "product": ("two-step flag product of two Grassmannian classes", _cmd_product,
                (_LAMBDA, _MU, ("--n", _REQUIRED_INT))),
    "enumerate": ("list puzzle labelings with fugacities", _cmd_enumerate, (
        ("--family", {"choices": ("triangle", "half"), "required": True}),
        ("--n", _REQUIRED_INT),
        ("--nw", {"help": "northwest boundary (triangle: length n; half: length 2n)"}),
        ("--ne", {"help": "northeast boundary (triangle only)"}),
        ("--south", {"help": "south boundary (length n)"}),
    )),
    "restriction-at-point": ("restrict a Schubert class to a fixed point",
                             _cmd_restriction_at_point, (
        ("--space", {"choices": ("gr", "spgr", "fl"), "required": True}),
        _LAMBDA, _MU, ("--j", _INT), ("--k", _INT), ("--m", _INT), ("--n", _INT),
    )),
    "verify-identities": ("check the crossing/bounce/split matrix identities",
                          _cmd_verify_identities, ()),
    "crosscheck": ("fixed-point verification sweeps", _cmd_crosscheck, (
        ("--which", {"choices": ("restriction", "product"), "required": True}),
        ("--j", _INT), ("--k", _INT), ("--n", _INT),
    )),
    "duality": ("nonequivariant duality symmetry sweep", _cmd_duality,
                (("--k", _REQUIRED_INT), ("--m", _REQUIRED_INT))),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with every subcommand, or with `command` alone.

    A parser with one subcommand parses that subcommand's arguments exactly
    as the full parser does; its metavar keeps the full list of subcommands
    in the top-level usage line that errors print."""
    parser = argparse.ArgumentParser(
        prog="schubpuzzles",
        description="Exact Schubert-calculus expansions by puzzle enumeration, "
        "cross-checked against fixed-point restrictions.",
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        names = _COMMANDS
    else:
        metavar = "{" + ",".join(_COMMANDS) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
        names = (command,)
    for name in names:
        help_text, handler, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--verbose-labels",
            action="store_true",
            help="write strings as comma-separated tokens instead of compact digits",
        )
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a query that names its subcommand first builds only that subparser
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
