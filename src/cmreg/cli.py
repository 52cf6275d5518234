"""Command-line driver: session file in, one report out.

    cmreg gb session.reg -i I
    cmreg powers session.reg -i I --tmax 4 --json
    cmreg fibers session.reg -s P --ext-bound 2

Exit codes: 0 success; 1 a mathematical hypothesis fails (non-finite
projection, wrong dimension, violated self-check); 2 usage or parse error;
3 resource ceiling (degree ceiling, enumeration budget).  Reports go to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__, reports
from .asymptotics import (
    DEFAULT_WINDOW,
    bound_report,
    conjecture_sampler,
    epsilon_containment,
    power_table,
)
from .errors import HypothesisError, ResourceError, UsageError
from .geometry import (
    DEFAULT_EXTENSION_BOUND,
    DEFAULT_FIBER_BUDGET,
    ProjectionSpec,
    _check_search,
    max_fiber_regularity,
    twovars_verify,
)
from .groebner import DEFAULT_DEGREE_CEILING, Ideal
from .resolution import betti_table, regularity
from .sessions import parse_session

DEFAULT_TMAX = 4


# prog is fixed and parsing keeps no state on the parser, so the first call
# of main builds the one parser that serves every later call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmreg",
        description="Regularity of ideals, their powers, and projection "
                    "fibers over finite fields.",
    )
    parser.add_argument("--version", action="version",
                        version=f"cmreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("session", help="session file (.reg)")
    common.add_argument("--json", action="store_true",
                        help="emit the JSON report instead of text")
    common.add_argument("--degree-ceiling", type=int,
                        default=DEFAULT_DEGREE_CEILING, metavar="D",
                        help="abort basis computations past this degree")

    ideal_arg = argparse.ArgumentParser(add_help=False)
    ideal_arg.add_argument("-i", "--ideal", required=True, metavar="NAME",
                           help="named ideal from the session")

    proj_arg = argparse.ArgumentParser(add_help=False)
    proj_arg.add_argument("-s", "--projection", required=True, metavar="NAME",
                          help="named projection from the session")

    tail_args = argparse.ArgumentParser(add_help=False)
    tail_args.add_argument("--tmax", type=int, default=DEFAULT_TMAX,
                           metavar="T", help="largest power to compute")
    tail_args.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                           metavar="W",
                           help="constant-tail length for stabilization")

    enum_args = argparse.ArgumentParser(add_help=False)
    enum_args.add_argument("--ext-bound", type=int,
                           default=DEFAULT_EXTENSION_BOUND, metavar="K",
                           help="enumerate points over GF(p^k), k <= K")
    enum_args.add_argument("--budget", type=int,
                           default=DEFAULT_FIBER_BUDGET, metavar="N",
                           help="maximum number of enumerated points")

    sub.add_parser("gb", parents=[common, ideal_arg],
                   help="reduced Groebner basis")
    sub.add_parser("reg", parents=[common, ideal_arg],
                   help="regularity of the ideal and its quotient")
    res = sub.add_parser("res", aliases=["betti"],
                         parents=[common, ideal_arg],
                         help="minimal free resolution and Betti table")
    res.add_argument("--of", choices=("quotient", "ideal"),
                     default="quotient",
                     help="resolve S/I (default) or I itself")
    powers = sub.add_parser("powers", parents=[common, ideal_arg, tail_args],
                            help="regularity of powers I^t")
    powers.add_argument("--route", choices=("resolution", "hilbert", "both"),
                        default="resolution",
                        help="how to compute each regularity")
    sub.add_parser("epsilon", parents=[common, proj_arg, tail_args],
                   help="containment degrees epsilon_t of a projection")
    sub.add_parser("bounds", parents=[common, proj_arg, tail_args],
                   help="compare epsilon with its upper bounds")
    sub.add_parser("fibers", parents=[common, proj_arg, tail_args, enum_args],
                   help="fiber regularities over closed points")
    twovars = sub.add_parser("twovars",
                             parents=[common, tail_args, enum_args],
                             help="two-variable invariant r and the power "
                                  "identity")
    twovars.add_argument("-f", "--forms", required=True, metavar="NAME",
                         help="named list of binary forms from the session")
    sample = sub.add_parser("sample", parents=[common, ideal_arg, tail_args],
                            help="random projections of a cone, empirical "
                                 "bound check")
    sample.add_argument("-c", type=int, default=1, metavar="C",
                        help="codimension step of the sampled projections")
    sample.add_argument("--trials", type=int, default=20, metavar="N",
                        help="number of random draws")
    sample.add_argument("--seed", type=int, default=0, metavar="S",
                        help="root seed; each trial derives its own stream")
    return parser


def _load_session(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read session file {path}: {exc}") from exc
    return parse_session(text)


def _named(table: dict, name: str, kind: str):
    if name not in table:
        known = ", ".join(sorted(table)) or "none declared"
        raise UsageError(f"unknown {kind} {name!r} (known: {known})")
    return table[name]


def _session_ideal(session, name: str, ceiling: int) -> Ideal:
    return Ideal(session.ring, _named(session.ideals, name, "ideal"), ceiling)


def _session_projection(session, name: str, ceiling: int):
    ideal_name, forms_name = _named(session.projections, name, "projection")
    I = Ideal(session.ring, session.ideals[ideal_name], ceiling)
    return I, session.forms[forms_name]


def _run(args) -> reports.Report:
    session = _load_session(args.session)
    ring = session.ring
    ceiling = args.degree_ceiling
    if ceiling < 1:
        raise UsageError("degree ceiling must be positive")
    cmd = args.command

    if cmd == "gb":
        I = _session_ideal(session, args.ideal, ceiling)
        return reports.gb_report(args.ideal, ring, I.groebner_basis())

    if cmd == "reg":
        I = _session_ideal(session, args.ideal, ceiling)
        reg_q = regularity(I, "quotient")
        return reports.reg_report(args.ideal, ring, reg_q + 1, reg_q)

    if cmd in ("res", "betti"):
        I = _session_ideal(session, args.ideal, ceiling)
        betti = betti_table(I, args.of)
        return reports.res_report(args.ideal, ring, args.of, betti)

    if cmd == "powers":
        I = _session_ideal(session, args.ideal, ceiling)
        rep = power_table(I, args.tmax, route=args.route, window=args.window)
        return reports.powers_report(args.ideal, ring, rep)

    if cmd == "epsilon":
        I, forms = _session_projection(session, args.projection, ceiling)
        rep = epsilon_containment(I, forms, args.tmax, window=args.window)
        return reports.epsilon_report(args.projection, ring, rep)

    if cmd == "bounds":
        I, forms = _session_projection(session, args.projection, ceiling)
        rep = bound_report(I, forms, args.tmax, window=args.window)
        return reports.bounds_report(args.projection, ring, rep)

    if cmd == "fibers":
        I, forms = _session_projection(session, args.projection, ceiling)
        spec = ProjectionSpec(I, forms)
        _check_search(args.ext_bound, args.budget, "fiber", ring)
        eps_rep = epsilon_containment(I, forms, args.tmax,
                                      window=args.window)
        rep = max_fiber_regularity(spec, K=args.ext_bound,
                                   epsilon=eps_rep.epsilon,
                                   budget=args.budget)
        return reports.fibers_report(args.projection, ring, rep,
                                     extra_warnings=eps_rep.warnings)

    if cmd == "twovars":
        forms = _named(session.forms, args.forms, "forms list")
        verdict = twovars_verify(forms, args.tmax, K=args.ext_bound,
                                 window=args.window, budget=args.budget,
                                 degree_ceiling=ceiling)
        return reports.twovars_report(args.forms, ring, verdict)

    if cmd == "sample":
        I = _session_ideal(session, args.ideal, ceiling)
        rep = conjecture_sampler(I, args.c, args.trials, args.seed,
                                 t_max=args.tmax, window=args.window)
        return reports.sample_report(args.ideal, ring, rep)

    raise UsageError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = _run(args)
    except (UsageError, HypothesisError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        partial = getattr(exc, "partial", None)
        if hasattr(partial, "max_regularity"):
            print(f"partial lower bound: max fiber regularity >= "
                  f"{partial.max_regularity}", file=sys.stderr)
        elif hasattr(partial, "r"):
            print(f"partial lower bound: r >= {partial.r}", file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
