"""Command line interface: check, solve, sweep and marginal subcommands."""

from __future__ import annotations

import argparse
import functools
import sys

from .calculus import check_lambda
from .errors import ProblemFormatError, ValnetError
from .model import DIAMOND, project_config
from .network import validate
from .problemfile import parse_problem
from .solver import lambda_sweep, propagate_marginal, solve

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3


def _lambda_arg(text):
    try:
        return check_lambda(text)
    except ValnetError as exc:
        raise argparse.ArgumentTypeError(str(exc))


@functools.cache
def build_parser():
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="valnet",
        description="Solve decision problems under belief-function uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a problem file")
    p_check.add_argument("file")
    p_check.set_defaults(run=cmd_check)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("file")
    p_solve.add_argument("--lambda", dest="lam", type=_lambda_arg, default=None)
    p_solve.add_argument("--trace", action="store_true")
    p_solve.add_argument("--machine", action="store_true")
    p_solve.set_defaults(run=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="solve over a grid of weighting factors")
    p_sweep.add_argument("file")
    p_sweep.add_argument(
        "--lambdas", required=True,
        help="comma-separated weighting factors; write a grid that starts with '-' as --lambdas=-0,1",
    )
    p_sweep.add_argument("--machine", action="store_true")
    p_sweep.set_defaults(run=cmd_sweep)

    p_marg = sub.add_parser("marginal", help="marginal bpa of one variable")
    p_marg.add_argument("file")
    p_marg.add_argument("--target", required=True)
    p_marg.add_argument("--machine", action="store_true")
    p_marg.set_defaults(run=cmd_marginal)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.run(parse_problem(text), args)
    except ProblemFormatError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except ValnetError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER


def _report_invalid(network):
    """Print the network's validation findings to stderr; True if it has any."""
    report = validate(network)
    for line in report.lines():
        print(line, file=sys.stderr)
    return not report.ok


def cmd_check(problem, args):
    if _report_invalid(problem.network):
        return EXIT_INVALID
    print("ok: network is well-defined")
    return EXIT_OK


def _fmt(value):
    return "%.6g" % value


def _decl_order(network):
    return [v.name for v in network.variables]


def _fmt_config(cfg, decl):
    if cfg == DIAMOND:
        return "<>"
    values = dict(cfg)
    return " ".join(values[n] for n in decl if n in values)


def _psi_lines(network, result):
    decl = _decl_order(network)
    out = []
    for name in decl:
        table = result.solutions.get(name)
        if table is None:
            continue
        if not table.context:
            out.append("Psi[%s]: %s" % (name, table.choices.get(DIAMOND, "")))
            continue
        parts = [
            "%s -> %s" % (_fmt_config(cfg, decl), act)
            for cfg, act in sorted(table.choices.items())
        ]
        out.append("Psi[%s]: %s" % (name, "; ".join(parts)))
        if table.conflicts:
            out.append(
                "warning: Psi[%s] has conflicting per-focal preferences at %s"
                % (name, ", ".join(_fmt_config(c, decl) for c in sorted(table.conflicts)))
            )
    return out


def _strategy_parts(network, result):
    decl = _decl_order(network)
    parts = []
    for name in decl:
        entry = result.strategy.tables.get(name)
        if entry is None:
            continue
        names, mapping = entry
        if not names:
            parts.append(("%s" % name, "", mapping[DIAMOND]))
        else:
            for cfg, act in sorted(mapping.items()):
                parts.append((name, _fmt_config(cfg, decl), act))
    return parts


def cmd_solve(problem, args):
    network = problem.network
    lam = args.lam if args.lam is not None else problem.lam
    if lam is None:
        print("error: no lambda given (use --lambda or a lambda line in the file)", file=sys.stderr)
        return EXIT_PARSE
    if _report_invalid(network):
        return EXIT_INVALID
    result = solve(network, lam, trace=args.trace)

    if args.trace and result.trace:
        for index, step in enumerate(result.trace, 1):
            _print_step(network, index, step)
            print()
    if args.machine:
        print("# record\tname\tcontext\tvalue")
        print("value\t\t\t%r" % result.expected_value)
        decl = _decl_order(network)
        for name in decl:
            table = result.solutions.get(name)
            if table is None:
                continue
            for cfg, act in sorted(table.choices.items()):
                ctx = "" if cfg == DIAMOND else _fmt_config(cfg, decl)
                print("psi\t%s\t%s\t%s" % (name, ctx, act))
        for name, ctx, act in _strategy_parts(network, result):
            print("strategy\t%s\t%s\t%s" % (name, ctx, act))
    else:
        print("lambda %s" % _fmt(lam))
        print("expected value %s" % _fmt(result.expected_value))
        for line in _psi_lines(network, result):
            print(line)
        parts = [
            "%s = %s" % ("%s(%s)" % (name, ctx) if ctx else name, act)
            for name, ctx, act in _strategy_parts(network, result)
        ]
        print("strategy: %s" % "; ".join(parts))
    return EXIT_OK


def _print_step(network, index, step):
    decl = _decl_order(network)
    print(
        "step %d: eliminate %s (%s), domain {%s}"
        % (
            index,
            step.variable,
            step.kind,
            ", ".join(n for n in decl if n in step.combined.domain),
        )
    )
    labels = [v.label or ("input%d" % i) for i, v in enumerate(step.inputs)]
    contrib = {}
    for group in step.contributions:
        contrib.update(group)

    header = ["focal", "config"] + labels + ["combined", "marginal"]
    if step.solution is not None:
        header.append("Psi[%s]" % step.variable)
    rows = []
    rest = step.result.domain
    for j, focal in enumerate(step.combined.focals):
        sources = step.provenance[j]
        single = sources[0] if len(sources) == 1 else None
        ordered = sorted(
            focal.support,
            key=lambda z: (project_config(z, rest), z),
        )
        seen = set()
        for z in ordered:
            x = project_config(z, rest)
            cells = [str(j + 1) if z == ordered[0] else "", _fmt_config(z, decl)]
            for k, v in enumerate(step.inputs):
                if single is None:
                    cells.append("")
                else:
                    src = v.focals[single[k]]
                    proj = project_config(z, v.domain)
                    cells.append(_fmt(src.values[proj]) if proj in src.values else "")
            cells.append(_fmt(focal.values[z]))
            if x not in seen:
                seen.add(x)
                cells.append(_fmt(contrib.get((j, x), 0.0)))
                if step.solution is not None:
                    cells.append(step.solution.choices.get(x, ""))
            else:
                cells.append("")
                if step.solution is not None:
                    cells.append("")
            rows.append(cells)
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def cmd_sweep(problem, args):
    network = problem.network
    try:
        grid = [_lambda_arg(t) for t in args.lambdas.split(",") if t.strip()]
    except argparse.ArgumentTypeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    if not grid:
        print("error: empty lambda grid", file=sys.stderr)
        return EXIT_PARSE
    if len(set(grid)) != len(grid):
        print("note: duplicate lambda values removed", file=sys.stderr)
    if _report_invalid(network):
        return EXIT_INVALID
    results = lambda_sweep(network, grid)
    if args.machine:
        print("# record\tlambda\tvalue\tstrategy")
        for r in results:
            print("sweep\t%r\t%r\t%s" % (r.lam, r.expected_value, _fingerprint(network, r)))
    else:
        print("lambda  value  strategy")
        for r in results:
            print("%s  %s  %s" % (_fmt(r.lam), _fmt(r.expected_value), _fingerprint(network, r)))
    return EXIT_OK


def _fingerprint(network, result):
    parts = [
        "%s=%s" % ("%s(%s)" % (name, ctx.replace(" ", ",")) if ctx else name, act)
        for name, ctx, act in _strategy_parts(network, result)
    ]
    return "|".join(parts)


def cmd_marginal(problem, args):
    network = problem.network
    # Pure-propagation networks have no decisions; p5 and friends are moot,
    # but structural findings (A1, b, d) still apply.
    if _report_invalid(network):
        return EXIT_INVALID
    marginal = propagate_marginal(network, args.target)
    decl = _decl_order(network)
    if args.machine:
        print("# record\tmass\tfocal")
        for f in marginal.focals:
            members = "|".join(_fmt_config(x, decl) for x in sorted(f.support))
            print("focal\t%r\t%s" % (f.mass, members))
    else:
        print("marginal bpa for %s" % args.target)
        for f in marginal.focals:
            members = ", ".join(_fmt_config(x, decl) for x in sorted(f.support))
            print("%s  {%s}" % (_fmt(f.mass), members))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
