"""Command line interface: check, solve, sweep and marginal subcommands."""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .calculus import check_lambda, marginalize
from .errors import ProblemFormatError, ValnetError
from .model import DIAMOND, _projector, values_reader
from .network import validate
from .problemfile import parse_problem
from .solver import lambda_sweep, propagate_marginal, solve

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a pipeline cut short


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
        with open(args.file, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except UnicodeDecodeError as exc:
        print("error: %r is not UTF-8 text: %s" % (args.file, exc), file=sys.stderr)
        return EXIT_PARSE
    try:
        code = args.run(parse_problem(text), args)
        sys.stdout.flush()
        return code
    except ProblemFormatError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except ValnetError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except BrokenPipeError:
        # The reader has gone, as in ``valnet solve ... | head``.  Python
        # flushes stdout again at exit, so point it at devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


def _report_invalid(network):
    """Print the network's validation findings to stderr; True if it has any."""
    report = validate(network)
    if not report.ok:
        _write(report.lines(), sys.stderr)
    return not report.ok


def _write(lines, stream=None):
    """Write the lines to ``stream`` (stdout by default) in one call."""
    (stream or sys.stdout).write("".join([line + "\n" for line in lines]))


def cmd_check(problem, args):
    if _report_invalid(problem.network):
        return EXIT_INVALID
    _write(["ok: network is well-defined"])
    return EXIT_OK


def _fmt(value):
    return "%.6g" % value


def _formatter(network, names):
    """Function from a configuration over ``names`` to its values in declaration order."""
    read = values_reader(names, tuple(sorted(names, key=network.decl_index.__getitem__)))
    return lambda cfg: " ".join(read(cfg))


def _psi_tables(network, result):
    """(decision, table, formatter for its contexts) per solution table, in declaration order."""
    return [
        (v.name, table, _formatter(network, table.context))
        for v in network.variables
        if (table := result.solutions.get(v.name)) is not None
    ]


def _strategy_parts(network, result):
    """(decision, context, act) per strategy entry, in declaration order."""
    tables = result.strategy.tables
    parts = []
    for v in network.variables:
        if v.name in tables:
            names, mapping = tables[v.name]
            fmt = _formatter(network, names)
            parts += [(v.name, fmt(cfg), act) for cfg, act in sorted(mapping.items())]
    return parts


def cmd_solve(problem, args):
    network = problem.network
    lam = args.lam if args.lam is not None else problem.lam
    if lam is None:
        print("error: no lambda given (use --lambda or a lambda line in the file)", file=sys.stderr)
        return EXIT_PARSE
    if _report_invalid(network):
        return EXIT_INVALID
    result = solve(network, lam)

    lines = []
    if args.trace:
        for index, step in enumerate(result.trace, 1):
            lines += _step_lines(network, index, step, result.lam)
            lines.append("")
    if args.machine:
        lines.append("# record\tname\tcontext\tvalue")
        lines.append("value\t\t\t%r" % result.expected_value)
        for name, table, fmt in _psi_tables(network, result):
            lines += [
                "psi\t%s\t%s\t%s" % (name, fmt(cfg), act) for cfg, act in sorted(table.choices.items())
            ]
        lines += ["strategy\t%s\t%s\t%s" % part for part in _strategy_parts(network, result)]
    else:
        lines.append("lambda %s" % _fmt(lam))
        lines.append("expected value %s" % _fmt(result.expected_value))
        for name, table, fmt in _psi_tables(network, result):
            if not table.context:
                lines.append("Psi[%s]: %s" % (name, table.choices.get(DIAMOND, "")))
                continue
            parts = ["%s -> %s" % (fmt(cfg), act) for cfg, act in sorted(table.choices.items())]
            lines.append("Psi[%s]: %s" % (name, "; ".join(parts)))
        parts = [
            "%s = %s" % ("%s(%s)" % (name, ctx) if ctx else name, act)
            for name, ctx, act in _strategy_parts(network, result)
        ]
        lines.append("strategy: %s" % "; ".join(parts))
    _write(lines)
    return EXIT_OK


def _step_lines(network, index, step, lam):
    """The --trace table of one fusion step."""
    decl = [v.name for v in network.variables]
    domain = ", ".join(n for n in decl if n in step.combined.domain)
    lines = ["step %d: eliminate %s (%s), domain {%s}" % (index, step.variable, step.kind, domain)]
    labels = [v.label or ("input%d" % i) for i, v in enumerate(step.inputs)]
    header = ["focal", "config"] + labels + ["combined", "marginal"]
    if step.solution is not None:
        header.append("Psi[%s]" % step.variable)
    rows = []
    names = tuple(sorted(step.combined.domain))
    to_rest = _projector(names, step.result.domain)
    to_inputs = [_projector(names, v.domain) for v in step.inputs]
    variable = network.by_name[step.variable]
    fmt = _formatter(network, step.combined.domain)
    for j, focal in enumerate(step.combined.focals):
        # A valid network joins one focal per input into each combined focal.
        (sources,) = step.provenance[j]
        # What this focal contributes to the result is its marginal alone.
        alone = step.combined._replace(focals=(focal,))
        marginal = marginalize(alone, variable, lam)[0].focals[0].values
        ordered = sorted(focal.support, key=lambda z: (to_rest(z), z))
        seen = set()
        for z in ordered:
            x = to_rest(z)
            cells = [str(j + 1) if z == ordered[0] else "", fmt(z)]
            for v, i, project in zip(step.inputs, sources, to_inputs):
                cells.append(_fmt(v.focals[i].values[project(z)]))
            cells.append(_fmt(focal.values[z]))
            if x not in seen:
                seen.add(x)
                cells.append(_fmt(marginal[x]))
                if step.solution is not None:
                    cells.append(step.solution.choices[x])
            else:
                cells.append("")
                if step.solution is not None:
                    cells.append("")
            rows.append(cells)
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    return lines


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
        lines = ["# record\tlambda\tvalue\tstrategy"]
        lines += [
            "sweep\t%r\t%r\t%s" % (r.lam, r.expected_value, _fingerprint(network, r))
            for r in results
        ]
    else:
        lines = ["lambda  value  strategy"]
        lines += [
            "%s  %s  %s" % (_fmt(r.lam), _fmt(r.expected_value), _fingerprint(network, r))
            for r in results
        ]
    _write(lines)
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
    fmt = _formatter(network, marginal.domain)
    if args.machine:
        lines = ["# record\tmass\tfocal"]
        for f in marginal.focals:
            members = "|".join([fmt(x) for x in sorted(f.support)])
            lines.append("focal\t%r\t%s" % (f.mass, members))
    else:
        lines = ["marginal bpa for %s" % args.target]
        for f in marginal.focals:
            members = ", ".join([fmt(x) for x in sorted(f.support)])
            lines.append("%s  {%s}" % (_fmt(f.mass), members))
    _write(lines)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
