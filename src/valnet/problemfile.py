"""Line-oriented problem files: variables, arcs, utility and bpa tables.

Files are UTF-8 text and may start with a byte order mark (the CLI reads
them as ``utf-8-sig``); ``parse_problem`` takes the decoded text.  Lines
break wherever ``str.splitlines`` breaks them.

Grammar (one statement per logical line, ``#`` starts a comment, braces may
span lines):

    decision NAME { v1, v2, ... }
    random NAME { v1, v2, ... }
    prec X -> Y
    utility LABEL on {X, Y} { x y = VALUE; ... }
    bpa LABEL on {R | P1, P2} { p1 p2 : {r1, r2} = MASS; ... }
    bpa LABEL on {R} { {r1, r2} = MASS; ... }
    lambda = VALUE
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from itertools import accumulate, compress, repeat

from .calculus import check_lambda
from .errors import ProblemFormatError, SolverError, ValnetError
from .model import Variable, config_judge, listed_configs, values_reader
from .network import Network
from .valuation import _domain, conditional, make_utility

_NAME = r"[A-Za-z_]\w*"
_TOKEN = r"[^\s{},;:=|#]+"

_VARIABLE = re.compile(r"(?:decision|random)\s+(%s)\s*\{(.*)\}\s*" % _NAME)
_LABEL = re.compile(_TOKEN)
_PREC = re.compile(r"prec\s+(%s)\s*->\s*(%s)\s*" % (_NAME, _NAME))
_UTILITY = re.compile(r"utility\s+(%s)\s+on\s*\{([^}|]*)\}\s*\{(.*)\}\s*" % _NAME, re.S)
_UTILITY_ENTRY = re.compile(r"((?:%s\s+)*%s)\s*=\s*(%s)" % (_TOKEN, _TOKEN, _TOKEN))
_BPA = re.compile(r"bpa\s+(%s)\s+on\s*\{\s*(%s)\s*(?:\|([^}]*))?\}\s*\{(.*)\}\s*" % (_NAME, _NAME), re.S)
_BPA_ENTRY = re.compile(r"(?:((?:%s\s+)*%s)\s*:)?\s*\{([^}]*)\}\s*=\s*(%s)" % (_TOKEN, _TOKEN, _TOKEN))
_LAMBDA = re.compile(r"lambda\s*=\s*(%s)\s*" % _TOKEN)


ParsedProblem = namedtuple("ParsedProblem", "network lam", defaults=(None,))


def _statements(text):
    """Split comment-stripped text into brace-balanced statements.

    Lines are numbered as ``str.splitlines`` breaks them.  A statement ends
    on the first line after which the running brace depth is back to zero.
    The depths come from per-line brace counts, so only the lines that end
    at depth zero are visited one by one, and a block is one slice of lines.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    opens = map(str.count, lines, repeat("{"))
    closes = map(str.count, lines, repeat("}"))
    depths = list(accumulate(map(operator.sub, opens, closes)))
    if depths and min(depths) < 0:
        raise ProblemFormatError("unbalanced '}'", next(i for i, d in enumerate(depths) if d < 0) + 1)
    out = []
    start = 0  # the line after the last statement
    for end in compress(range(len(lines)), map(operator.not_, depths)):
        if end > start:  # line ``start`` opened a block
            out.append((start + 1, " ".join(lines[start:end + 1]).strip()))
        elif stmt := lines[end].strip():
            out.append((end + 1, stmt))
        start = end + 1
    if start < len(lines):
        raise ProblemFormatError("unterminated '{'", start + 1)
    return out


def _split(body, sep):
    return [t for t in map(str.strip, body.split(sep)) if t]


def _parse_number(token, lineno, what="number"):
    try:
        value = float(token)
    except ValueError:
        raise ProblemFormatError("bad %s %r" % (what, token), lineno)
    if not math.isfinite(value):
        raise ProblemFormatError("%s %r is not finite" % (what, token), lineno)
    return value


class _Builder:
    def __init__(self):
        self.variables = []
        self.by_name = {}
        self.arcs = []
        self.utilities = []
        self.potentials = []
        self.labels = set()
        self.lam = None

    def need_var(self, name, lineno):
        var = self.by_name.get(name)
        if var is None:
            raise ProblemFormatError("unknown variable %r" % name, lineno)
        return var

    def need_value(self, var, value, lineno):
        if value not in var.frame:
            raise ProblemFormatError(
                "%r is not a value of variable %r" % (value, var.name), lineno
            )
        return value

    def claim_label(self, label, lineno):
        if label in self.labels:
            raise ProblemFormatError("duplicate declaration of %r" % label, lineno)
        self.labels.add(label)


def parse_problem(text):
    """Parse problem text into a network plus an optional weighting factor.

    The parser checks tokens; the library constructors judge what they
    build, and their ``ValnetError`` gets the statement's line number here.
    The ballooning limit's ``SolverError`` passes through as it is.
    """
    b = _Builder()
    for lineno, stmt in _statements(text):
        head = stmt.split(None, 1)[0]
        try:
            if head in ("decision", "random"):
                _parse_variable(b, head, stmt, lineno)
            elif head == "prec":
                _parse_prec(b, stmt, lineno)
            elif head == "utility":
                _parse_utility(b, stmt, lineno)
            elif head == "bpa":
                _parse_bpa(b, stmt, lineno)
            elif head == "lambda":
                _parse_lambda(b, stmt, lineno)
            else:
                raise ProblemFormatError("unknown statement %r" % head, lineno)
        except (ProblemFormatError, SolverError):
            raise
        except ValnetError as exc:
            raise ProblemFormatError(str(exc), lineno)
    if not b.variables:
        raise ProblemFormatError("no variables declared", 1)
    network = Network(b.variables, b.utilities, b.potentials, b.arcs)
    return ParsedProblem(network, b.lam)


def _parse_variable(b, kind, stmt, lineno):
    m = _VARIABLE.fullmatch(stmt)
    if not m:
        raise ProblemFormatError("malformed %s declaration" % kind, lineno)
    name, frame = m.group(1), _split(m.group(2), ",")
    for label in frame:
        if not _LABEL.fullmatch(label):
            raise ProblemFormatError(
                "frame value %r of variable %r is not a single token" % (label, name), lineno
            )
    if name in b.by_name:
        raise ProblemFormatError("duplicate declaration of variable %r" % name, lineno)
    b.by_name[name] = var = Variable(name, kind, frame)
    b.variables.append(var)


def _parse_prec(b, stmt, lineno):
    m = _PREC.fullmatch(stmt)
    if not m:
        raise ProblemFormatError("malformed prec statement (expected 'prec X -> Y')", lineno)
    x = b.need_var(m.group(1), lineno)
    y = b.need_var(m.group(2), lineno)
    b.arcs.append((x.name, y.name))


def _parse_utility(b, stmt, lineno):
    m = _UTILITY.fullmatch(stmt)
    if not m:
        raise ProblemFormatError("malformed utility statement", lineno)
    label, var_body, body = m.groups()
    b.claim_label(label, lineno)
    names = _split(var_body, ",")
    variables = [b.need_var(n, lineno) for n in names]
    _domain(variables)  # a repeated variable is refused before any row is read
    entries = _split(body, ";")
    read = _row_reader(b, variables, len(entries), lineno, "utility entry %r needs one value per variable of %r")
    table = {}
    for entry in entries:
        m2 = _UTILITY_ENTRY.fullmatch(entry)
        if not m2:
            raise ProblemFormatError("malformed utility entry %r" % entry, lineno)
        row, number = m2.groups()
        cfg = read(tuple(row.split()), entry)
        if cfg in table:
            raise ProblemFormatError("duplicate utility entry %r" % entry, lineno)
        table[cfg] = _parse_number(number, lineno, "utility value")
    b.utilities.append(make_utility(variables, table, label=label))


def _row_reader(b, variables, rows, lineno, needs):
    """Function from a row's values, listed as ``variables`` are, and its entry to its configuration.

    A statement of at least as many ``rows`` as the frame product looks its
    rows up in that product; a shorter one, which cannot be complete, judges
    each row alone and never builds the product.  A row that is not a
    configuration raises ``needs`` (formatted with the entry and the names)
    or names its first bad token.
    """
    names = [v.name for v in variables]
    frames = {v.name: v.frame for v in variables}
    if rows >= math.prod(len(v.frame) for v in variables):
        lookup = listed_configs(names, frames).get
    else:
        judge = config_judge(names, frames)
        lookup = lambda tokens: judge(tokens, listed=True)

    def read(tokens, entry):
        cfg = lookup(tokens)
        if cfg is None:  # name the first bad token
            if len(tokens) != len(variables):
                raise ProblemFormatError(needs % (entry, names), lineno)
            for v, t in zip(variables, tokens):
                b.need_value(v, t, lineno)
        return cfg

    return read


def _parse_bpa(b, stmt, lineno):
    m = _BPA.fullmatch(stmt)
    if not m:
        raise ProblemFormatError("malformed bpa statement", lineno)
    label, head_name, parent_body, body = m.groups()
    b.claim_label(label, lineno)
    head = b.need_var(head_name, lineno)
    parent_names = _split(parent_body or "", ",")
    parents = [b.need_var(n, lineno) for n in parent_names]
    entries = _split(body, ";")
    read = _row_reader(b, parents, len(entries), lineno, "bpa entry %r needs one value per parent of %r")
    head_frame = frozenset(head.frame)
    tables = {}
    for entry in entries:
        m2 = _BPA_ENTRY.fullmatch(entry)
        if not m2:
            raise ProblemFormatError("malformed bpa entry %r" % entry, lineno)
        cfg = read(tuple((m2.group(1) or "").split()), entry)
        tokens = _split(m2.group(2), ",")
        subset = frozenset(tokens)
        if not subset <= head_frame:  # name the first bad token
            for t in tokens:
                b.need_value(head, t, lineno)
        mass = _parse_number(m2.group(3), lineno, "mass")
        tables.setdefault(cfg, []).append((subset, mass))
    b.potentials.append(conditional(head, parents, tables, label=label))


def _parse_lambda(b, stmt, lineno):
    m = _LAMBDA.fullmatch(stmt)
    if not m:
        raise ProblemFormatError("malformed lambda statement", lineno)
    if b.lam is not None:
        raise ProblemFormatError("duplicate lambda declaration", lineno)
    b.lam = check_lambda(_parse_number(m.group(1), lineno, "lambda"))


def serialize(network, lam=None):
    """Render a network back into the problem-file format."""
    lines = []
    for v in network.variables:
        lines.append("%s %s { %s }" % (v.kind, v.name, ", ".join(v.frame)))
    if network.arcs:
        lines.append("")
    order = {n: i for i, n in enumerate(network.by_name)}
    for x, y in sorted(network.arcs, key=lambda a: (order[a[0]], order[a[1]])):
        lines.append("prec %s -> %s" % (x, y))
    decl = [v.name for v in network.variables]
    for i, u in enumerate(network.utilities):
        names = sorted(u.domain, key=decl.index)
        read = values_reader(u.domain, tuple(names))
        rows = ["  %s = %r" % (" ".join(read(cfg)), value) for cfg, value in u.focals[0].values.items()]
        lines.append("")
        lines.append("utility %s on {%s} {" % (u.label or "u%d" % i, ", ".join(names)))
        lines.append(";\n".join(rows))
        lines.append("}")
    for i, p in enumerate(network.potentials):
        pnames = [q.name for q in p.parents]
        scope = p.head.name if not pnames else "%s | %s" % (p.head.name, ", ".join(pnames))
        read = values_reader(tuple(pnames), tuple(pnames))
        rows = []
        for cfg, entries in p.tables.items():
            prefix = " ".join(read(cfg))
            for subset, mass in entries:
                members = ", ".join(sorted(subset, key=list(p.head.frame).index))
                entry = "{%s} = %r" % (members, mass)
                rows.append("  %s : %s" % (prefix, entry) if pnames else "  " + entry)
        lines.append("")
        lines.append("bpa %s on {%s} {" % (p.label or "b%d" % i, scope))
        lines.append(";\n".join(rows))
        lines.append("}")
    if lam is not None:
        lines.append("")
        lines.append("lambda = %r" % lam)
    return "\n".join(lines) + "\n"
