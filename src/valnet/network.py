"""Decision networks: variables, valuations, precedence arcs and validation.

The precedence relation is the transitive closure of the declared arcs;
``X > Y`` means X comes before Y chronologically, so Y must be eliminated
first.  Validation checks the coverage conditions (every decision in some
utility, every random in some potential), the five precedence constraints,
the one-conditional-per-random assumption, and that every potential really
is conditional on its parents.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NetworkError
from .model import DECISION, RANDOM
from .valuation import UTILITY, frames_of, is_conditional


class Finding(namedtuple("Finding", "condition message")):
    __slots__ = ()

    def line(self):
        return "error %s %s" % (self.condition, self.message)


class ValidationReport(namedtuple("ValidationReport", "findings")):
    __slots__ = ()

    @property
    def ok(self):
        return not self.findings

    def lines(self):
        return [f.line() for f in self.findings]

    def conditions(self):
        return {f.condition for f in self.findings}


class Network:
    """A decision network: variables, utilities, conditional potentials, arcs."""

    def __init__(self, variables, utilities=(), potentials=(), arcs=()):
        self.variables = tuple(variables)
        self.utilities = tuple(utilities)
        self.potentials = tuple(potentials)
        self.arcs = frozenset((str(x), str(y)) for x, y in arcs)

        self.by_name = {}
        for v in self.variables:
            if v.name in self.by_name:
                raise NetworkError("duplicate variable %r" % v.name)
            self.by_name[v.name] = v
        self.frames = {v.name: v.frame for v in self.variables}
        self.decl_index = {v.name: i for i, v in enumerate(self.variables)}
        self.decisions = tuple(v for v in self.variables if v.kind == DECISION)
        self.randoms = tuple(v for v in self.variables if v.kind == RANDOM)

        declared = set(self.by_name)
        for x, y in self.arcs:
            for name in (x, y):
                if name not in declared:
                    raise NetworkError("arc references undeclared variable %r" % name)
        for u in self.utilities:
            if u.kind != UTILITY:
                raise NetworkError("non-utility valuation %r in utilities" % (u.label or u.kind))
        for p in self.potentials:
            if p.head.name not in declared or self.by_name[p.head.name] != p.head:
                raise NetworkError("potential head %r is not a declared variable" % p.head.name)
        pairs = [("utility", u.domain, u.frames) for u in self.utilities]
        pairs += [("potential", p.domain, frames_of(p.parents + (p.head,))) for p in self.potentials]
        for what, domain, frames in pairs:
            if not domain <= declared:
                raise NetworkError("%s over undeclared variables %r" % (what, sorted(domain - declared)))
            wrong = sorted(n for n in domain if frames[n] != self.frames[n])
            if wrong:
                raise NetworkError("%s frame for %r differs from its declaration" % (what, wrong[0]))

        self._closure = None
        self._report = None

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.arcs == other.arcs
            and self.utilities == other.utilities
            and self.potentials == other.potentials
        )

    def closure(self):
        """Transitive closure of the arcs, as a set of (before, after) pairs."""
        if self._closure is None:
            reach = {v.name: set() for v in self.variables}
            for x, y in self.arcs:
                reach[x].add(y)
            changed = True
            while changed:
                changed = False
                for x in reach:
                    extra = set()
                    for y in reach[x]:
                        extra |= reach[y]
                    if not extra <= reach[x]:
                        reach[x] |= extra
                        changed = True
            self._closure = frozenset((x, y) for x, ys in reach.items() for y in ys)
        return self._closure

    def before(self, x, y):
        """True iff x chronologically precedes y (x > y in elimination terms)."""
        return (x, y) in self.closure()


def validate(network):
    """Check well-definedness once per network; the cached report has one finding per failure."""
    if network._report is None:
        network._report = ValidationReport(tuple(_findings(network)))
    return network._report


def _findings(net):
    closure = net.closure()

    covered = set().union(*(u.domain for u in net.utilities)) if net.utilities else set()
    for d in net.decisions:
        if d.name not in covered:
            yield Finding("a", "decision variable %r appears in no utility valuation" % d.name)
    pot_cover = set().union(*(p.domain for p in net.potentials)) if net.potentials else set()
    for r in net.randoms:
        if r.name not in pot_cover:
            yield Finding("b", "random variable %r appears in no potential" % r.name)

    cyclic = sorted(x for x, y in closure if x == y)
    if cyclic:
        yield Finding("p1", "precedence closure is not irreflexive (cycle through %s)" % ", ".join(cyclic))

    for d in net.decisions:
        for r in net.randoms:
            if not net.before(d.name, r.name) and not net.before(r.name, d.name):
                yield Finding("p2", "decision %r and random %r are incomparable" % (d.name, r.name))

    for p in net.potentials:
        head = p.head.name
        for d in net.decisions:
            if d.name in p.domain and not net.before(d.name, head):
                yield Finding(
                    "p3",
                    "conditional potential for %r contains decision %r which does not precede it"
                    % (head, d.name),
                )

    for p in net.potentials:
        randoms_in = [v for v in p.domain if net.by_name[v].kind == RANDOM]
        for d in net.decisions:
            if d.name in p.domain and not any(net.before(d.name, r) for r in randoms_in):
                yield Finding(
                    "p4",
                    "potential on %r contains decision %r preceding none of its random variables"
                    % (sorted(p.domain), d.name),
                )

    if net.decisions:
        randoms = [r.name for r in net.randoms]
        for i, r1 in enumerate(randoms):
            for r2 in randoms[i + 1:]:
                between = any(
                    (net.before(r1, d.name) and net.before(d.name, r2))
                    or (net.before(r2, d.name) and net.before(d.name, r1))
                    for d in net.decisions
                )
                if not between:
                    yield Finding(
                        "p5",
                        "no decision variable lies strictly between randoms %r and %r" % (r1, r2),
                    )

    heads = {}
    for p in net.potentials:
        heads.setdefault(p.head.name, []).append(p)
    for r in net.randoms:
        owned = heads.get(r.name, [])
        if len(owned) != 1:
            yield Finding(
                "A1",
                "random variable %r has %d conditional potentials, expected exactly one"
                % (r.name, len(owned)),
            )
        for p in owned:
            for parent in p.parents:
                if not net.before(parent.name, r.name):
                    yield Finding(
                        "A1",
                        "parent %r of the potential for %r does not precede it"
                        % (parent.name, r.name),
                    )

    # Every potential passes by construction; the benchmark still times this scan.
    for p in net.potentials:
        if not is_conditional(p.ballooned, p.head.name):
            yield Finding(
                "d",
                "potential for %r does not marginalize to the vacuous belief function on its parents"
                % p.head.name,
            )


def elimination_order(network):
    """Deletion sequence: repeatedly take the minimal variable under >.

    A variable is minimal when nothing remaining comes after it; ties break by
    declaration order.
    """
    net = network
    closure = net.closure()
    remaining = [v.name for v in net.variables]
    order = []
    while remaining:
        pool = set(remaining)
        minimal = [
            x for x in remaining
            if not any((x, y) in closure for y in pool if y != x)
        ]
        if not minimal:
            raise NetworkError("precedence relation is cyclic; no minimal variable")
        pick = min(minimal, key=lambda n: net.decl_index[n])
        order.append(pick)
        remaining.remove(pick)
    return tuple(order)
