"""Decision networks: variables, valuations, precedence arcs and validation.

The precedence relation is the transitive closure of the declared arcs,
kept as one bitset per variable of the variables it precedes; ``X > Y``
means X comes before Y chronologically, so Y must be eliminated first.
Validation checks the coverage conditions (every decision in some
utility, every random in some potential), the five precedence constraints,
the one-conditional-per-random assumption, and that every potential really
is conditional on its parents.
"""

from __future__ import annotations

import heapq
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

        self._reach = self._report = None

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.arcs == other.arcs
            and self.utilities == other.utilities
            and self.potentials == other.potentials
        )

    def _precedence(self):
        """Per declared variable, the bitset of the variables it precedes; bit i is the i-th declared."""
        if self._reach is None:
            index = self.decl_index
            reach = [0] * len(self.variables)
            for x, y in self.arcs:
                reach[index[x]] |= 1 << index[y]
            # Warshall's algorithm: whatever reaches k reaches all that k reaches.
            for k in range(len(reach)):
                via = reach[k]
                reach = [r | via if r >> k & 1 else r for r in reach]
            self._reach = tuple(reach)
        return self._reach

    def before(self, x, y):
        """True iff x chronologically precedes y (x > y in elimination terms)."""
        i, j = self.decl_index.get(x), self.decl_index.get(y)
        return i is not None and j is not None and bool(self._precedence()[i] >> j & 1)


def validate(network):
    """Check well-definedness once per network; the cached report has one finding per failure."""
    if network._report is None:
        network._report = ValidationReport(tuple(_findings(network)))
    return network._report


def _findings(net):
    reach = net._precedence()
    index = net.decl_index
    decisions = [index[d.name] for d in net.decisions]
    randoms = [index[r.name] for r in net.randoms]
    name = [v.name for v in net.variables]
    domains = [p.domain for p in net.potentials]

    covered = set().union(*(u.domain for u in net.utilities))
    for d in net.decisions:
        if d.name not in covered:
            yield Finding("a", "decision variable %r appears in no utility valuation" % d.name)
    pot_cover = set().union(*domains)
    for r in net.randoms:
        if r.name not in pot_cover:
            yield Finding("b", "random variable %r appears in no potential" % r.name)

    cyclic = sorted(name[i] for i, after in enumerate(reach) if after >> i & 1)
    if cyclic:
        yield Finding("p1", "precedence closure is not irreflexive (cycle through %s)" % ", ".join(cyclic))

    for d in decisions:
        for r in randoms:
            if not (reach[d] >> r & 1 or reach[r] >> d & 1):
                yield Finding("p2", "decision %r and random %r are incomparable" % (name[d], name[r]))

    for p, domain in zip(net.potentials, domains):
        head = index[p.head.name]
        for d in decisions:
            if name[d] in domain and not reach[d] >> head & 1:
                yield Finding(
                    "p3",
                    "conditional potential for %r contains decision %r which does not precede it"
                    % (p.head.name, name[d]),
                )

    for domain in domains:
        randoms_in = sum(1 << index[n] for n in domain if net.by_name[n].kind == RANDOM)
        for d in decisions:
            if name[d] in domain and not reach[d] & randoms_in:
                yield Finding(
                    "p4",
                    "potential on %r contains decision %r preceding none of its random variables"
                    % (sorted(domain), name[d]),
                )

    if decisions:
        # A decision lies strictly between r1 and r2 iff r2 comes after some
        # decision that comes after r1, or the same with r1 and r2 swapped.
        later = [0] * len(reach)
        for r in randoms:
            for d in decisions:
                if reach[r] >> d & 1:
                    later[r] |= reach[d]
        for k, r1 in enumerate(randoms):
            for r2 in randoms[k + 1:]:
                if not (later[r1] >> r2 & 1 or later[r2] >> r1 & 1):
                    yield Finding(
                        "p5",
                        "no decision variable lies strictly between randoms %r and %r"
                        % (name[r1], name[r2]),
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
                if not reach[index[parent.name]] >> index[r.name] & 1:
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

    A variable is minimal when it precedes no other remaining variable; ties
    break by declaration order.  Under the closure of the arcs that holds iff
    no arc leads from it to another remaining variable, so each variable
    counts its remaining direct successors, a self-loop aside, and a heap
    holds the declaration indexes of those with none (Kahn's algorithm).
    """
    index = network.decl_index
    successors = [0] * len(network.variables)
    predecessors = [[] for _ in network.variables]
    for x, y in network.arcs:
        if x != y:
            successors[index[x]] += 1
            predecessors[index[y]].append(index[x])
    ready = [i for i, count in enumerate(successors) if not count]  # ascending, so a heap
    order = []
    while ready:
        pick = heapq.heappop(ready)
        order.append(network.variables[pick].name)
        for i in predecessors[pick]:
            successors[i] -= 1
            if not successors[i]:
                heapq.heappush(ready, i)
    if len(order) < len(network.variables):
        raise NetworkError("precedence relation is cyclic; no minimal variable")
    return tuple(order)
