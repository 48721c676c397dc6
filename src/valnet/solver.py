"""Solving decision networks by successive variable elimination.

Each fusion step removes one variable: the valuations whose domain contains
it are combined (non-beliefs before beliefs) and marginalized; everything
else passes through untouched.  Eliminating a decision variable records a
solution table, and the tables compose into a strategy over the preceding
random variables.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .calculus import (
    check_lambda,
    combine_all,
    combine_all_traced,
    marginalize,
    marginalize_belief,  # not called here; the benchmark's tracer wraps this name
)
from .errors import DomainMismatchError, NetworkError, NotWellDefinedError, SolverError, ValnetError, _refuse_past
from .model import DIAMOND, DECISION, all_configs, extender, make_config, projector, value_reader, values_reader
from .network import elimination_order, validate

# Most configurations of the joint frame that ``oracle_solve`` combines over.
ORACLE_LIMIT = 10 ** 6
# Most entries that ``build_strategy`` enumerates over all decisions.
STRATEGY_LIMIT = 10 ** 5


class FusionStep(namedtuple("FusionStep", "variable kind inputs combined provenance result solution")):
    """One elimination step; ``solve`` keeps them in ``SolveResult.trace``, in elimination order."""

    __slots__ = ()


class Strategy(namedtuple("Strategy", "tables")):
    """An act for every decision variable as a function of earlier randoms.

    ``tables`` maps a decision name to (tuple of random names, {Config: act}),
    where the act is None for a context without mass.
    """

    __slots__ = ()

    def decide(self, decision, assignment):
        """Act for a decision given a {random variable: value} assignment.

        One lookup of the assignment's configuration in the decision's map.
        Raises NetworkError for a decision without a table,
        DomainMismatchError for a missing or out-of-frame value and
        SolverError for a context without mass.  Only the error reads the
        frames, as the values the map's configurations hold.
        """
        if decision not in self.tables:
            raise NetworkError("the strategy has no table for %r" % decision)
        names, mapping = self.tables[decision]
        key = make_config({n: assignment.get(n) for n in names})
        try:
            act = mapping[key]
        except (KeyError, TypeError):  # a value outside its frame, or without a hash
            columns = zip(*map(values_reader(names, names), mapping))
            frames = {n: sorted(set(column)) for n, column in zip(names, columns)}
            bad = next((n for n in names if assignment.get(n) not in frames[n]), None)
            if bad is None:  # a map built by hand that lacks this configuration
                raise
            raise DomainMismatchError(
                "deciding %r needs %r in %r, got %r" % (decision, bad, frames[bad], assignment.get(bad))
            ) from None
        if act is None:
            raise SolverError(
                "the strategy has no act for %r at %r, a context without mass" % (decision, key)
            )
        return act


SolveResult = namedtuple("SolveResult", "lam expected_value solutions strategy trace")


class UtilityInterval(namedtuple("UtilityInterval", "decision bounds")):
    """Per-act lower and upper expected utilities of a canonical problem.

    ``bounds`` maps each act to (lower, upper).
    """

    __slots__ = ()


def fuse(pool, variable, lam=None, policy=None):
    """One fusion step over a pool of valuations.

    Returns (new pool, FusionStep).  The step's ``solution`` is the solution
    table recorded for an unforced decision variable, else None.
    """
    touched = [v for v in pool if variable.name in v.domain]
    untouched = [v for v in pool if variable.name not in v.domain]
    if not touched:
        raise ValnetError("no valuation in the pool mentions %r" % variable.name)
    combined, provenance = combine_all_traced(touched)
    result, table = marginalize(combined, variable, lam=lam, policy=policy)
    result = result._replace(label="elim_%s" % variable.name)
    step = FusionStep(
        variable=variable.name,
        kind=variable.kind,
        inputs=tuple(touched),
        combined=combined,
        provenance=tuple(provenance),
        result=result,
        solution=table,
    )
    return untouched + [result], step


def _initial_pool(network):
    return list(network.utilities) + [p.ballooned for p in network.potentials]


def _finish(pool):
    final = combine_all(pool)
    if final.domain:
        raise SolverError("variables left over after elimination: %r" % sorted(final.domain))
    return final.value_at(DIAMOND)


def _refuse_without_utilities(network):
    """Refuse, before any work, a network whose expected value would be a belief's mass."""
    if not network.utilities:
        raise ValnetError("solving needs a network with utilities; use valnet marginal for one without")


def _check(network):
    report = validate(network)
    if not report.ok:
        raise NotWellDefinedError(report)


def _eliminate(pool, variables, lam=None, policies=None):
    """Fuse ``variables`` away in the given order; returns (pool, steps)."""
    steps = []
    for variable in variables:
        pool, step = fuse(pool, variable, lam=lam, policy=(policies or {}).get(variable.name))
        steps.append(step)
    return pool, tuple(steps)


def solve(network, lam, policy_tables=None):
    """Run the fusion algorithm; returns expected value, tables, strategy and steps."""
    _refuse_without_utilities(network)
    lam = check_lambda(lam)
    _check(network)
    order = elimination_order(network)
    variables = [network.by_name[name] for name in order]
    pool, steps = _eliminate(_initial_pool(network), variables, lam, policy_tables)
    solutions = {s.variable: s.solution for s in steps if s.solution is not None}
    expected = _finish(pool)
    # A forced decision records no table; its policy stands in for it.
    strategy = build_strategy(network, {**(policy_tables or {}), **solutions}, order)
    return SolveResult(lam, expected, solutions, strategy, steps)


def build_strategy(network, solutions, order):
    """Compose solution tables into per-decision maps over preceding randoms.

    Decisions are taken in reverse elimination order, so every decision in a
    table's context already has its map.  A decision's map ranges over the
    randoms of its context and of those maps, and gives the table's act, or
    None for a context the table has no act for (one without mass).  Maps of
    more than ``STRATEGY_LIMIT`` entries in all raise ``SolverError`` before
    any map is enumerated, since their sizes follow from the tables alone.
    """
    plans, tables, total = {}, {}, 0
    for name in reversed(order):
        table = solutions.get(name)
        if table is None:
            continue
        earlier = [n for n in table.context if network.by_name[n].kind == DECISION]
        randoms = set(table.context).difference(earlier).union(*(plans[n][1] for n in earlier))
        names = tuple(sorted(randoms, key=network.decl_index.__getitem__))
        total += math.prod(len(network.frames[n]) for n in names)
        _refuse_past(STRATEGY_LIMIT, total, "the strategy would hold {0} entries with the map for {1!r}", name)
        plans[name] = (table, names, earlier)
    for name, (table, names, earlier) in plans.items():
        # A configuration over ``names``, extended by the earlier decisions'
        # acts, projects onto the table's context.
        inner = [(n, projector(names, tables[n][0]), tables[n][1]) for n in earlier]
        extend = extender(names, tuple(earlier), tuple(table.context))
        mapping = {}
        for cfg in all_configs(names, network.frames):
            chosen = make_config({n: acts[key(cfg)] for n, key, acts in inner})
            mapping[cfg] = table.choices.get(extend(cfg, chosen))
        tables[name] = (names, mapping)
    return Strategy(tables)


def oracle_solve(network, lam):
    """Combine everything into one joint valuation, then eliminate in order.

    Desk-scale verification path for the fusion algorithm, independent of
    it.  A joint frame of more than ``ORACLE_LIMIT`` (10^6) configurations
    raises ``SolverError`` before any combination.  The one joint
    combination is also held to ``calculus.JOIN_LIMIT`` (10^5 configurations
    per join level), the tighter cap on most networks.
    """
    _refuse_without_utilities(network)
    lam = check_lambda(lam)
    _check(network)
    size = math.prod(len(v.frame) for v in network.variables)
    _refuse_past(ORACLE_LIMIT, size, "the oracle's joint frame would hold {0} configurations")
    order = elimination_order(network)
    joint = combine_all(_initial_pool(network))
    solutions = {}
    for name in order:
        joint, table = marginalize(joint, network.by_name[name], lam=lam)
        if table is not None:
            solutions[name] = table
    expected = joint.value_at(DIAMOND)
    strategy = build_strategy(network, solutions, order)
    return SolveResult(lam, expected, solutions, strategy, ())


def canonical_parts(network):
    """The (decision, random, utility, potential) of a canonical problem."""
    if len(network.decisions) != 1 or len(network.randoms) != 1:
        raise NetworkError("canonical problems have exactly one decision and one random variable")
    d, r = network.decisions[0], network.randoms[0]
    if len(network.utilities) != 1 or len(network.potentials) != 1:
        raise NetworkError("canonical problems have exactly one utility and one potential")
    pi = network.utilities[0]
    rho = network.potentials[0]
    if pi.domain != {d.name, r.name}:
        raise NetworkError("the utility valuation must bear on both variables")
    if rho.head.name != r.name or {p.name for p in rho.parents} != {d.name}:
        raise NetworkError("the potential must be conditional on the decision variable")
    return d, r, pi, rho


def expected_interval(network):
    """Per-act expected-utility interval of a canonical problem.

    Lower and upper bounds add, focal by focal, the minimum and maximum value
    over the random variable within each focal of the combined valuation.
    """
    d, r, pi, rho = canonical_parts(network)
    combined = combine_all([pi, rho.ballooned])
    act_of = value_reader(combined.domain, d.name)
    bounds = {}
    for act in d.frame:
        lo = hi = 0.0
        for f in combined.focals:
            ext = [
                f.values[y]
                for y in f.support
                if act_of(y) == act
            ]
            if not ext:
                continue
            lo += min(ext)
            hi += max(ext)
        bounds[act] = (lo, hi)
    return UtilityInterval(d.name, bounds)


def lambda_sweep(network, grid):
    """Solve once per weighting factor, ascending; values must be monotone."""
    values = sorted({check_lambda(l) for l in grid})
    if not values:
        raise ValnetError("empty grid of weighting factors")
    results = [solve(network, lam) for lam in values]
    for a, b in zip(results, results[1:]):
        if b.expected_value < a.expected_value - 1e-9 * max(1.0, abs(a.expected_value)):
            raise SolverError(
                "expected value decreased from %r to %r along the sweep"
                % (a.expected_value, b.expected_value)
            )
    return results


def bayesian_check(network, lam):
    """Solve an all-singleton (probabilistic) network; result is lambda-free.

    Raises unless every conditional table is made of singleton focals; solves
    at the endpoints as well and verifies both agree.
    """
    for p in network.potentials:
        if any(len(subset) != 1 for entries in p.tables.values() for subset, _ in entries):
            raise ValnetError("potential for %r has a non-singleton focal; not a probability" % p.head.name)
    low = solve(network, 0.0)
    high = solve(network, 1.0)
    if abs(low.expected_value - high.expected_value) > 1e-9:
        raise SolverError(
            "singleton-potential network is lambda-dependent: %r vs %r"
            % (low.expected_value, high.expected_value)
        )
    return solve(network, lam)


def propagate_marginal(network, target):
    """Marginal bpa of one variable in a pure-propagation network.

    Only the potentials of the target and its ancestors are combined.  Every
    potential meets condition d by construction, so each dropped one
    marginalizes to the vacuous belief function, and the marginal changes
    by float rounding only.
    """
    if network.decisions or network.utilities:
        raise ValnetError("marginal propagation needs a network without decisions or utilities")
    _check(network)
    if target not in network.by_name:
        raise NetworkError("unknown variable %r" % target)
    # Condition A1 holds, so each variable heads exactly one potential.
    parents = {p.head.name: [q.name for q in p.parents] for p in network.potentials}
    ancestral, walk = {target}, [target]
    while walk:
        new = [q for q in parents[walk.pop()] if q not in ancestral]
        ancestral.update(new)
        walk += new
    pool = [p.ballooned for p in network.potentials if p.head.name in ancestral]
    # Fusion never adds a variable and removes only the one it eliminates,
    # so the pool's variables can be read off once, up front.
    mentioned = frozenset().union(*(p.domain for p in pool))
    pool, _ = _eliminate(pool, [v for v in network.variables if v.name in mentioned - {target}])
    # Every variable but the target is fused away, so no domain holds another.
    return combine_all(pool)
