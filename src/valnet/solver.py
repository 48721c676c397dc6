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
from .errors import DomainMismatchError, NetworkError, NotWellDefinedError, SolverError, ValnetError
from .model import DIAMOND, DECISION, RANDOM, all_configs, make_config
from .network import elimination_order, validate

ORACLE_GUARD = 10 ** 6


class FusionStep(
    namedtuple(
        "FusionStep",
        "variable kind inputs combined provenance result contributions solution",
        defaults=(None,),
    )
):
    """One elimination step; ``solve(..., trace=True)`` keeps them in elimination order."""

    __slots__ = ()


class Strategy(namedtuple("Strategy", "tables")):
    """An act for every decision variable as a function of earlier randoms.

    ``tables`` maps a decision name to (tuple of random names, {Config: act}).
    """

    __slots__ = ()

    def decide(self, decision, assignment):
        """Act for a decision given a {random variable: value} assignment.

        Raises NetworkError for a decision without a table and
        DomainMismatchError for a missing or out-of-frame value.
        """
        if decision not in self.tables:
            raise NetworkError("the strategy has no table for %r" % decision)
        names, mapping = self.tables[decision]
        values = {n: assignment.get(n) for n in names}
        act = mapping.get(make_config(values))
        if act is None:
            frames = {n: sorted({dict(x)[n] for x in mapping}) for n in names}
            bad = next(n for n in names if values[n] not in frames[n])
            raise DomainMismatchError(
                "deciding %r needs %r in %r, got %r" % (decision, bad, frames[bad], values[bad])
            )
        return act


SolveResult = namedtuple("SolveResult", "lam expected_value solutions strategy trace", defaults=(None,))


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
    result, table, contributions = marginalize(combined, variable, lam=lam, policy=policy)
    result = result._replace(label="elim_%s" % variable.name)
    step = FusionStep(
        variable=variable.name,
        kind=variable.kind,
        inputs=tuple(touched),
        combined=combined,
        provenance=tuple(provenance),
        result=result,
        contributions=tuple(contributions),
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


def _check(network):
    report = validate(network)
    if not report.ok:
        raise NotWellDefinedError(report)


def solve(network, lam, trace=False, policy_tables=None):
    """Run the fusion algorithm; returns expected value, tables and strategy."""
    lam = check_lambda(lam)
    _check(network)
    order = elimination_order(network)
    pool = _initial_pool(network)
    solutions = {}
    steps = []
    for name in order:
        policy = (policy_tables or {}).get(name)
        pool, step = fuse(pool, network.by_name[name], lam=lam, policy=policy)
        if trace:
            steps.append(step)
        if step.solution is not None:
            solutions[name] = step.solution
    expected = _finish(pool)
    strategy = build_strategy(network, solutions)
    return SolveResult(lam, expected, solutions, strategy, tuple(steps) if trace else None)


def build_strategy(network, solutions):
    """Compose solution tables into per-decision maps over preceding randoms.

    A decision variable appearing in another's context is resolved through its
    own table, so the final maps range over random variables only.
    """
    kind_of = {v.name: v.kind for v in network.variables}

    needed = {}

    def randoms_needed(d):
        if d in needed:
            return needed[d]
        out = set()
        table = solutions.get(d)
        if table is not None:
            for n in table.context:
                if kind_of[n] == RANDOM:
                    out.add(n)
                else:
                    out |= randoms_needed(n)
        needed[d] = out
        return out

    def resolve(d, assignment):
        table = solutions[d]
        values = {}
        for n in table.context:
            if kind_of[n] == RANDOM:
                values[n] = assignment[n]
            else:
                values[n] = resolve(n, assignment)
        key = make_config(values)
        act = table.choices.get(key)
        if act is None:
            # A context to which the joint valuation gives no mass has no
            # entry; oracle_solve leaves the wildcatter's D at R=nr, T=t so.
            act = network.by_name[d].frame[0]
        return act

    tables = {}
    for v in network.variables:
        if v.kind != DECISION or v.name not in solutions:
            continue
        names = tuple(sorted(randoms_needed(v.name), key=lambda n: network.decl_index[n]))
        mapping = {}
        for cfg in all_configs(names, network.frames):
            assignment = dict(cfg)
            mapping[cfg] = resolve(v.name, assignment)
        tables[v.name] = (names, mapping)
    return Strategy(tables)


def evaluate_strategy(network, lam, result):
    """Re-solve with the recorded solution tables forced; equals the optimum."""
    replay = solve(network, lam, policy_tables=result.solutions)
    return replay.expected_value


def oracle_solve(network, lam):
    """Combine everything into one joint valuation, then eliminate in order.

    Desk-scale verification path for the fusion algorithm; refuses joint
    frames above a million configurations.
    """
    lam = check_lambda(lam)
    _check(network)
    size = math.prod(len(v.frame) for v in network.variables)
    if size > ORACLE_GUARD:
        raise SolverError("joint frame has %d configurations, over the guard" % size)
    order = elimination_order(network)
    joint = combine_all(_initial_pool(network))
    solutions = {}
    for name in order:
        if name not in joint.domain:
            continue
        joint, table, _ = marginalize(joint, network.by_name[name], lam=lam)
        if table is not None:
            solutions[name] = table
    expected = joint.value_at(DIAMOND)
    strategy = build_strategy(network, solutions)
    return SolveResult(lam, expected, solutions, strategy, None)


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
    bounds = {}
    for act in d.frame:
        lo = hi = 0.0
        for f in combined.focals:
            ext = [
                f.values[y]
                for y in f.support
                if dict(y)[d.name] == act
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
        for entries in p.tables.values():
            for subset, _ in entries:
                if len(subset) != 1:
                    raise ValnetError(
                        "potential for %r has a non-singleton focal; not a probability"
                        % p.head.name
                    )
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
    if not any(target in p.domain for p in network.potentials):
        raise NetworkError("no potential mentions %r" % target)
    ancestral, grown = {target}, True
    while grown:
        parents = {q.name for p in network.potentials if p.head.name in ancestral for q in p.parents}
        grown = not parents <= ancestral
        ancestral |= parents
    pool = [p.ballooned for p in network.potentials if p.head.name in ancestral]
    for v in network.variables:
        if v.name == target:
            continue
        if not any(v.name in val.domain for val in pool):
            continue
        pool, _ = fuse(pool, v)
    # Every variable but the target is fused away, so no domain holds another.
    return combine_all(pool)
