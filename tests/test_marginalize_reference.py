"""One elimination step against a reference written from its definition.

``oracle_solve`` eliminates with the same ``marginalize`` as ``solve``, so it
cannot catch an error in how that function groups focals.  The reference here
scans each source focal's whole support once for every projected
configuration: slow, but with no grouping to get wrong.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valnet import SolverError, combine_all, decision, elimination_order, marginalize, random_var
from valnet.calculus import SolutionTable, marginalize_belief
from valnet.model import make_config
from valnet.solver import fuse
from valnet.valuation import BELIEF, GENERAL, UTILITY

from conftest import project_config
from netgen import random_network
from test_combine_reference import check


def first_best(values, frame):
    best = max(values.values())
    return next(a for a in frame if a in values and values[a] == best)


def reference_step(v, variable, lam=None):
    """Remove ``variable`` from ``v`` by the definition of the deletion rule.

    Returns (focals, contributions, totals): focals maps each projected
    support (a frozenset) to {x: value} and contributions maps it to
    {(source focal index, x): value}.  For a decision, totals maps x to
    {act: the values to sum}.
    """
    name = variable.name
    rest = v.domain - {name}
    groups = {}
    for idx, f in enumerate(v.focals):
        proj = frozenset(project_config(y, rest) for y in f.support)
        groups.setdefault(proj, []).append((idx, f))
    focals, contributions, totals = {}, {}, {}
    for proj, members in groups.items():
        values, contribs = {}, {}
        for x in proj:
            for idx, f in members:
                ext = {y: f.values[y] for y in f.support if project_config(y, rest) == x}
                if v.kind == BELIEF:
                    value = f.mass
                elif variable.is_decision:
                    by_act = {dict(y)[name]: val for y, val in ext.items()}
                    value = max(by_act.values())
                    for act, val in by_act.items():
                        totals.setdefault(x, {}).setdefault(act, []).append(val)
                else:
                    value = lam * max(ext.values()) + (1.0 - lam) * min(ext.values())
                contribs[(idx, x)] = value
                values[x] = values.get(x, 0.0) + value
        if v.kind == BELIEF and all(val == 0 for val in values.values()):
            continue
        focals[proj] = values
        contributions[proj] = contribs
    return focals, contributions, totals


def check_step(v, variable, lam=None):
    result, table = marginalize(v, variable, lam=lam)
    focals, ref_contributions, totals = reference_step(v, variable, lam)
    assert result.domain == v.domain - {variable.name}
    # Each support is a nonempty set of configurations over the result's domain.
    assert all(f.support for f in result.focals)
    assert all({n for n, _ in x} == result.domain for f in result.focals for x in f.support)
    assert {f.support: f.values for f in result.focals} == focals
    supports = [f.support for f in result.focals]
    # A source focal's contribution is what it marginalizes to on its own.
    for contribs in ref_contributions.values():
        for idx in {i for i, _ in contribs}:
            alone = marginalize(v._replace(focals=(v.focals[idx],)), variable, lam=lam)[0]
            assert alone.focals[0].values == {x: c for (i, x), c in contribs.items() if i == idx}
    if v.kind == BELIEF:
        assert result.kind == BELIEF
    else:
        full = result.full_frame_size()
        spans = len(focals) == 1 and len(supports[0]) == full
        assert result.kind == (UTILITY if spans else GENERAL)
    if v.kind == BELIEF or not variable.is_decision:
        assert table is None
        return result
    assert table.context == tuple(sorted(result.domain))
    assert set(table.choices) == set(table.totals) == set(totals)
    for x, acts in totals.items():
        sums = {act: sum(vals) for act, vals in acts.items()}
        best = max(sums.values())
        # Summation order may differ from the reference's: allow rounding.
        slack = 1e-9 * max(1.0, abs(best))
        assert table.totals[x].keys() == sums.keys()
        assert all(abs(table.totals[x][a] - s) <= slack for a, s in sums.items())
        near = [a for a, s in sums.items() if best - s <= slack]
        assert table.choices[x] in near
        if len(near) == 1:
            assert table.choices[x] == first_best(sums, variable.frame)
    return result


def reference_forced_step(v, variable, choices):
    """Remove decision ``variable`` from ``v`` at the act ``choices[x]`` for each x.

    Returns (focals, missing): focals maps each projected support to {x: the
    sum, over the source focals in its group, of their values at x and the
    forced act}, and missing holds the error message for every x whose forced
    act some source focal has no value at.
    """
    name = variable.name
    rest = v.domain - {name}
    groups = {}
    for f in v.focals:
        groups.setdefault(frozenset(project_config(y, rest) for y in f.support), []).append(f)
    focals, missing = {}, set()
    for proj, members in groups.items():
        values = {}
        for x in proj:
            y = make_config({**dict(x), name: choices[x]})
            for f in members:
                if y in f.values:
                    values[x] = values.get(x, 0.0) + f.values[y]
                else:
                    missing.add(
                        "a focal has no value at %r for %r = %r, the act the policy forces"
                        % (x, name, choices[x])
                    )
        focals[proj] = values
    return focals, missing


def check_forced_step(v, variable):
    """Force ``variable`` with the reference's best acts; True if the step succeeds."""
    _, _, totals = reference_step(v, variable)
    choices = {
        x: first_best({act: sum(vals) for act, vals in acts.items()}, variable.frame)
        for x, acts in totals.items()
    }
    policy = SolutionTable(variable.name, tuple(sorted(v.domain - {variable.name})), choices)
    focals, missing = reference_forced_step(v, variable, choices)
    try:
        result, table = marginalize(v, variable, policy=policy)
    except SolverError as e:
        assert str(e) in missing
        return False
    assert not missing
    assert table is None
    assert {f.support: f.values for f in result.focals} == focals
    return True


@pytest.fixture(scope="module")
def networks():
    rng = random.Random(20260823)
    return [random_network(rng) for _ in range(60)]


def test_decision_and_random_steps_match_reference(networks):
    steps = 0
    for net in networks:
        v = combine_all(list(net.utilities) + [p.ballooned for p in net.potentials])
        for name in sorted(v.domain):
            frame = v.frames[name]
            check_step(v, decision(name, frame))
            for lam in (0.0, 0.3, 1.0):
                check_step(v, random_var(name, frame), lam)
            steps += 4
    assert steps > 200


def test_belief_steps_match_reference(networks):
    steps = 0
    for net in networks:
        if not net.potentials:
            continue
        v = combine_all([p.ballooned for p in net.potentials])
        for name in sorted(v.domain):
            frame = v.frames[name]
            result = check_step(v, random_var(name, frame))
            assert check_step(v, decision(name, frame)) == result
            assert marginalize_belief(v, name) == result
            steps += 1
    assert steps > 50


def test_forced_decision_steps_match_reference(networks):
    forced = refused = 0
    for net in networks:
        v = combine_all(list(net.utilities) + [p.ballooned for p in net.potentials])
        for name in sorted(v.domain):
            if check_forced_step(v, decision(name, v.frames[name])):
                forced += 1
            else:
                refused += 1
    assert forced > 50 and refused > 20


@pytest.mark.deep
@settings(deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([0.0, 0.3, 1.0]))
def test_fusion_pools_and_steps_match_the_references(seed, lam):
    """Each fusion pool and elimination step of a generated network matches the kernel references."""
    net = random_network(random.Random(seed))
    pool = list(net.utilities) + [p.ballooned for p in net.potentials]
    for name in elimination_order(net):
        touched = [v for v in pool if name in v.domain]
        if not touched:
            continue
        check(touched)
        variable = net.by_name[name]
        check_step(combine_all(touched), variable, lam)
        pool, _ = fuse(pool, variable, lam=lam)
    check(pool)
