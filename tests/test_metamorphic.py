"""Metamorphic relations: what a transformed network must keep, with no reference solver.

- Doubling every utility doubles the expected value and every solution
  table's totals bit for bit: scaling by 2 is exact in binary floating point,
  whatever the order of the sums.
- Renaming the variables and relabelling each frame's values by random
  bijections, with declaration and frame orders kept, keeps every choice and
  strategy entry of ``solve`` and every focal of ``propagate_marginal``.
  The focal order follows names and labels, so the last bits may move.
- Splitting each utility ``u`` into ``0.25·u`` and ``0.75·u`` keeps every choice.

Under the last two, values agree within ``REL`` relative, or within ``REL``
of the largest utility where they cancel: a total of 0.001 from utilities
near 100 keeps only their absolute rounding.  A context whose top two totals
tie within ``TIE`` relative may go to either act, so its choice is not
compared, nor is the strategy of a solve that has one.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valnet import Network, conditional, make_config, make_utility, propagate_marginal, solve
from valnet.valuation import Focal

from netgen import random_network, random_propagation

REL = 1e-12
TIE = 1e-9
SEEDS = st.integers(0, 2 ** 32)
LAMBDAS = st.sampled_from([0.0, 0.3, 0.5, 1.0])


def scaled(u, factor):
    """The utility valuation ``u`` with every value times ``factor``, rows in the same order."""
    (f,) = u.focals
    return u._replace(focals=(Focal(f.support, {x: factor * val for x, val in f.values.items()}),))


def with_utilities(net, utilities):
    return Network(net.variables, utilities, net.potentials, net.arcs)


class Renaming:
    """A bijection of a network's variable names and one of each frame's values."""

    def __init__(self, net, rng=None):
        self.names = {v.name: v.name for v in net.variables}
        self.labels = {v.name: {a: a for a in v.frame} for v in net.variables}
        if rng is not None:
            pool = ["%s%d" % (c, k) for c in "AMZbq" for k in range(4)]
            self.names = dict(zip(self.names, rng.sample(pool, len(self.names))))
            for v in net.variables:
                self.labels[v.name] = dict(zip(v.frame, rng.sample(["v%d" % k for k in range(12)], len(v.frame))))

    def variable(self, v):
        return v._replace(name=self.names[v.name], frame=tuple(map(self.labels[v.name].get, v.frame)))

    def config(self, x):
        return make_config({self.names[n]: self.labels[n][a] for n, a in x})

    def network(self, net):
        """The network with every name and value renamed, in the same orders."""
        by_name = {v.name: self.variable(v) for v in net.variables}
        potentials = [
            conditional(
                by_name[p.head.name],
                [by_name[q.name] for q in p.parents],
                {
                    self.config(c): [(frozenset(map(self.labels[p.head.name].get, s)), m) for s, m in entries]
                    for c, entries in p.tables.items()
                },
                label=p.label,
            )
            for p in net.potentials
        ]
        utilities = [
            make_utility(
                [by_name[n] for n in sorted(u.domain)],
                {self.config(x): val for x, val in u.focals[0].values.items()},
                label=u.label,
            )
            for u in net.utilities
        ]
        arcs = [(self.names[x], self.names[y]) for x, y in sorted(net.arcs)]
        return Network(by_name.values(), utilities, potentials, arcs)


def tied(totals):
    top = sorted(totals.values(), reverse=True)[:2]
    return len(top) == 2 and top[0] - top[1] <= TIE * max(map(abs, top))


def assert_equivalent(want, got, renaming, scale):
    """``got`` solves the renamed network of ``want``: the same choices, values within ``REL``."""
    names, config = renaming.names, renaming.config

    def close(a, b):
        return math.isclose(a, b, rel_tol=REL, abs_tol=REL * scale)

    assert close(got.expected_value, want.expected_value)
    assert got.solutions.keys() == {names[d] for d in want.solutions}
    ties = 0
    for d, table in want.solutions.items():
        other, act = got.solutions[names[d]], renaming.labels[d]
        assert other.context == tuple(sorted(map(names.get, table.context)))
        assert other.totals.keys() == set(map(config, table.totals))
        for x, totals in table.totals.items():
            moved = other.totals[config(x)]
            assert moved.keys() == set(map(act.get, totals))
            assert all(close(moved[act[a]], val) for a, val in totals.items())
            if tied(totals):
                ties += 1
            else:
                assert other.choices[config(x)] == act[table.choices[x]]
    if ties:
        return
    assert got.strategy.tables.keys() == set(map(names.get, want.strategy.tables))
    for d, (context, mapping) in want.strategy.tables.items():
        act = renaming.labels[d]
        assert got.strategy.tables[names[d]] == (
            tuple(map(names.get, context)),
            {config(x): a if a is None else act[a] for x, a in mapping.items()},
        )


def largest_utility(net):
    return max(abs(val) for u in net.utilities for val in u.focals[0].values.values())


def hexed(result):
    """A solve's expected value and every solution table's totals as exact hex forms."""
    return result.expected_value.hex(), {
        d: {x: {a: val.hex() for a, val in acts.items()} for x, acts in t.totals.items()}
        for d, t in result.solutions.items()
    }


@pytest.mark.deep
@settings(deadline=None)
@given(SEEDS, LAMBDAS)
def test_doubling_every_utility_doubles_every_value_bit_for_bit(seed, lam):
    """On a generated network, doubling every utility doubles every value bit for bit and keeps every choice."""
    net = random_network(random.Random(seed), max_vars=6)
    want = solve(net, lam)
    got = solve(with_utilities(net, [scaled(u, 2.0) for u in net.utilities]), lam)
    doubled = want._replace(
        expected_value=2.0 * want.expected_value,
        solutions={
            d: t._replace(totals={x: {a: 2.0 * val for a, val in acts.items()} for x, acts in t.totals.items()})
            for d, t in want.solutions.items()
        },
    )
    assert hexed(got) == hexed(doubled)
    assert {d: t.choices for d, t in got.solutions.items()} == {d: t.choices for d, t in want.solutions.items()}
    assert got.strategy == want.strategy


@pytest.mark.deep
@settings(deadline=None)
@given(SEEDS, LAMBDAS)
def test_renaming_variables_and_values_keeps_every_choice(seed, lam):
    """Renaming variables and values keeps every choice, with values within ``REL``."""
    rng = random.Random(seed)
    net = random_network(rng, max_vars=6)
    renaming = Renaming(net, rng)
    assert_equivalent(solve(net, lam), solve(renaming.network(net), lam), renaming, largest_utility(net))


@pytest.mark.deep
@settings(deadline=None)
@given(SEEDS)
def test_renaming_variables_and_values_keeps_every_marginal(seed):
    """Renaming variables and values keeps every marginal's supports, with masses within ``REL``."""
    rng = random.Random(seed)
    net = random_propagation(rng)
    renaming = Renaming(net, rng)
    renamed = renaming.network(net)
    for v in net.variables:
        want = propagate_marginal(net, v.name)
        masses = {frozenset(map(renaming.config, f.support)): f.mass for f in want.focals}
        got = propagate_marginal(renamed, renaming.names[v.name])
        assert {f.support for f in got.focals} == masses.keys()
        assert all(math.isclose(f.mass, masses[f.support], rel_tol=REL) for f in got.focals)


@pytest.mark.deep
@settings(deadline=None)
@given(SEEDS, LAMBDAS)
def test_splitting_each_utility_keeps_every_choice(seed, lam):
    """Splitting each utility in two keeps every choice, with values within ``REL``."""
    net = random_network(random.Random(seed), max_vars=6)
    split = with_utilities(net, [w for u in net.utilities for w in (scaled(u, 0.25), scaled(u, 0.75))])
    assert_equivalent(solve(net, lam), solve(split, lam), Renaming(net), largest_utility(net))
