"""Combination against the search it replaced, bit for bit.

The reference builds each joint support the slow way: it extends the first
support to the union domain by the cylinder extension and keeps the
configurations whose projection lies in every other support.  It runs the
conflict search and the main search separately, as the definition reads.
``combine_all_traced`` must agree with it on the domain, kind, supports,
values (to the bit and in the order of their support) and provenance, and
raise the same error where it raises.
"""

import itertools
import math
import operator
import random
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valnet import calculus
from valnet import (
    SolverError,
    TotalConflictError,
    ValnetError,
    elimination_order,
    make_bpa,
    make_config,
    make_utility,
    marginalize,
    random_var,
    vacuous,
)
from valnet.calculus import (
    CONFLICT_TOL,
    _finite,
    _fsum,
    _merge_frames,
    _nonbelief_kind,
    combine_all_traced,
)
from valnet.model import all_configs
from valnet.solver import fuse
from valnet.valuation import BELIEF, GENERAL, UTILITY, Focal, Valuation

from conftest import concat_configs, project_config
from netgen import random_network

X = random_var("X", ("a", "b", "c"))
Y = random_var("Y", ("p", "q"))
Z = random_var("Z", ("s", "t"))
# A frame whose values are themselves tuples.
W = random_var("W", ((0, "x"), (1, "y"), (2, "x")))


def config_domain(x):
    return frozenset(name for name, _ in x)


def _joint_support(supports, domains, union, frames):
    extra = all_configs(union - domains[0], frames)
    members = frozenset(concat_configs(x, y) for x in supports[0] for y in extra)
    for support, domain in zip(supports[1:], domains[1:]):
        members = frozenset(z for z in members if project_config(z, domain) in support)
        if not members:
            return None
    return members


def reference_combine(valuations):
    """``combine_all_traced`` by extension and filtering, one search per pass."""
    valuations = list(valuations)
    order = [i for i, v in enumerate(valuations) if v.kind != BELIEF]
    n_others = len(order)
    order += [i for i, v in enumerate(valuations) if v.kind == BELIEF]
    inputs = [valuations[i] for i in order]
    others, beliefs = inputs[:n_others], inputs[n_others:]
    union = frozenset().union(*(v.domain for v in inputs))
    frames = _merge_frames(inputs)

    clashes = []
    if len(beliefs) >= 2:
        belief_union = frozenset().union(*(v.domain for v in beliefs))
        for combo in itertools.product(*(v.focals for v in beliefs)):
            joint = _joint_support(
                [f.support for f in combo], [v.domain for v in beliefs], belief_union, frames
            )
            if joint is None:
                mass = 1.0
                for f in combo:
                    mass *= f.mass
                clashes.append(mass)
    norm = 1.0 - math.fsum(sorted(clashes))
    if beliefs and norm <= CONFLICT_TOL:
        raise TotalConflictError("belief functions are in total conflict")

    accum = {}
    provenance = {}
    domains = [v.domain for v in inputs]
    for combo in itertools.product(*(range(len(v.focals)) for v in inputs)):
        focals = [v.focals[i] for v, i in zip(inputs, combo)]
        joint = _joint_support([f.support for f in focals], domains, union, frames)
        if joint is None:
            continue
        values = {}
        for z in joint:
            total = 0.0
            for v, f in zip(others, focals[:n_others]):
                total += f.values[project_config(z, v.domain)]
            mass = 1.0
            for v, f in zip(beliefs, focals[n_others:]):
                mass *= f.values[project_config(z, v.domain)]
            if beliefs:
                mass /= norm
            values[z] = total * mass if others and beliefs else (mass if beliefs else total)
        sums = accum.setdefault(joint, {})
        for z, val in values.items():
            sums.setdefault(z, []).append(val)
        source = [0] * len(order)
        for position, i in zip(order, combo):
            source[position] = i
        provenance.setdefault(joint, []).append(tuple(source))
    if not accum:
        raise TotalConflictError("no joint focal has a nonempty support")
    merged = {
        joint: _finite({z: _fsum(vals) for z, vals in values.items()}, "combined value")
        for joint, values in accum.items()
    }
    # Sorted by their configurations; a belief focal without mass is dropped.
    focals = tuple(
        Focal(joint, merged[joint])
        for joint in sorted(merged, key=sorted)
        if others or any(merged[joint].values())
    )
    kind = _nonbelief_kind(union, frames, focals) if others else BELIEF
    return Valuation(union, frames, kind, focals), [provenance[f.support] for f in focals]


def outcome(combine, valuations):
    """What ``combine`` gives, with every float as its exact hex form."""
    try:
        v, provenance = combine(valuations)
    except ValnetError as e:
        return type(e), str(e)
    # Each support is a nonempty set of configurations over the result's domain.
    assert all(f.support for f in v.focals)
    assert all(config_domain(z) == v.domain for f in v.focals for z in f.support)
    focals = [
        (sorted(f.support), sorted((z, val.hex()) for z, val in f.values.items()))
        for f in v.focals
    ]
    # Values are keyed in the order their support iterates, as the reference keys them.
    keyed_in_order = [list(f.values) == list(f.support) for f in v.focals]
    return sorted(v.domain), v.frames, v.kind, focals, provenance, keyed_in_order


def check(valuations):
    got = outcome(combine_all_traced, valuations)
    assert got == outcome(reference_combine, valuations)
    return got


def fusion_pools(net, lam, beliefs_only=False):
    """Every touched pool of a solve (or of a propagation), then the final pool."""
    pool = [p.ballooned for p in net.potentials]
    if not beliefs_only:
        pool = list(net.utilities) + pool
    for name in elimination_order(net):
        touched = [v for v in pool if name in v.domain]
        if touched:
            yield touched
            pool, _ = fuse(pool, net.by_name[name], lam=lam)
    yield pool


@pytest.fixture(scope="module")
def networks():
    rng = random.Random(20260823)
    return [random_network(rng) for _ in range(60)]


def covers_its_frame(v):
    """True for a non-belief with one focal over its whole frame, as every utility is."""
    return v.kind != BELIEF and len(v.focals) == 1 and len(v.focals[0].support) == v.full_frame_size()


def test_every_fusion_pool_matches_reference(networks):
    pools = mixed = summed = 0
    for net in networks:
        for pool in fusion_pools(net, 0.3):
            check(pool)
            pools += 1
            mixed += len({v.kind == BELIEF for v in pool}) == 2
            summed += len(pool) > 1 and all(map(covers_its_frame, pool))
    assert pools > 200 and mixed > 50 and summed > 40


def test_belief_only_pools_match_reference(networks):
    pools = joined = 0
    for net in networks:
        if net.potentials:
            for pool in fusion_pools(net, None, beliefs_only=True):
                check(pool)
                pools += 1
                joined += len(pool) > 1
    assert pools > 100 and joined > 10


def bpa(variables, pairs):
    """A bpa from (list of {name: value} dicts, mass) pairs."""
    return make_bpa(variables, [([make_config(d) for d in ds], m) for ds, m in pairs])


def general(variables, entries):
    """A general valuation with one focal per {configuration: value} dict."""
    frames = {v.name: v.frame for v in variables}
    tables = [{make_config(d): val for d, val in entry} for entry in entries]
    focals = tuple(Focal(frozenset(values), values) for values in sorted(tables, key=sorted))
    return Valuation(frozenset(frames), frames, GENERAL, focals)


def test_disjoint_domains_give_a_cross_product():
    bx = bpa([X], [([{"X": "a"}, {"X": "b"}], 0.7), ([{"X": "c"}], 0.3)])
    by = bpa([Y], [([{"Y": "p"}], 0.4), ([{"Y": "p"}, {"Y": "q"}], 0.6)])
    u = make_utility([Z], {make_config({"Z": "s"}): 2.5, make_config({"Z": "t"}): -1.0})
    v = combine_all_traced([bx, by])[0]
    assert sorted(len(f.support) for f in v.focals) == [1, 2, 2, 4]
    check([bx, by])
    check([bx, u, by])
    check([u, bx])


def test_empty_domain_valuations_combine_like_the_final_pool():
    bx = bpa([X], [([{"X": "a"}], 0.25), ([{"X": "b"}, {"X": "c"}], 0.75)])
    u = make_utility([X], {make_config({"X": x}): float(i) for i, x in enumerate(X.frame)})
    final_belief = marginalize(bx, X)[0]
    final_utility = marginalize(combine_all_traced([u, bx])[0], X, lam=0.3)[0]
    assert final_belief.domain == final_utility.domain == frozenset()
    check([final_utility, final_belief])
    check([final_utility, final_utility])
    check([final_belief, final_belief, final_utility])


def test_one_valuation_passed_twice():
    bxy = bpa([X, Y], [
        ([{"X": "a", "Y": "p"}, {"X": "b", "Y": "q"}], 0.5),
        ([{"X": "c", "Y": "q"}], 0.2),
        ([{"X": x, "Y": y} for x in X.frame for y in Y.frame], 0.3),
    ])
    u = make_utility([Y], {make_config({"Y": "p"}): 3.0, make_config({"Y": "q"}): 5.0})
    check([bxy, bxy])
    check([u, bxy, u])
    check([bxy, u, bxy])


def test_pairwise_meeting_beliefs_with_an_empty_triple_joint():
    s1 = [{"X": "a"}, {"X": "b"}]
    s2 = [{"X": "b", "Y": "p"}, {"X": "c", "Y": "p"}]
    s3 = [{"X": "a", "Y": "p"}, {"X": "c", "Y": "q"}, {"X": "c", "Y": "p"}]
    sets = [frozenset(make_config(d) for d in s) for s in (s1, s2, s3)]
    frames = {"X": X.frame, "Y": Y.frame}
    union = frozenset("XY")
    for pair in itertools.combinations(sets, 2):
        assert _joint_support(pair, [config_domain(min(s)) for s in pair], union, frames) is not None
    assert _joint_support(sets, [config_domain(min(s)) for s in sets], union, frames) is None

    everywhere = [{"X": x, "Y": y} for x in X.frame for y in Y.frame]
    b1 = bpa([X], [(s1, 0.6), ([{"X": x} for x in X.frame], 0.4)])
    b2 = bpa([X, Y], [(s2, 0.5), (everywhere, 0.5)])
    b3 = bpa([X, Y], [(s3, 0.7), ([{"X": "b", "Y": "q"}], 0.3)])
    for pair in itertools.combinations([b1, b2, b3], 2):
        assert check(list(pair))[2] == BELIEF
    for pool in itertools.permutations([b1, b2, b3]):
        check(list(pool))


def test_belief_pool_in_total_conflict():
    b1 = bpa([X], [([{"X": "a"}], 1.0)])
    b2 = bpa([X, Y], [([{"X": "b", "Y": "p"}, {"X": "c", "Y": "q"}], 1.0)])
    assert check([b1, b2]) == (TotalConflictError, "belief functions are in total conflict")


def test_mixed_pool_whose_supports_never_meet_the_belief_joints():
    b = bpa([X, Y], [([{"X": "a", "Y": "p"}], 0.5), ([{"X": "b", "Y": "q"}], 0.5)])
    g = general([X], [[({"X": "c"}, 1.0)]])
    assert check([g, b]) == (TotalConflictError, "no joint focal has a nonempty support")
    g2 = general([Y, Z], [[({"Y": "q", "Z": "s"}, 2.0)], [({"Y": "p", "Z": "t"}, -1.0)]])
    check([g, g2, b])


def test_combinations_that_meet_on_one_joint_support():
    # Three combinations land on {a, b}; their masses add to a different
    # float in each order, so only the reference's sorted fsum matches.
    ab, abc = [{"X": "a"}, {"X": "b"}], [{"X": x} for x in X.frame]
    b1 = bpa([X], [(ab, 0.25), (abc, 0.15), ([{"X": "c"}], 0.6)])
    b2 = bpa([X], [(ab, 0.4), (abc, 0.6)])
    norm = 1.0 - 0.6 * 0.4
    masses = [0.25 * 0.4 / norm, 0.25 * 0.6 / norm, 0.15 * 0.4 / norm]
    # Plain left folds: sum() compensates float rounding from Python 3.12.
    folds = [reduce(operator.add, order, 0.0) for order in (masses, masses[::-1])]
    sums = {*folds, math.fsum(masses)}
    assert len(sums) == 3

    xy = [{"X": x, "Y": y} for x in X.frame for y in Y.frame]
    b3 = bpa([X, Y], [(xy, 0.35), ([d for d in xy if d["Y"] == "p"], 0.45), (xy[:4], 0.2)])
    pools = [[b1, b2], [b2, b1], [b1, b2, b3], [b3, b1, b2], [b1, b1, b2]]
    for pool in pools:
        assert any(len(sources) > 1 for sources in check(pool)[4])
    merged = combine_all_traced([b1, b2])[0].focals
    assert [v.hex() for f in merged for v in f.values.values() if len(f.support) == 2] == [
        math.fsum(masses).hex()
    ] * 2


def utility(rng, variables):
    """A utility over ``variables`` with values that include -0.0 and exact halves."""
    names = [v.name for v in variables]
    frames = {v.name: v.frame for v in variables}
    return make_utility(variables, {
        x: rng.choice([-0.0, 1.5, -2.25, rng.uniform(-1e3, 1e3), rng.uniform(-1e-3, 1e-3)])
        for x in all_configs(names, frames)
    })


UTILITY_SCOPES = {
    "identical": [[X, Y]] * 4,
    "nested": [[X], [X, Y], [W, X, Y], [Y]],
    "overlapping": [[X, Y], [Y, W], [W, Z], [Z, X]],
    "disjoint": [[X], [Y], [W], [Z]],
}


@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", sorted(UTILITY_SCOPES))
def test_utility_only_pools_add_over_the_joint_frame(shape, count):
    rng = random.Random("%s %d" % (shape, count))
    pool = [utility(rng, scope) for scope in UTILITY_SCOPES[shape][:count]]
    assert check(pool)[2] == UTILITY


@given(
    st.lists(st.lists(st.sampled_from([X, Y, Z, W]), min_size=1, max_size=3, unique=True), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
def test_utility_only_pools_match_the_reference(scopes, rng):
    check([utility(rng, scope) for scope in scopes])


def test_one_focal_over_part_of_its_frame_is_joined():
    # A hand-built "utility" whose focal misses X = c has no value there to add.
    part = {make_config({"X": "a"}): 1.25, make_config({"X": "b"}): -0.5}
    frames = {"X": X.frame}
    partial = Valuation(frozenset("X"), frames, UTILITY, (Focal(frozenset(part), part),))
    rng = random.Random(3)
    assert check([partial])[2] == GENERAL
    check([partial, utility(rng, [X, Y])])
    check([utility(rng, [Y]), partial, utility(rng, [X])])
    # Three members, as the frame has, but X = d in place of X = c.
    odd = {make_config({"X": x}): float(i) for i, x in enumerate("abd")}
    outside = Valuation(frozenset("X"), frames, UTILITY, (Focal(frozenset(odd), odd),))
    assert check([outside])[2] == UTILITY
    check([outside, utility(rng, [X, Y])])
    check([utility(rng, [X, Y]), outside])
    check([utility(rng, [Y]), outside, utility(rng, [X])])


def test_a_general_label_over_the_whole_frame_is_summed():
    # The path goes by support size, not by the kind label.
    rng = random.Random(4)
    u = utility(rng, [X, W])
    relabelled = u._replace(kind=GENERAL)
    assert check([relabelled])[2] == UTILITY
    assert check([u, relabelled, utility(rng, [W, Z])])[2] == UTILITY
    # make_utility turns -0.0 into 0.0; a hand-built focal keeps it, and the
    # sum from 0.0 turns it into 0.0 as the join's sum does.
    zeros = dict.fromkeys(all_configs(["X"], {"X": X.frame}), -0.0)
    signed = Valuation(frozenset("X"), {"X": X.frame}, GENERAL, (Focal(frozenset(zeros), zeros),))
    assert check([signed])[3][0][1][0][1] == (0.0).hex()
    check([signed, signed])


def test_utility_only_pools_never_reach_the_join(monkeypatch):
    rng = random.Random(5)
    pool = [utility(rng, scope) for scope in UTILITY_SCOPES["overlapping"][:3]]
    part = {make_config({"X": "a"}): 1.0}
    partial = Valuation(frozenset("X"), {"X": X.frame}, UTILITY, (Focal(frozenset(part), part),))
    odd = {make_config({"X": x}): 1.0 for x in "abd"}
    outside = Valuation(frozenset("X"), {"X": X.frame}, UTILITY, (Focal(frozenset(odd), odd),))
    expected = check(pool)

    def refuse(parts, domains):
        raise RuntimeError("joined")

    monkeypatch.setattr(calculus, "_joint_supports", refuse)
    assert outcome(combine_all_traced, pool) == expected
    assert combine_all_traced(pool + [pool[0]._replace(kind=GENERAL)])[0].kind == UTILITY
    for joined in (pool + [vacuous([X])], [partial] + pool, pool + [outside]):
        with pytest.raises(RuntimeError, match="joined"):
            combine_all_traced(joined)


def test_utility_only_pools_are_held_to_each_join_level(monkeypatch):
    # The join's levels here are 6, 12 and 36 configurations; the first one
    # past the limit is named, as the join names it.
    rng = random.Random(6)
    pool = [utility(rng, scope) for scope in ([X, Y], [Z], [W])]
    monkeypatch.setattr(calculus, "JOIN_LIMIT", 12)
    assert len(combine_all_traced(pool[:2])[0].focals[0].support) == 12
    monkeypatch.setattr(calculus, "JOIN_LIMIT", 10)
    with pytest.raises(SolverError, match="^combining would build 12 joint configurations, more than the limit of 10$"):
        combine_all_traced(pool)
