"""Combination and marginalization of valuations.

Combination hash-joins one focal per input on their shared variables: belief
with belief follows Dempster's rule (product, normalized by one minus the
conflict), non-belief with non-belief adds values, and a mixed pair multiplies
without normalization.  Marginalization removes one variable at a time: a
maximum for decision variables and a lambda-weighted blend of maximum and
minimum for random variables; belief valuations reduce to plain mass summation
over projected supports.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple

from .errors import DomainMismatchError, KindError, SolverError, TotalConflictError, ValnetError
from .model import DIAMOND, RANDOM, Variable, concat_configs, make_config, project_config
from .valuation import BELIEF, GENERAL, UTILITY, Focal, Valuation, canonical_focals

CONFLICT_TOL = 1e-12
# Most combinations of one focal per input that ``combine_all_traced`` joins.
COMBINE_LIMIT = 10 ** 6


def check_lambda(lam):
    if lam is None:
        raise ValnetError("a weighting factor in [0, 1] is required")
    try:
        lam = float(lam)
    except (TypeError, ValueError, OverflowError):
        raise ValnetError("weighting factor %r is not a number in [0, 1]" % (lam,))
    if not 0.0 <= lam <= 1.0:
        raise ValnetError("weighting factor %r is outside [0, 1]" % lam)
    return lam


class SolutionTable(
    namedtuple("SolutionTable", "decision context choices conflicts", defaults=(frozenset(),))
):
    """Recorded optimal acts for one decision variable.

    ``choices`` maps each configuration of the remaining variables to the act
    maximizing the summed per-focal contribution.  ``conflicts`` lists the
    contexts where individual focals preferred different acts.
    """

    __slots__ = ()


def _merge_frames(valuations):
    frames = {}
    for v in valuations:
        for name, frame in v.frames.items():
            if frames.setdefault(name, frame) != frame:
                raise DomainMismatchError("inconsistent frames for %r" % name)
    return frames


def _nonbelief_kind(domain, frames, focals):
    """A non-belief result is a utility valuation iff one focal spans the frame."""
    full = math.prod(len(frames[name]) for name in domain)
    return UTILITY if len(focals) == 1 and len(focals[0].support) == full else GENERAL


def _projector(names, domain):
    """Function from a tuple over ``names`` to its items over ``domain`` in name order."""
    positions = [names.index(n) for n in sorted(domain) if n in names]
    if len(positions) == 1:  # itemgetter would give the bare item
        return operator.itemgetter(slice(positions[0], positions[0] + 1))
    return operator.itemgetter(*positions) if positions else lambda x: DIAMOND


def _joint_supports(parts, domains):
    """Nonempty joint supports of every choice of one member set per part.

    ``parts[i]`` maps index tuples to member sets over ``domains[i]``.  From the
    diamond on, each part is hash-joined in on the shared variables, and a fixed
    permutation puts the merged pairs into name order.  Returns {concatenated
    index tuple: configurations over the sorted union}, in product order.
    """
    names, level = [], {(): [DIAMOND]}
    for part, domain in zip(parts, domains):
        inner = sorted(domain)
        new = [n for n in inner if n not in names]
        key, inner_key = _projector(names, inner), _projector(inner, names)
        extra = _projector(inner, new)
        merged = names + new
        names = sorted(merged)
        order = _projector(merged, names) if merged != names else None
        indexes = {k: {} for k in part}
        for k, members in part.items():
            for y in members:
                indexes[k].setdefault(inner_key(y), []).append(extra(y))
        level = {
            combo + k: list(map(order, out)) if order else out
            for combo, acc in level.items() for k, index in indexes.items()
            if (out := [z + e for z in acc for e in index.get(key(z), ())])
        }
    return level


def combine(vi, vj):
    """Binary combination of two valuations."""
    return combine_all([vi, vj])


def combine_all(valuations):
    """Fold a pool of valuations, combining non-beliefs before beliefs."""
    result, _ = combine_all_traced(valuations)
    return result


def combine_all_traced(valuations):
    """N-ary combination: values of non-beliefs add, belief masses multiply.

    Joint supports are hash joins on the shared variables.  The joint of each
    combination of belief focals is built once: the empty ones make up the
    conflict, by which the belief part is renormalized, and the non-belief
    focals are joined with the others.  Non-beliefs are combined before beliefs.
    Each distinct joint support is one frozenset.  Each combination gives one
    values dict over its joint (one mass in a belief-only pool, since every
    member carries the same mass); only a joint that several combinations
    reach sums them, per configuration, by an exact fsum.  A pool without
    beliefs joins only its non-belief parts.  Each belief focal's mass is
    read once, into one list per input.  More
    than ``COMBINE_LIMIT`` focal combinations raise ``SolverError`` before any
    join.

    Returns (valuation, provenance) where provenance is a list parallel to the
    result focals; each entry lists tuples of focal indices, one per input
    valuation in the given order.
    """
    valuations = list(valuations)
    if not valuations:
        raise ValnetError("cannot combine an empty collection of valuations")
    order = [i for i, v in enumerate(valuations) if v.kind != BELIEF]
    n_others = len(order)
    order += [i for i, v in enumerate(valuations) if v.kind == BELIEF]
    inputs = [valuations[i] for i in order]
    others, beliefs = inputs[:n_others], inputs[n_others:]
    union = frozenset().union(*(v.domain for v in inputs))
    frames = _merge_frames(inputs)
    combinations = math.prod(len(v.focals) for v in inputs)
    if combinations > COMBINE_LIMIT:
        raise SolverError(
            "combining would join %d focal combinations, more than the limit of %d"
            % (combinations, COMBINE_LIMIT)
        )

    parts = [{(i,): f.support for i, f in enumerate(v.focals)} for v in inputs]
    domains = [v.domain for v in inputs]
    belief_joints = _joint_supports(parts[n_others:], domains[n_others:])
    masses = [[f.mass for f in v.focals] for v in beliefs]
    clashes = [
        math.prod(m[i] for m, i in zip(masses, combo))
        for combo in itertools.product(*map(range, map(len, masses)))
        if combo not in belief_joints
    ]
    # fsum keeps the conflict independent of the iteration order, so swapping
    # the arguments yields bit-identical results.
    norm = 1.0 - math.fsum(sorted(clashes))
    if beliefs and norm <= CONFLICT_TOL:
        raise TotalConflictError("belief functions are in total conflict")

    joints = belief_joints
    if others:
        parts, domains = parts[:n_others], domains[:n_others]
        if beliefs:  # the diamond alone would only copy every configuration
            parts.append(belief_joints)
            domains.append(frozenset().union(*(v.domain for v in beliefs)))
        joints = _joint_supports(parts, domains)
    projectors = [_projector(sorted(union), v.domain) for v in others]
    accum, provenance = {}, {}
    for combo, members in joints.items():
        mass = math.prod(m[i] for m, i in zip(masses, combo[n_others:])) / norm
        joint = frozenset(members)
        if others:
            adds = [(p, v.focals[i].values) for p, v, i in zip(projectors, others, combo)]
            values = {}
            for z in joint:
                total = 0.0
                for project, vals in adds:
                    total += vals[project(z)]
                # fsum([x]) is x + 0.0, the value of a joint one combination reaches.
                values[z] = total * mass + 0.0
        else:
            values = mass
        accum.setdefault(joint, []).append(values)
        provenance.setdefault(joint, []).append(tuple(i for _, i in sorted(zip(order, combo))))

    if not accum:
        raise TotalConflictError("no joint focal has a nonempty support")

    items = []
    for joint, found in accum.items():
        if not others:
            values = dict.fromkeys(joint, found[0] if len(found) == 1 else _fsum(found))
        elif len(found) > 1:
            values = {z: _fsum([d[z] for d in found]) for z in found[0]}
        else:
            values = found[0]
        items.append((joint, _finite(values, "combined value")))
    focals = canonical_focals(items, GENERAL if others else BELIEF)
    kind = _nonbelief_kind(union, frames, focals) if others else BELIEF
    prov = [provenance[f.support] for f in focals]
    return Valuation(union, frames, kind, focals), prov


def _fsum(vals):
    """Exact sum in a fixed order; NaN where it is not a finite number."""
    try:
        return math.fsum(sorted(vals))
    except (OverflowError, ValueError):
        return math.nan


def _finite(values, what):
    """``values`` as given if all are finite; else name the smallest bad configuration."""
    if not all(map(math.isfinite, values.values())):
        bad = [x for x, val in values.items() if not math.isfinite(val)]
        raise SolverError("%s is not finite at %r" % (what, min(bad)))
    return values


def marginalize_belief(v, name):
    """The valuation ``marginalize`` gives for a belief valuation, whose masses add."""
    if v.kind != BELIEF:
        raise KindError("marginalize_belief needs a belief valuation, got %r" % v.kind)
    if name not in v.domain:
        raise DomainMismatchError("%r is not in the valuation's domain" % name)
    return marginalize(v, Variable(name, RANDOM, v.frames[name]))[0]


def marginalize(v, variable, lam=None, policy=None):
    """Remove one variable from a valuation in one pass over its focals.

    Each focal is split once by the projection of its configurations, and
    focals with equal projected supports add up into one result focal.  At a
    projected configuration each source focal contributes its mass (belief
    valuations), the maximum of its values there (decision variables; a
    ``policy`` table picks the act instead, and otherwise the best acts are
    recorded in a solution table) or the lambda-weighted blend of that
    maximum and minimum (random variables).

    Returns (valuation, solution table or None, contributions), where
    contributions is a list parallel to the result focals; each entry maps
    (source focal index, result configuration) to the value that source
    focal contributed there.
    """
    name = variable.name
    if name not in v.domain:
        raise DomainMismatchError("%r is not in the valuation's domain" % name)
    rest = v.domain - {name}
    belief = v.kind == BELIEF
    is_dec = variable.is_decision and not belief
    if not belief and not is_dec:
        lam = check_lambda(lam)
    frames = {n: f for n, f in v.frames.items() if n in rest}

    # Split each focal by projection, then group focals by projected support;
    # the first focal's set is the group's key and its support.  A belief
    # focal's mass is read once here.
    domain = sorted(v.domain)
    project, pos = _projector(domain, rest), domain.index(name)
    groups = {}
    for idx, f in enumerate(v.focals):
        slices = {}
        for y in f.support:
            slices.setdefault(project(y), {})[y] = f.values[y]
        # keys(): frozenset(dict) presizes, so the set would iterate in another order.
        mass = f.mass if belief else None
        groups.setdefault(frozenset(slices.keys()), []).append((idx, mass, slices))

    scores = {}
    focal_prefs = {}
    focals = []
    contributions = []
    # The groups are distinct supports: sorting them and dropping zero-mass
    # belief focals is all that canonical_focals would add.
    for support in sorted(groups, key=sorted) if len(groups) > 1 else groups:
        values = {}
        contribs = {}
        for x in support:
            total = 0.0
            for idx, mass, slices in groups[support]:
                ext = slices[x]
                if belief:
                    contrib = mass
                elif is_dec and policy is not None:
                    contrib = _policy_value(ext, x, name, policy)
                elif is_dec:
                    # x and an act determine the configuration: one value per act.
                    peaks = {y[pos][1]: val for y, val in ext.items()}
                    contrib = max(peaks.values())
                    acts = scores.setdefault(x, {})
                    for act, val in peaks.items():
                        acts[act] = acts.get(act, 0.0) + val
                    if len(v.focals) > 1:  # one focal cannot conflict with itself
                        focal_prefs.setdefault(x, set()).add(_best_act(peaks, variable.frame))
                else:
                    contrib = lam * max(ext.values()) + (1.0 - lam) * min(ext.values())
                contribs[(idx, x)] = contrib
                total += contrib
            values[x] = total
        if belief and all(m == 0 for m in values.values()):
            continue
        focals.append(Focal(support, _finite(values, "marginal value")))
        contributions.append(contribs)

    kind = BELIEF if belief else _nonbelief_kind(rest, frames, focals)
    result = Valuation(rest, frames, kind, tuple(focals))

    table = None
    if is_dec and policy is None:
        choices = {x: _best_act(acts, variable.frame) for x, acts in scores.items()}
        conflicts = frozenset(x for x, prefs in focal_prefs.items() if len(prefs) > 1)
        table = SolutionTable(name, tuple(sorted(rest)), choices, conflicts)
    return result, table, contributions


def _best_act(acts, frame):
    """The first act of the frame whose value in ``acts`` is the largest."""
    best = max(acts.values())
    for act in frame:
        if act in acts and acts[act] == best:
            return act
    raise SolverError("no act attains the maximum value; the values are not all finite")


def _policy_value(ext, x, name, policy):
    """Value of the extension picked by a stored solution table, 0 if absent."""
    ctx = frozenset(policy.context)
    key = project_config(x, ctx & frozenset(n for n, _ in x))
    act = policy.choices.get(key)
    if act is None:
        raise SolverError("the policy for %r has no act for the context %r" % (name, key))
    y = concat_configs(x, make_config({name: act}))
    return ext.get(y, 0.0)
