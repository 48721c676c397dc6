"""Combination and marginalization of valuations.

Combination hash-joins one focal per input on their shared variables: belief
with belief follows Dempster's rule (product, normalized by one minus the
conflict), non-belief with non-belief adds values, and a mixed pair multiplies
without normalization.  A pool of non-beliefs that each have one focal
covering their whole frame, as every utility has, skips the join: their
values, each broadcast over the joint frame, add there.
Marginalization removes one variable at a time: a maximum for decision
variables and a lambda-weighted blend of maximum and minimum for random
variables; belief valuations reduce to plain mass summation over projected
supports.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple

from .errors import DomainMismatchError, KindError, SolverError, TotalConflictError, ValnetError, _refuse_past
from .model import DIAMOND, RANDOM, Variable, broadcast, extender, iter_configs, projector, value_reader
from .valuation import BELIEF, GENERAL, UTILITY, Focal, Valuation, _focal_order, canonical_focals

CONFLICT_TOL = 1e-12
# Most combinations of one focal per input that ``combine_all_traced`` joins.
COMBINE_LIMIT = 10 ** 6
# Most configurations that one level of a ``_joint_supports`` join may hold,
# or the frame of the first inputs' union in a ``_frame_sum``.
JOIN_LIMIT = 10 ** 5


def check_lambda(lam):
    if lam is None:
        raise ValnetError("a weighting factor in [0, 1] is required")
    try:
        lam = float(lam)
    except (TypeError, ValueError, OverflowError):
        raise ValnetError("weighting factor %r is not a number in [0, 1]" % (lam,))
    if not 0.0 <= lam <= 1.0:
        raise ValnetError("weighting factor %r is outside [0, 1]" % lam)
    return lam + 0.0  # -0.0 becomes 0.0


class SolutionTable(namedtuple("SolutionTable", "decision context choices totals", defaults=(None,))):
    """Recorded optimal acts for one decision variable.

    ``choices`` maps each configuration of the remaining variables to the act
    maximizing the summed per-focal contribution.  ``totals`` maps each of
    them to {act: that sum}, so a margin or a tie can be read off the table;
    it is None in a table built by hand as a policy.
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


def _joint_supports(parts, domains):
    """Nonempty joint supports of every choice of one member set per part.

    ``parts[i]`` maps index tuples to member sets over ``domains[i]``.  The
    first part's sets are the first level; each further part is hash-joined
    in: a combination's configurations are grouped by their shared key once,
    each group meets the part's members with that key, and the model's
    extender joins each pair.  A level whose exact size, known from the
    groups, passes ``JOIN_LIMIT`` raises ``SolverError`` before it is built.
    Returns {concatenated index tuple: configurations over the union}, in
    product order; no parts give the diamond.
    """
    if not parts:
        return {(): [DIAMOND]}
    domain, level = domains[0], parts[0]
    for part, inner in zip(parts[1:], domains[1:]):
        new = inner - domain
        key, inner_key, extra = projector(domain, inner), projector(inner, domain), projector(inner, new)
        extend = extender(domain, new)
        domain = domain | inner
        indexes = {k: {} for k in part}
        for k, members in part.items():
            for y in members:
                indexes[k].setdefault(inner_key(y), []).append(extra(y))
        matches, size = [], 0
        for combo, acc in level.items():
            groups = {}
            for z in acc:
                groups.setdefault(key(z), []).append(z)
            for k, index in indexes.items():
                pairs = [(zs, es) for g, zs in groups.items() if (es := index.get(g))]
                if pairs:
                    matches.append((combo + k, pairs))
                    size += sum(len(zs) * len(es) for zs, es in pairs)
        _refuse_past(JOIN_LIMIT, size, "combining would build {0} joint configurations")
        level = {combo: [extend(z, e) for zs, es in pairs for z in zs for e in es] for combo, pairs in matches}
    return level


def _frame_sum(others, union, frames):
    """The one focal of a pool of non-beliefs whose focals each cover their whole frame.

    A lone input's values are only added to 0.0, as the join adds them.
    Otherwise each input's values are read in its own ``iter_configs``
    order and broadcast over the union's frame, where they add in argument
    order; the union's frame is enumerated once, in that order, to key the
    result in the order the support iterates.  Each level of the join this
    replaces, the frame of the union of the first inputs, is held to
    ``JOIN_LIMIT`` before the union's frame is built.  None when a support
    of the right size holds a configuration outside its frame: the join
    combines such a pool.
    """
    if len(others) == 1:
        (focal,) = others[0].focals
        read = map(focal.values.__getitem__, focal.support)
        values = dict(zip(focal.support, map(operator.add, read, itertools.repeat(0.0))))
        return Focal(focal.support, _finite(values, "combined value"))
    columns, configs = [], None
    for v in others:
        own = iter_configs(v.domain, frames)
        if v.domain == union:  # its frame is the union's, enumerated once
            own = configs = configs or list(own)
        try:
            columns.append(list(map(v.focals[0].values.__getitem__, own)))
        except KeyError:
            return None
    domain = others[0].domain
    for v in others[1:]:
        domain |= v.domain
        size = math.prod(len(frames[name]) for name in domain)
        _refuse_past(JOIN_LIMIT, size, "combining would build {0} joint configurations")
    configs = configs or list(iter_configs(union, frames))
    totals = itertools.repeat(0.0)
    for v, column in zip(others, columns):
        totals = map(operator.add, totals, broadcast(column, union, v.domain, frames))
    # An input over the whole union already holds its frame as a support.
    support = next((v.focals[0].support for v in others if v.domain == union), None) or frozenset(configs)
    values = dict.fromkeys(support)  # keyed in the order the support iterates
    values.update(zip(configs, totals))
    return Focal(support, _finite(values, "combined value"))


def combine(vi, vj):
    """Binary combination of two valuations."""
    return combine_all([vi, vj])


def combine_all(valuations):
    """Fold a pool of valuations, combining non-beliefs before beliefs."""
    result, _ = combine_all_traced(valuations)
    return result


def combine_all_traced(valuations):
    """N-ary combination: values of non-beliefs add, belief masses multiply.

    A pool without beliefs whose every input has one focal covering its
    whole frame, as every utility has, is one focal over the union's frame:
    ``_frame_sum`` adds the values there, with no join.  Otherwise joint
    supports are hash joins on the shared variables.  The joint of each
    combination of belief focals is built once: the empty ones make up the
    conflict, by which the belief part is renormalized, and the non-belief
    focals are joined with the others.  That normalization matters only to
    direct library callers: on a valid network no fusion step of ``solve``
    or ``propagate_marginal`` meets conflict.  Each distinct joint support is
    one frozenset.  Each combination gives one values dict over its joint, or
    one mass in a belief-only pool; only a joint that several combinations
    reach sums them by an exact fsum.  A belief-only pool's joints and masses
    become focals through ``canonical_focals``.  Non-beliefs are combined
    before beliefs, and each belief focal's mass is read once.  More than
    ``COMBINE_LIMIT`` focal combinations raise ``SolverError`` before any join.

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
    restore = sorted(range(len(order)), key=order.__getitem__)  # combination to argument order
    inputs = [valuations[i] for i in order]
    others, beliefs = inputs[:n_others], inputs[n_others:]
    union = frozenset().union(*(v.domain for v in inputs))
    frames = _merge_frames(inputs)
    combinations = math.prod(len(v.focals) for v in inputs)
    _refuse_past(COMBINE_LIMIT, combinations, "combining would join {0} focal combinations")
    if not beliefs and all(
        len(v.focals) == 1 and len(v.focals[0].support) == v.full_frame_size() > 0 for v in others
    ):
        focal = _frame_sum(others, union, frames)
        if focal is not None:
            return Valuation(union, frames, UTILITY, (focal,)), [[(0,) * len(others)]]

    parts = [{(i,): f.support for i, f in enumerate(v.focals)} for v in inputs]
    domains = [v.domain for v in inputs]
    belief_joints = _joint_supports(parts[n_others:], domains[n_others:])
    masses = [[f.mass for f in v.focals] for v in beliefs]
    clashes = [
        math.prod(map(list.__getitem__, masses, combo))
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
    projectors = [projector(union, v.domain) for v in others]
    accum, provenance = {}, {}
    for combo, members in joints.items():
        mass = math.prod(map(list.__getitem__, masses, combo[n_others:])) / norm
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
        provenance.setdefault(joint, []).append(tuple(map(combo.__getitem__, restore)))

    if not accum:
        raise TotalConflictError("no joint focal has a nonempty support")

    if others:
        merged = {}
        for joint, found in accum.items():
            values = found[0] if len(found) == 1 else {z: _fsum([d[z] for d in found]) for z in found[0]}
            merged[joint] = _finite(values, "combined value")
        focals = tuple(Focal(joint, merged[joint]) for joint in _focal_order(merged))
        kind = _nonbelief_kind(union, frames, focals)
    else:
        items = [(joint, found[0] if len(found) == 1 else _fsum(found)) for joint, found in accum.items()]
        focals, kind = canonical_focals(items, "combined value"), BELIEF
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

    Each focal is split once by the projection of its configurations.  A
    belief valuation's focals become (projected support, mass) items of
    ``canonical_focals``, so masses of equal projected supports add.  Any
    other valuation's focals with equal projected supports add up into one
    result focal: at a projected configuration each source focal contributes
    the maximum of its values there (decision variables; a ``policy`` table
    picks the act instead, and a focal without that act raises
    ``SolverError``; otherwise the best acts and the per-act totals they are
    chosen by are recorded in a solution table) or the lambda-weighted blend
    of that maximum and minimum (random variables).

    Returns (valuation, solution table or None).
    """
    name = variable.name
    if name not in v.domain:
        raise DomainMismatchError("%r is not in the valuation's domain" % name)
    rest = v.domain - {name}
    frames = {n: f for n, f in v.frames.items() if n in rest}
    project = projector(v.domain, rest)
    if v.kind == BELIEF:
        # keys(): frozenset(dict) presizes, so the set would iterate in another order.
        items = [(frozenset(dict.fromkeys(map(project, f.support)).keys()), f.mass) for f in v.focals]
        return Valuation(rest, frames, BELIEF, canonical_focals(items, "marginal value")), None
    is_dec = variable.is_decision
    if not is_dec:
        lam = check_lambda(lam)

    # Group focals by projected support; the first focal's set is the group's
    # key and its support.  A focal is split by projection: at a decision
    # into {act: value}, since x and an act fix the configuration, else into
    # a list of values.
    act = value_reader(v.domain, name)
    groups = {}
    for f in v.focals:
        slices = {}
        if is_dec:
            for y, val in f.values.items():
                slices.setdefault(project(y), {})[act(y)] = val
        else:
            for y, val in f.values.items():
                slices.setdefault(project(y), []).append(val)
        groups.setdefault(frozenset(slices.keys()), []).append(slices)

    scores = {}
    focals = []
    forcing = is_dec and policy is not None
    context = projector(rest, tuple(policy.context)) if forcing else None
    for support in _focal_order(groups):
        values = {}
        for x in support:
            total = 0.0
            if forcing:
                forced = policy.choices.get(context(x))
                if forced is None:
                    raise SolverError(
                        "the policy for %r has no act for the context %r" % (name, context(x))
                    )
            for slices in groups[support]:
                ext = slices[x]
                if is_dec:
                    if forcing:
                        if forced not in ext:
                            raise SolverError(
                                "a focal has no value at %r for %r = %r, the act the policy forces"
                                % (x, name, forced)
                            )
                        contrib = ext[forced]
                    else:
                        contrib = max(ext.values())
                        acts = scores.get(x)
                        if acts is None:
                            scores[x] = dict(ext)
                        else:
                            for act, val in ext.items():
                                acts[act] = acts.get(act, 0.0) + val
                else:
                    contrib = lam * max(ext) + (1.0 - lam) * min(ext)
                total += contrib
            values[x] = total
        focals.append(Focal(support, _finite(values, "marginal value")))

    result = Valuation(rest, frames, _nonbelief_kind(rest, frames, focals), tuple(focals))

    table = None
    if is_dec and policy is None:
        choices = {x: _best_act(acts, v.frames[name]) for x, acts in scores.items()}
        table = SolutionTable(name, tuple(sorted(rest)), choices, scores)
    return result, table


def _best_act(acts, frame):
    """The first act of the frame whose value in ``acts`` is the largest."""
    best = max(acts.values())
    for act in frame:
        if act in acts and acts[act] == best:
            return act
    raise SolverError("no act attains the maximum value; the values are not all finite")

