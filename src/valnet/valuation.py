"""Valuations as sets of extended focal elements.

A valuation attaches to each focal element (a frozenset of configurations
over the valuation's domain) a real value per configuration.  Belief
functions carry one constant mass per focal, utility valuations consist of a
single focal covering the whole frame, and anything else produced by the
calculus is labelled "general".
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from functools import reduce
from itertools import chain

from .errors import DomainMismatchError, KindError, MassError, NetworkError, UtilityError, _refuse_past
from .model import DIAMOND, Variable, _projector, all_configs, config_extender, config_judge, config_mapping, iter_configs

BELIEF = "belief"
UTILITY = "utility"
GENERAL = "general"

# Absolute tolerance on bpa mass sums.
MASS_TOL = 1e-9
# Most focal combinations a potential's balloon enumerates (one focal per
# parent configuration); 3 focals on each of 9 parent configurations give 19,683.
BALLOON_LIMIT = 10_000


class Focal(namedtuple("Focal", "support values")):
    """An extended focal element: a support set and one value per member."""

    __slots__ = ()

    def __new__(cls, support, values):
        if values.keys() != support:
            raise DomainMismatchError("focal values must cover exactly the support")
        return tuple.__new__(cls, (support, values))  # as namedtuple's own __new__, one call less

    # ``_replace`` builds through ``_make``, which would skip ``__new__``.
    _make = classmethod(lambda cls, it: cls(*it))

    @property
    def mass(self):
        """The constant value of a belief-function focal."""
        return next(iter(self.values.values()))


class Valuation(namedtuple("Valuation", "domain frames kind focals label", defaults=("",))):
    __slots__ = ()

    # The label only names a valuation: equality ignores it, and a tuple that
    # is not a Valuation is never equal.  ``frames`` is a dict, so no hash.
    def __eq__(self, other):
        return type(other) is type(self) and self[:4] == other[:4]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:4])

    def full_frame_size(self):
        return math.prod(len(self.frames[n]) for n in self.domain)

    def value_at(self, x):
        """Total value of configuration x summed over the focals containing it, in focal order."""
        return _fold(f.values[x] for f in self.focals if x in f.support)


def _fold(values):
    """Masses added by a plain left fold, the same floats on every Python version.

    sum() compensates float rounding from Python 3.12 on.
    """
    return reduce(operator.add, values, 0.0)


def frames_of(variables):
    return {v.name: tuple(v.frame) for v in variables}


def _focal_order(supports):
    """The supports as a list in the order of focals: by their sorted configurations.

    Most supports share their smallest configuration with another, so a key
    on less than all of them would still need this one to break ties.
    """
    return sorted(supports, key=sorted) if len(supports) > 1 else list(supports)


def canonical_focals(items, kind):
    """Merge focals with equal supports by pointwise summation and sort them.

    A merged focal keeps the first item's support.  A focal adopts its item's
    values dict; a merge sums into a copy, so no given dict is changed.
    Belief-kind zero-mass focals are dropped.
    """
    merged = {}
    for support, values in items:
        if support in merged:
            old = merged[support] = dict(merged[support])
            for x, v in values.items():
                old[x] = old.get(x, 0.0) + v
        else:
            merged[support] = values
    focals = []
    for support in _focal_order(merged):
        values = merged[support]
        if kind == BELIEF and not any(values.values()):
            continue
        focals.append(Focal(support, values))
    return tuple(focals)


def _mass_error(label, cfg, message):
    where = "bpa %r, parent %r" % (label, config_mapping(cfg)) if cfg else "bpa %r" % label
    return MassError("%s: %s" % (where, message))


def _check_bpa_masses(assignments, label, cfg=DIAMOND):
    """Masses must be finite and nonnegative, and sum to one."""
    total = 0.0
    for _, mass in assignments:
        if not math.isfinite(mass):
            raise _mass_error(label, cfg, "non-finite mass %r" % mass)
        if mass < 0:
            raise _mass_error(label, cfg, "negative mass %r" % mass)
        total += mass
    if abs(total - 1.0) > MASS_TOL:
        raise _mass_error(label, cfg, "masses sum to %.12g, expected 1" % total)


def _support_over(configs, frames):
    """The configurations as a frozenset, checked to be nonempty and judged over ``frames``."""
    support = frozenset(configs)
    if not support:
        raise DomainMismatchError("a configuration set must be nonempty")
    judge = config_judge(frames, frames)
    for x in support:
        if judge(x) is None:
            raise DomainMismatchError(
                "configuration %r is not over domain %r within its frames" % (x, sorted(frames))
            )
    return support


def _domain(variables):
    """The names of a valuation's variables, which must be nonempty and distinct."""
    names = [v.name for v in variables]
    if not names:
        raise NetworkError("a valuation needs at least one variable")
    if len(set(names)) != len(names):
        repeated = next(n for n in names if names.count(n) > 1)
        raise NetworkError("a valuation names variable %r more than once" % repeated)
    return frozenset(names)


def make_bpa(variables, assignments, label=""):
    """Build a belief valuation from (iterable of configurations, mass) pairs.

    Duplicate supports are merged by summing their masses; zero-mass entries
    are dropped.  Masses must be nonnegative and sum to one.
    """
    variables = list(variables)
    domain = _domain(variables)
    frames = frames_of(variables)
    assignments = [(_support_over(configs, frames), mass) for configs, mass in assignments]
    _check_bpa_masses(assignments, label)
    items = [
        (support, {x: float(mass) for x in support})
        for support, mass in assignments
        if mass > 0
    ]
    focals = canonical_focals(items, BELIEF)
    return Valuation(domain, frames, BELIEF, focals, label)


def make_utility(variables, table, label=""):
    """Build a utility valuation from a {configuration: value} table.

    The table must cover the full frame of the variables, nothing more.
    """
    variables = list(variables)
    domain = _domain(variables)
    frames = frames_of(variables)
    size = math.prod(len(f) for f in frames.values())
    # Counted first, so that a short table never builds the frame product.
    if len(table) < size or table.keys() != (support := frozenset(iter_configs(domain, frames))):
        raise _coverage_error(label, frames, table, size)
    values = {x: float(v) + 0.0 for x, v in table.items()}  # -0.0 becomes 0.0
    if not all(map(math.isfinite, values.values())):
        bad = sorted(x for x, v in values.items() if not math.isfinite(v))
        raise UtilityError("utility values are not finite at %r" % (bad,))
    return Valuation(domain, frames, UTILITY, (Focal(support, values),), label)


def _coverage_error(label, frames, table, size):
    """Name a row outside the frame product, or else the smallest missing one."""
    judge = config_judge(frames, frames)
    for x in table:
        if judge(x) is None:
            return DomainMismatchError("utility %r has a row %r outside its frame" % (label, x))
    lexical = iter_configs(frames, {n: sorted(f) for n, f in frames.items()})
    first = next(x for x in lexical if x not in table)
    return DomainMismatchError(
        "utility %r is missing %d configuration(s), e.g. %r" % (label, size - len(table), first)
    )


def vacuous(variables, label=""):
    """The belief function putting all mass on the full frame."""
    variables = list(variables)
    domain = _domain(variables)
    frames = frames_of(variables)
    support = frozenset(iter_configs(domain, frames))
    return Valuation(domain, frames, BELIEF, (Focal(support, {x: 1.0 for x in support}),), label)


def belief_of(v, a):
    """Bel(a): total mass of the focals contained in the configurations a."""
    if v.kind != BELIEF:
        raise KindError("belief_of needs a belief valuation, got %r" % v.kind)
    a = _support_over(a, v.frames)
    return _fold(f.mass for f in v.focals if f.support <= a)


def is_vacuous(v):
    if v.kind != BELIEF or len(v.focals) != 1:
        return False
    focal = v.focals[0]
    return len(focal.support) == v.full_frame_size() and abs(focal.mass - 1.0) <= MASS_TOL


def is_conditional(v, head_name):
    """True iff every focal of v projects onto the whole frame of v's other variables.

    For a bpa, whose masses are judged where it is built, this is condition d.
    Each configuration is projected once, to one tuple, and the distinct
    projections of a focal are counted against that frame's size.
    """
    if v.kind != BELIEF:
        raise KindError("is_conditional needs a belief valuation, got %r" % v.kind)
    if head_name not in v.domain:
        raise DomainMismatchError("%r is not in the valuation's domain" % head_name)
    rest = v.domain - {head_name}
    size = math.prod(len(v.frames[n]) for n in rest)
    project = _projector(tuple(sorted(v.domain)), rest)
    return all(len(set(map(project, f.support))) == size for f in v.focals)


class ConditionalPotential(namedtuple("ConditionalPotential", "head parents tables ballooned label")):
    """A per-parent family of bpas over one random variable, and its balloon.

    ``tables`` maps parent configurations (or tuples of parent values) to
    (head-value subset, mass) pairs.  Each focal of the joint bpa ``ballooned``
    picks one focal per parent configuration: its support is the union of the
    picked slices, its mass their product.  Each entry's slice is built once:
    a cell per value of its subset, the parent configuration extended by the
    head's value.  More than ``BALLOON_LIMIT`` picks raise ``SolverError`` before any pick.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = Valuation.__eq__, Valuation.__ne__, Valuation.__hash__

    def __new__(cls, head, parents, tables, label=""):
        parents = tuple(parents)
        if head.kind != "random":
            raise NetworkError("bpa head %r must be a random variable" % head.name)
        names = [p.name for p in parents]
        if head.name in names or len(set(names)) != len(names):
            raise NetworkError("bad parent list for bpa %r" % label)
        frames = frames_of(parents + (head,))
        normalized = _parent_tables(names, frames, tables)
        parent_names = frozenset(names)
        count = math.prod(len(p.frame) for p in parents)
        # Counted first, so that a short table never builds the frame product.
        enumerate_configs = all_configs if len(normalized) == count else iter_configs
        parent_configs = enumerate_configs(parent_names, frames)
        missing = next((c for c in parent_configs if c not in normalized), None)
        if missing is not None:
            raise DomainMismatchError(
                "bpa %r has no entries for parent configuration %r" % (label, missing)
            )
        head_frame = set(head.frame)
        for cfg, entries in normalized.items():
            for subset, _ in entries:
                if not subset:
                    raise _mass_error(label, cfg, "empty focal element")
                if not subset <= head_frame:
                    raise _mass_error(
                        label, cfg,
                        "focal %r is not a subset of the frame of %r" % (sorted(subset), head.name),
                    )
            _check_bpa_masses(entries, label, cfg)
        combinations = math.prod(len(entries) for entries in normalized.values())
        _refuse_past(
            BALLOON_LIMIT, combinations, "ballooning {1!r} would enumerate {0} focal combinations", head.name
        )
        extend = config_extender(tuple(names), (head.name,), tuple(sorted(frames)))
        per_parent = [
            [(tuple(extend(c, (r,)) for r in subset), m) for subset, m in normalized[c]]
            for c in parent_configs
        ]
        items = []
        for choice in itertools.product(*per_parent):
            slices, masses = zip(*choice)
            mass = math.prod(masses)
            if mass <= 0:
                continue
            support = frozenset(chain(*slices))
            items.append((support, dict.fromkeys(support, mass)))
        focals = canonical_focals(items, BELIEF)
        ballooned = Valuation(parent_names | {head.name}, frames, BELIEF, focals, label)
        return super().__new__(cls, head, parents, normalized, ballooned, label)

    # ``_replace``, copies and pickles build through these, so the balloon is
    # always derived again from the tables, never given.
    @classmethod
    def _make(cls, fields):
        head, parents, tables, _, label = fields
        return cls(head, parents, tables, label)

    def _replace(self, **changes):
        if "ballooned" in changes:
            raise TypeError("a potential's ballooned bpa is derived from its tables")
        return super()._replace(**changes)

    __replace__ = _replace  # copy.replace, from Python 3.13
    __getnewargs__ = lambda self: (self.head, self.parents, self.tables, self.label)

    @property
    def domain(self):
        return self.ballooned.domain


def _parent_tables(names, frames, tables):
    """Per-parent tables keyed by canonical parent configurations.

    A key is a canonical parent configuration, a tuple of parent values in
    the order the parents are listed, or a bare value for one parent: the
    first of these readings that ``config_judge`` accepts, by frame
    membership, is the key's.
    """
    judge = config_judge(names, frames)
    normalized = {}
    for key, entries in tables.items():
        cfg = judge(key)
        if cfg is None:
            cfg = judge(key, listed=True)
        if cfg is None:
            cfg = judge((key,), listed=True)
        if cfg is None:
            raise DomainMismatchError("parent key %r does not match parents %r" % (key, names))
        if cfg in normalized:
            raise DomainMismatchError("duplicate table for parent %r" % (cfg,))
        normalized[cfg] = tuple((frozenset(s), float(m)) for s, m in entries)
    return normalized


# The name the parser and most callers build potentials by.
conditional = ConditionalPotential
