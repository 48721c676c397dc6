"""Variables, frames and configurations: building, judging, reading and projecting them.

A configuration is represented as a tuple of (variable, value) pairs sorted
by variable name, which makes equality and hashing canonical regardless of
how the configuration was assembled.  The unique configuration of the empty
variable set is the empty tuple, DIAMOND.  A set of configurations (a focal's
support) is a plain frozenset of them; its domain is the valuation's.

Other modules build, read, project and extend configurations through the
functions below, most of which make a function once per domain;
``config_judge`` judges every configuration that enters the program from
outside, and ``listed_configs`` is the one map from listed values to
configurations.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from functools import lru_cache

from .errors import NetworkError

DECISION = "decision"
RANDOM = "random"

# A configuration: tuple of (variable name, value label) pairs, sorted by name.
Config = tuple

DIAMOND: Config = ()


class Variable(namedtuple("Variable", "name kind frame")):
    """A decision or random variable with an ordered finite frame."""

    __slots__ = ()

    def __new__(cls, name, kind, frame):
        if kind not in (DECISION, RANDOM):
            raise NetworkError("variable %r: kind must be %r or %r" % (name, DECISION, RANDOM))
        frame = tuple(frame)
        if not frame:
            raise NetworkError("variable %r has an empty frame" % name)
        if len(set(frame)) != len(frame):
            raise NetworkError("variable %r repeats a frame value" % name)
        return super().__new__(cls, name, kind, frame)

    # ``_replace`` builds through ``_make``, which would skip ``__new__``.
    _make = classmethod(lambda cls, it: cls(*it))

    @property
    def is_decision(self):
        return self.kind == DECISION


def decision(name, frame):
    return Variable(name, DECISION, tuple(frame))


def random_var(name, frame):
    return Variable(name, RANDOM, tuple(frame))


def make_config(values):
    """Build a canonical configuration from a {variable: value} mapping."""
    return tuple(sorted(values.items()))


def _items(positions):
    """Function from a tuple to the tuple of its items at ``positions``, in that order."""
    if len(positions) == 1:  # itemgetter would give the bare item
        return operator.itemgetter(slice(positions[0], positions[0] + 1))
    return operator.itemgetter(*positions) if positions else lambda x: DIAMOND


def _projector(names, onto):
    """Function from a tuple over ``names`` to its items over the names of ``onto``, in name order.

    All of its items in their order is the identity: a full slice hands back
    the tuple itself, not a copy.
    """
    positions = [names.index(n) for n in sorted(onto) if n in names]
    return operator.itemgetter(slice(None)) if positions == list(range(len(names))) else _items(positions)


@lru_cache(maxsize=4096)
def projector(domain, onto):
    """Function from a configuration over ``domain`` to its projection onto the names of ``onto`` it holds."""
    return _projector(tuple(sorted(domain)), onto)


@lru_cache(maxsize=4096)
def extender(domain, extra, onto=None):
    """Function joining a configuration over ``domain`` and one over ``extra``, a disjoint domain.

    The joint configuration is over the union, or projected onto the names of
    ``onto`` if given.  The plan is made once per (domain, extra, onto): the
    concatenation where ``extra``'s names all sort last, else one fixed
    permutation of it.
    """
    names, added = tuple(sorted(domain)), tuple(sorted(extra))
    if onto is None and (not names or not added or added[0] > names[-1]):
        return operator.add
    project = _projector(names + added, names + added if onto is None else onto)
    return lambda x, y: project(x + y)


_value = operator.itemgetter(1)


def config_judge(names, frames):
    """Function judging a configuration over the variables ``names`` that enters from outside.

    ``frames`` maps each name to its frame.  The function takes a
    configuration, or with ``listed=True`` a tuple of values listed in the
    order of ``names``, and gives back the canonical configuration if it holds
    exactly these variables, each with a value of its frame; otherwise None.
    Frame membership alone decides, so a value may itself be a tuple.  Input
    that is not such a tuple, or holds a value that cannot be hashed, gives
    None as well.
    """
    names = tuple(names)
    ordered = tuple(sorted(names))
    sets = [frozenset(frames[n]) for n in ordered]

    def judge(x, listed=False):
        if not isinstance(x, tuple) or len(x) != len(names):
            return None
        try:
            if listed:
                x = tuple(sorted(zip(names, x)))  # values are compared only where a name repeats
            elif x != tuple(zip(ordered, map(_value, x))):  # other names, or not pairs
                return None
            return x if all(map(operator.contains, sets, map(_value, x))) else None
        except (TypeError, IndexError):  # an item that is not a pair, or a value without a hash
            return None

    return judge


@lru_cache(maxsize=4096)
def values_reader(domain, names):
    """Function from a configuration over ``domain`` to its values of ``names``, in that order."""
    pairs = _items([sorted(domain).index(n) for n in names])
    return lambda x: tuple(map(_value, pairs(x)))


@lru_cache(maxsize=4096)
def value_reader(domain, name):
    """Function from a configuration over ``domain`` to its value of ``name``."""
    at = sorted(domain).index(name)
    return lambda x: x[at][1]


def config_mapping(x):
    """The {variable: value} mapping of configuration x, as ``make_config`` takes it."""
    return dict(x)


def iter_configs(names, frames):
    """Every configuration of the given variables, lazily, in a deterministic order."""
    return itertools.product(*([(n, value) for value in frames[n]] for n in sorted(names)))


def all_configs(names, frames):
    """Every configuration of the given variables, in a deterministic order."""
    return list(iter_configs(names, frames))


def listed_configs(names, frames):
    """{values listed in the order of ``names``: configuration} over the frame product."""
    # Both products run over the variables in name order, as configurations
    # sort them; ``back`` puts each tuple of values into the order of ``names``.
    names = tuple(names)
    order = sorted(range(len(names)), key=names.__getitem__)
    values = itertools.product(*(frames[names[i]] for i in order))
    if order != sorted(order):
        back = sorted(range(len(order)), key=order.__getitem__)
        values = map(operator.itemgetter(*back), values)
    return dict(zip(values, iter_configs(names, frames)))
