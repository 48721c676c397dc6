"""Variables, frames, configurations and their projection and concatenation.

A configuration is represented as a tuple of (variable, value) pairs sorted
by variable name, which makes equality and hashing canonical regardless of
how the configuration was assembled.  The unique configuration of the empty
variable set is the empty tuple, DIAMOND.  A set of configurations (a focal's
support) is a plain frozenset of them; its domain is the valuation's.

This module is the only one that knows that layout.  Other modules build,
read, project and extend configurations through the functions below, most of
which make a function once per list of variables, and ``config_judge`` judges
every configuration that enters the program from outside.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from functools import lru_cache

from .errors import DomainMismatchError, NetworkError

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


@lru_cache(maxsize=4096)
def _projector(names, domain):
    """Function from a tuple over ``names`` to its items over ``domain`` in name order.

    The program's one positional projection, cached per (names, domain).  All
    of its items in their order is the identity: a full slice hands back the
    tuple itself, not a copy.
    """
    positions = [names.index(n) for n in sorted(domain) if n in names]
    if positions == list(range(len(names))):
        return operator.itemgetter(slice(None))
    if len(positions) == 1:  # itemgetter would give the bare item
        return operator.itemgetter(slice(positions[0], positions[0] + 1))
    return operator.itemgetter(*positions) if positions else lambda x: DIAMOND


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
    at = [sorted(domain).index(n) for n in names]
    return lambda x: tuple([x[i][1] for i in at])


@lru_cache(maxsize=4096)
def value_reader(domain, name):
    """Function from a configuration over ``domain`` to its value of ``name``."""
    at = sorted(domain).index(name)
    return lambda x: x[at][1]


def config_mapping(x):
    """The {variable: value} mapping of configuration x, as ``make_config`` takes it."""
    return dict(x)


@lru_cache(maxsize=4096)
def config_extender(names, extra, domain):
    """Function from a configuration over ``names`` and values listed for the
    names ``extra`` to the joint configuration's items over ``domain``."""
    joined = tuple(sorted(names)) + extra
    project = _projector(joined, domain)
    return lambda x, values: project(x + tuple(zip(extra, values)))


def project_config(x, h):
    """Drop the coordinates of x outside h.  Requires h to be a subset of x's domain."""
    h = frozenset(h)
    if not h <= {name for name, _ in x}:
        raise DomainMismatchError("cannot project %r to %r" % (x, sorted(h)))
    return tuple(pair for pair in x if pair[0] in h)


def concat_configs(x, y):
    """Join two configurations over disjoint domains into one."""
    if {name for name, _ in x} & {name for name, _ in y}:
        raise DomainMismatchError("domains overlap: %r and %r" % (x, y))
    return tuple(sorted(x + y))


def iter_configs(names, frames):
    """Every configuration of the given variables, lazily, in a deterministic order."""
    return itertools.product(*([(n, value) for value in frames[n]] for n in sorted(names)))


def all_configs(names, frames):
    """Every configuration of the given variables, in a deterministic order."""
    return list(iter_configs(names, frames))
