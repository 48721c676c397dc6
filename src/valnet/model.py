"""Variables, frames, configurations and their projection and concatenation.

A configuration is represented as a tuple of (variable, value) pairs sorted
by variable name, which makes equality and hashing canonical regardless of
how the configuration was assembled.  The unique configuration of the empty
variable set is the empty tuple, DIAMOND.  A set of configurations (a focal's
support) is a plain frozenset of them; its domain is the valuation's, checked
where a set enters the program (``make_bpa``, ``belief_of``).
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple

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


def config_maker(names):
    """Function from values listed in the order of ``names`` to their configuration."""
    order = sorted(range(len(names)), key=names.__getitem__)
    pick = operator.itemgetter(*order) if len(order) > 1 else tuple
    sorted_names = [names[i] for i in order]
    return lambda values: tuple(zip(sorted_names, pick(values)))


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
