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


def config_maker(names):
    """Function from values listed in the order of ``names`` to their configuration."""
    # (name, place) pairs stay distinct where a name repeats, and sort as the names do.
    places = tuple(zip(names, range(len(names))))
    pick = _projector(places, places)
    sorted_names = sorted(names)
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
