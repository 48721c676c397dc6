"""Variables, frames, configurations and the projection/extension algebra.

A configuration is represented as a tuple of (variable, value) pairs sorted
by variable name, which makes equality and hashing canonical regardless of
how the configuration was assembled.  The unique configuration of the empty
variable set is the empty tuple, DIAMOND.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DomainMismatchError, NetworkError

DECISION = "decision"
RANDOM = "random"

# A configuration: tuple of (variable name, value label) pairs, sorted by name.
Config = tuple

DIAMOND: Config = ()


@dataclass(frozen=True)
class Variable:
    """A decision or random variable with an ordered finite frame."""

    name: str
    kind: str
    frame: tuple

    def __post_init__(self):
        if self.kind not in (DECISION, RANDOM):
            raise NetworkError("variable %r: kind must be %r or %r" % (self.name, DECISION, RANDOM))
        frame = tuple(self.frame)
        object.__setattr__(self, "frame", frame)
        if not frame:
            raise NetworkError("variable %r: frame is empty" % self.name)
        if len(set(frame)) != len(frame):
            raise NetworkError("variable %r: frame labels are not unique" % self.name)

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


def config_domain(x):
    return frozenset(name for name, _ in x)


def project_config(x, h):
    """Drop the coordinates of x outside h.  Requires h to be a subset of x's domain."""
    h = frozenset(h)
    if not h <= config_domain(x):
        raise DomainMismatchError("cannot project %r to %r" % (x, sorted(h)))
    return tuple(pair for pair in x if pair[0] in h)


def concat_configs(x, y):
    """Join two configurations over disjoint domains into one."""
    if config_domain(x) & config_domain(y):
        raise DomainMismatchError("domains overlap: %r and %r" % (x, y))
    return tuple(sorted(x + y))


def all_configs(names, frames):
    """Every configuration of the given variables, in a deterministic order."""
    names = sorted(names)
    if not names:
        return [DIAMOND]
    return [
        tuple(zip(names, combo))
        for combo in itertools.product(*(frames[n] for n in names))
    ]


@dataclass(frozen=True)
class ConfigSet:
    """A nonempty set of configurations sharing one domain (a focal element)."""

    domain: frozenset
    members: frozenset

    def __post_init__(self):
        if not self.members:
            raise DomainMismatchError("a configuration set must be nonempty")
        for x in self.members:
            if config_domain(x) != self.domain:
                raise DomainMismatchError(
                    "configuration %r is not over domain %r" % (x, sorted(self.domain))
                )

    @classmethod
    def of(cls, configs):
        configs = frozenset(configs)
        return cls(config_domain(next(iter(configs), DIAMOND)), configs)

    def project(self, h):
        """Set image of configuration projection; duplicates collapse."""
        h = frozenset(h)
        if not h <= self.domain:
            raise DomainMismatchError(
                "cannot project set over %r to %r" % (sorted(self.domain), sorted(h))
            )
        return ConfigSet(h, frozenset(project_config(x, h) for x in self.members))

    def extend(self, g, frames):
        """Cylinder set extension: members crossed with the frames of g - domain."""
        g = frozenset(g)
        if not self.domain <= g:
            raise DomainMismatchError(
                "cannot extend set over %r to %r" % (sorted(self.domain), sorted(g))
            )
        extra = all_configs(g - self.domain, frames)
        return ConfigSet(
            g, frozenset(concat_configs(x, y) for x in self.members for y in extra)
        )

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self.members

    def sorted_members(self):
        return sorted(self.members)
