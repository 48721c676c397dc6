import pathlib

import pytest
from hypothesis import settings

from valnet import DomainMismatchError, parse_problem

# A longer run of the hypothesis properties: pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=5000)

ROOT = pathlib.Path(__file__).resolve().parent.parent
WILDCATTER_PATH = ROOT / "problems" / "wildcatter.vn"
GOLDEN = ROOT / "tests" / "golden"

# A belief-only chain A -> B -> C, as `valnet marginal` reads it.
CHAIN = """\
random A { a0, a1 }
random B { b0, b1, b2 }
random C { c0, c1 }
prec A -> B
prec B -> C

bpa pa on {A} { {a0} = 0.7; {a0, a1} = 0.3 }

bpa pb on {B | A} {
  a0 : {b0, b1} = 0.6;
  a0 : {b2} = 0.4;
  a1 : {b1} = 1
}

bpa pc on {C | B} {
  b0 : {c0} = 1;
  b1 : {c0, c1} = 0.5;
  b1 : {c1} = 0.5;
  b2 : {c1} = 1
}
"""


# The references' own configuration operations, written on the
# (name, value) pairs directly rather than through valnet.model.
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


# Verdict lines recorded by the acceptance suite, printed after the run.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def wildcatter_text():
    return WILDCATTER_PATH.read_text()


@pytest.fixture(scope="session")
def wildcatter(wildcatter_text):
    return parse_problem(wildcatter_text)
