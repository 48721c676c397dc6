import pathlib

import pytest
from hypothesis import settings

from valnet import parse_problem

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
