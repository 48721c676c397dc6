import pathlib

import pytest
from hypothesis import settings

from valnet import parse_problem

# A longer run of the hypothesis properties: pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=5000)

ROOT = pathlib.Path(__file__).resolve().parent.parent
WILDCATTER_PATH = ROOT / "problems" / "wildcatter.vn"

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
