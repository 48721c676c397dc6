"""The benchmark's per-layer hooks still find and reach every name they wrap.

perfbench/tracer.py wraps public names as bound in the calling modules; a
rename there would otherwise only show up when the benchmark runs.
"""

import sys

from valnet import cli

from conftest import ROOT, WILDCATTER_PATH

sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402
import tracer  # noqa: E402


def test_cli_solve_reaches_every_required_hook(capsys):
    hooks = tracer.Tracer()  # raises if a wrapped name is gone
    hooks.install()
    try:
        assert cli.main(["solve", str(WILDCATTER_PATH)]) == cli.EXIT_OK
    finally:
        hooks.uninstall()
    missing = [h for h in run.REQUIRED_HOOKS["cli-wildcatter"] if not hooks.calls.get(h)]
    assert missing == []
    assert "expected value 27500" in capsys.readouterr().out
