"""The benchmark's per-layer hooks still find and reach every name they wrap.

perfbench/tracer.py wraps public names as bound in the calling modules; a
rename there would otherwise only show up when the benchmark runs.
"""

import argparse
import json
import sys

from valnet import cli

from conftest import CHAIN, ROOT, WILDCATTER_PATH

sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def traced_main(argv):
    hooks = tracer.Tracer()  # raises if a wrapped name is gone
    hooks.install()
    try:
        code = cli.main(argv)
    finally:
        hooks.uninstall()
    return code, hooks.calls


def test_cli_solve_reaches_every_required_hook(capsys):
    code, calls = traced_main(["solve", str(WILDCATTER_PATH)])
    assert code == cli.EXIT_OK
    assert [h for h in run.REQUIRED_HOOKS["cli-wildcatter"] if not calls.get(h)] == []
    assert "expected value 27500" in capsys.readouterr().out


def test_cli_solve_on_ladder_files_reaches_every_required_hook(capsys, tmp_path):
    # Most decision steps of these files max out tables with no combination,
    # so the hooked combination and marginalization names are reached by
    # the random variables' steps and the final combination.
    # As the benchmark merges them, the calls of all the files count.
    files, reached = gen.solve_ladder(1), set()
    for name, text in files[::len(files) // 5]:  # one file on each rung
        path = tmp_path / name
        path.write_text(text)
        code, calls = traced_main(["solve", "--machine", str(path)])
        assert code == cli.EXIT_OK
        reached.update(h for h, n in calls.items() if n)
    assert [h for h in run.REQUIRED_HOOKS["solve-ladder"] if h not in reached] == []
    assert capsys.readouterr().out.count("\nvalue\t") == 5


def test_cli_marginal_reaches_every_required_hook(capsys, tmp_path):
    path = tmp_path / "chain.vn"
    path.write_text(CHAIN)
    code, calls = traced_main(["marginal", "--target", "C", str(path)])
    assert code == cli.EXIT_OK
    assert [h for h in run.REQUIRED_HOOKS["marginal-chains"] if not calls.get(h)] == []
    assert capsys.readouterr().out.startswith("marginal bpa for C")


def test_worker_reference_agrees_with_valnet_marginal(capsys, tmp_path):
    # The reference reads combine_all's supports as (name, value) pairs; a
    # change to that shape would otherwise fail only when the benchmark
    # prepares its inputs.
    path = tmp_path / "chain.vn"
    path.write_text(CHAIN)
    op = {"argv": ["marginal", "--target", "C", str(path)], "file": str(path)}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"ops": [op]}))
    worker.reference(argparse.Namespace(manifest=str(manifest), oracle=True))
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["rc"] == cli.EXIT_OK and entry["focals"]
    code = cli.main(op["argv"])
    out = capsys.readouterr().out
    assert worker._printed_marginal(out).keys() == entry["focals"].keys()
    op.update(stable=True, digest=entry["digest"], reference=entry)
    assert worker.check(op, code, out, "") is None
