import argparse
import contextlib
import io
import itertools
import math
import os
import subprocess
import sys
import time
import types
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from valnet import ValnetError, calculus, parse_problem, solver, valuation
from valnet.cli import EXIT_INVALID, EXIT_OK, EXIT_PARSE, EXIT_PIPE, EXIT_SOLVER, build_parser, main

from conftest import CHAIN, GOLDEN, ROOT, WILDCATTER_PATH
from netgen import decision_chain, decision_fan, utility_fan

SRC = ROOT / "src"

PROPAGATION = """\
random R { x, y }
random S { u, v, w }
prec R -> S

bpa prior on {R} { {x} = 0.6; {x, y} = 0.4 }

bpa link on {S | R} {
  x : {u} = 1;
  y : {v, w} = 0.5;
  y : {u, v, w} = 0.5
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, text):
    path = tmp_path / "problem.vn"
    path.write_text(text)
    return str(path)


class TestCheck:
    def test_ok(self, capsys):
        code, out, err = run(capsys, "check", str(WILDCATTER_PATH))
        assert code == EXIT_OK
        assert "well-defined" in out
        assert err == ""

    def test_invalid_network(self, capsys, tmp_path, wildcatter_text):
        path = write(tmp_path, wildcatter_text.replace("prec R -> D", ""))
        code, out, err = run(capsys, "check", path)
        assert code == EXIT_INVALID
        assert "p2" in err

    def test_parse_error(self, capsys, tmp_path):
        path = write(tmp_path, "decision D { a, b")
        code, _, err = run(capsys, "check", path)
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "absent.vn"))
        assert code == EXIT_PARSE
        assert "error" in err

    def test_a_file_that_is_not_utf8_is_a_read_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.vn"
        path.write_bytes(b"random R { x, \xff }\n")
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err == (
            "error: %r is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
            "in position 14: invalid start byte\n" % str(path)
        )

    @pytest.mark.parametrize("command", [["check"], ["solve"], ["solve", "--trace"]])
    def test_a_byte_order_mark_is_read_past(self, capsys, tmp_path, command):
        path = tmp_path / "bom.vn"
        path.write_bytes(b"\xef\xbb\xbf" + WILDCATTER_PATH.read_bytes())
        assert run(capsys, *command, str(path)) == run(capsys, *command, str(WILDCATTER_PATH))


class TestSolve:
    def test_human_output(self, capsys):
        code, out, err = run(capsys, "solve", str(WILDCATTER_PATH))
        assert code == EXIT_OK
        assert "lambda 0.5" in out
        assert "expected value 27500" in out
        assert "Psi[D]: gr -> d" in out
        assert "Psi[T]: t" in out
        assert "strategy: T = t; D(gr) = d; D(nr) = d; D(re) = ~d; D(ye) = ~d" in out

    def test_lambda_flag_overrides_file(self, capsys):
        code, out, _ = run(capsys, "solve", str(WILDCATTER_PATH), "--lambda", "1")
        assert code == EXIT_OK
        assert "expected value 60000" in out

    def test_machine_output_matches_human(self, capsys):
        _, human, _ = run(capsys, "solve", str(WILDCATTER_PATH))
        code, out, _ = run(capsys, "solve", str(WILDCATTER_PATH), "--machine")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "# record\tname\tcontext\tvalue"
        records = [l.split("\t") for l in lines[1:]]
        value = next(float(r[3]) for r in records if r[0] == "value")
        assert value == pytest.approx(27500.0)
        assert "expected value 27500" in human
        psi = {(r[1], r[2]): r[3] for r in records if r[0] == "psi"}
        assert psi[("D", "gr")] == "d"
        assert psi[("T", "")] == "t"
        strategy = {(r[1], r[2]): r[3] for r in records if r[0] == "strategy"}
        assert strategy[("D", "re")] == "~d"

    def test_trace_output(self, capsys):
        code, out, _ = run(capsys, "solve", str(WILDCATTER_PATH), "--trace")
        assert code == EXIT_OK
        assert "step 1: eliminate O (random)" in out
        assert "step 2: eliminate D (decision)" in out
        assert "Psi[D]" in out
        assert "62500" in out  # a per-focal contribution from the first step

    @pytest.mark.parametrize("argv, golden", [
        (["solve", "--machine"], "wildcatter_solve_machine.out"),
        (["sweep", "--lambdas", "0,0.5,1"], "wildcatter_sweep.out"),
        (["sweep", "--machine", "--lambdas", "0,0.5,1"], "wildcatter_sweep_machine.out"),
    ])
    def test_output_matches_the_golden_bytes(self, capsys, argv, golden):
        assert run(capsys, *argv, str(WILDCATTER_PATH)) == (EXIT_OK, (GOLDEN / golden).read_text(), "")

    def test_trace_matches_the_golden_bytes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "valnet.cli", "solve", str(WILDCATTER_PATH), "--trace"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        assert proc.stdout == (GOLDEN / "wildcatter_trace.out").read_bytes()

    def test_closed_stdout_exits_141_without_a_traceback(self):
        # As in ``valnet solve --trace | head``, once head has exited.
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "valnet.cli", "solve", str(WILDCATTER_PATH), "--trace"],
                env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=write, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write)
        assert proc.returncode == EXIT_PIPE
        assert proc.stderr == b""

    def test_rejects_lambda_outside_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(WILDCATTER_PATH), "--lambda", "1.5"])
        assert exc.value.code == 2
        assert "outside [0, 1]" in capsys.readouterr().err

    def test_needs_a_lambda_from_somewhere(self, capsys, tmp_path, wildcatter_text):
        path = write(tmp_path, wildcatter_text.replace("lambda = 0.5", ""))
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_PARSE
        assert "no lambda" in err

    def test_invalid_network(self, capsys, tmp_path, wildcatter_text):
        path = write(tmp_path, wildcatter_text.replace("prec R -> D", ""))
        code, _, err = run(capsys, "solve", path)
        assert code == EXIT_INVALID


    @pytest.mark.parametrize("hash_seed", ["1", "3"])
    def test_non_finite_utility_is_a_parse_error(self, tmp_path, wildcatter_text, hash_seed):
        # A NaN utility once gave a hash-seed-dependent crash or strategy.
        path = write(tmp_path, wildcatter_text.replace("~t = 0", "~t = nan"))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "valnet.cli", "solve", path],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_PARSE
        assert proc.stdout == ""
        assert "utility value 'nan' is not finite" in proc.stderr

    @pytest.mark.parametrize("hash_seed", ["1", "2", "3"])
    def test_overflowing_utilities_are_a_solver_error(self, tmp_path, hash_seed):
        # Sums past the largest float once gave NaN and a hash-seed-dependent
        # crash or strategy.
        row = "a x = 1e308; a y = -1e308; b x = 0; b y = 0"
        text = (
            "decision D { a, b }\nrandom X { x, y }\nprec D -> X\n"
            "utility u1 on {D, X} { %s }\nutility u2 on {D, X} { %s }\n"
            "bpa p on {X | D} { a : {x, y} = 1; b : {x, y} = 1 }\nlambda = 0.5\n" % (row, row)
        )
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "valnet.cli", "solve", write(tmp_path, text)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_SOLVER
        assert proc.stdout == ""
        assert proc.stderr == (
            "solver error: combined value is not finite at (('D', 'a'), ('X', 'x'))\n"
        )


class TestSweep:
    def test_grid(self, capsys):
        code, out, err = run(
            capsys, "sweep", str(WILDCATTER_PATH), "--lambdas", "0,0.5,1"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "lambda  value  strategy"
        assert lines[1].startswith("0  5000  ")
        assert lines[2].startswith("0.5  27500  ")
        assert lines[3].startswith("1  60000  ")
        assert "T=t" in lines[2]
        assert "D(gr)=d" in lines[2]

    def test_machine_grid(self, capsys):
        code, out, _ = run(
            capsys, "sweep", str(WILDCATTER_PATH), "--machine", "--lambdas", "0.5"
        )
        assert code == EXIT_OK
        record = out.splitlines()[1].split("\t")
        assert record[0] == "sweep"
        assert float(record[2]) == pytest.approx(27500.0)

    def test_duplicates_noted(self, capsys):
        code, _, err = run(
            capsys, "sweep", str(WILDCATTER_PATH), "--lambdas", "0.5,0.5"
        )
        assert code == EXIT_OK
        assert "duplicate" in err

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "sweep", str(WILDCATTER_PATH), "--lambdas", "0,2")
        assert code == EXIT_PARSE
        code, _, err = run(capsys, "sweep", str(WILDCATTER_PATH), "--lambdas", ",")
        assert code == EXIT_PARSE


    def test_bad_grid_names_the_value(self, capsys):
        code, out, err = run(capsys, "sweep", str(WILDCATTER_PATH), "--lambdas", "0,2")
        assert (code, out, err) == (EXIT_PARSE, "", "error: weighting factor 2.0 is outside [0, 1]\n")

    def test_invalid_network(self, capsys, tmp_path, wildcatter_text):
        path = write(tmp_path, wildcatter_text.replace("prec R -> D", ""))
        findings = run(capsys, "check", path)[2]
        assert "error p2 " in findings
        assert run(capsys, "sweep", path, "--lambdas", "0,1") == (EXIT_INVALID, "", findings)


@pytest.mark.parametrize("argv, text, line", [
    (["solve", "--lambda", "-0"], None, "lambda 0"),
    (["solve"], "lambda = -0", "lambda 0"),
    (["sweep", "--machine", "--lambdas=-0,1"], None, "sweep\t0.0\t5000.0\t"),
], ids=["flag", "file", "sweep"])
def test_negative_zero_lambda_is_zero(capsys, tmp_path, wildcatter_text, argv, text, line):
    path = WILDCATTER_PATH if text is None else write(
        tmp_path, wildcatter_text.replace("lambda = 0.5", text)
    )
    code, out, err = run(capsys, *argv, str(path))
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1 if argv[0] == "sweep" else 0].startswith(line)


def test_negative_zero_utility_traces_as_zero(capsys, tmp_path, wildcatter_text):
    path = write(tmp_path, wildcatter_text.replace("~t = 0 }", "~t = -0.0 }"))
    code, out, err = run(capsys, "solve", "--trace", path)
    assert (code, err) == (EXIT_OK, "")
    assert "-0" not in out.split()


def test_strategy_past_the_limit_is_a_solver_error(capsys, tmp_path):
    # 2^22 - 1 entries; the map for D17 would pass the limit, so none past it is built.
    code, out, err = run(capsys, "solve", write(tmp_path, decision_chain(22)))
    assert (code, out) == (EXIT_SOLVER, "")
    assert err == (
        "solver error: the strategy would hold 131071 entries with the map for 'D17', "
        "more than the limit of %d\n" % solver.STRATEGY_LIMIT
    )


def test_solving_a_network_without_utilities_is_refused(capsys, tmp_path):
    # Its joint belief's total mass, 1, is no expected utility; valnet marginal answers it.
    text = "random R { x, y }\nbpa b on {R} { {x} = 1 }\n"
    message = "solving needs a network with utilities; use valnet marginal for one without"
    network = parse_problem(text).network
    for call in (solver.solve, solver.oracle_solve, lambda net, lam: solver.lambda_sweep(net, [lam])):
        with pytest.raises(ValnetError) as exc:
            call(network, 0.5)
        assert str(exc.value) == message
    path = write(tmp_path, text)
    for argv in (["solve", "--lambda", "0.5"], ["solve", "--lambda", "0.5", "--trace", "--machine"],
                 ["sweep", "--lambdas", "0,1"], ["sweep", "--lambdas", "0,1", "--machine"]):
        assert run(capsys, *argv, path) == (EXIT_SOLVER, "", "solver error: %s\n" % message)
    assert run(capsys, "marginal", "--target", "R", path)[0] == EXIT_OK


class TestMarginal:
    def test_propagates(self, capsys, tmp_path):
        path = write(tmp_path, PROPAGATION)
        code, out, _ = run(capsys, "marginal", path, "--target", "S")
        assert code == EXIT_OK
        assert out.startswith("marginal bpa for S")
        masses = sorted(
            float(line.split()[0]) for line in out.splitlines()[1:] if line.strip()
        )
        assert sum(masses) == pytest.approx(1.0)

    def test_machine_focals(self, capsys, tmp_path):
        path = write(tmp_path, PROPAGATION)
        code, out, _ = run(capsys, "marginal", path, "--machine", "--target", "S")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "# record\tmass\tfocal"
        total = sum(float(l.split("\t")[1]) for l in lines[1:])
        assert total == pytest.approx(1.0)

    def test_decision_networks_rejected(self, capsys):
        code, _, err = run(capsys, "marginal", str(WILDCATTER_PATH), "--target", "O")
        assert code == EXIT_SOLVER
        assert "error" in err

    def test_unknown_target(self, capsys, tmp_path):
        path = write(tmp_path, PROPAGATION)
        code, _, err = run(capsys, "marginal", path, "--target", "Z")
        assert code == EXIT_SOLVER

    def test_invalid_network(self, capsys, tmp_path):
        # S is declared, but the potential that heads it is gone.
        path = write(tmp_path, PROPAGATION[:PROPAGATION.index("bpa link")])
        findings = run(capsys, "check", path)[2]
        assert findings.startswith("error b random variable 'S' appears in no potential\n")
        assert run(capsys, "marginal", path, "--target", "R") == (EXIT_INVALID, "", findings)


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def fresh(*argv):
    """The same command in a new interpreter, with a parser of its own."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "valnet.cli", *argv], env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_import_loads_no_dataclass_machinery():
    """``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
    which cost every CLI start; ``-I`` keeps PYTHONPATH out.  ``-I`` also
    ignores PYTHONDONTWRITEBYTECODE, so ``-B`` keeps ``.pyc`` files out of src."""
    code = "import sys; sys.path.insert(0, %r); import valnet.cli; print(*sys.modules)" % str(SRC)
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "valnet.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def readme_solve_lines():
    text = (ROOT / "README.md").read_text()
    return text.split("$ valnet solve problems/wildcatter.vn\n", 1)[1].split("```", 1)[0]


def test_one_parser_serves_every_call(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "valnet":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    path = str(WILDCATTER_PATH)
    commands = [
        ["solve", "--machine", "--lambda", "0.3", path],
        ["solve", path],
        ["marginal", path],
        ["check", path],
    ]
    results = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert len(built) == 1
    assert results[1] == (EXIT_OK, readme_solve_lines(), "")
    assert results[2][0] == EXIT_PARSE and "--target" in results[2][2]
    for argv, result in zip(commands, results):
        assert result == fresh(*argv)


def too_many_combinations():
    """A bpa on a head with two 4-valued parents: 2 focals on 16 configurations."""
    lines = [
        "random P { p1, p2, p3, p4 }",
        "random Q { q1, q2, q3, q4 }",
        "random R { r1, r2 }",
        "bpa bp on {P} { {p1, p2, p3, p4} = 1 }",
        "bpa bq on {Q} { {q1, q2, q3, q4} = 1 }",
        "bpa br on {R | P, Q} {",
    ]
    for p in range(1, 5):
        for q in range(1, 5):
            lines.append("  p%d q%d : {r1} = 0.5; p%d q%d : {r1, r2} = 0.5;" % (p, q, p, q))
    return "\n".join(lines + ["}", "lambda = 0.5", ""])


@pytest.mark.parametrize("command", [["check"], ["solve"], ["marginal", "--target", "R"]])
def test_ballooning_past_the_limit_is_a_solver_error(capsys, tmp_path, monkeypatch, command):
    def product(*pools):
        # Enumerating the 65536 combinations would take seconds; fail instead.
        assert math.prod(map(len, pools)) <= valuation.BALLOON_LIMIT
        return itertools.product(*pools)

    monkeypatch.setattr(valuation, "itertools", types.SimpleNamespace(product=product))
    code, out, err = run(capsys, *command, write(tmp_path, too_many_combinations()))
    assert code == EXIT_SOLVER
    assert out == ""
    assert err == (
        "solver error: ballooning 'R' would enumerate 65536 focal combinations, "
        "more than the limit of %d\n" % valuation.BALLOON_LIMIT
    )


@pytest.mark.parametrize("command, text, expected", [
    (["solve"], None, "solver error: combining would join 3"),
    (["sweep", "--lambdas", "0,1"], None, "solver error: combining would join 3"),
    (["marginal", "--target", "S"], PROPAGATION, "solver error: combining would join 4"),
], ids=["solve", "sweep", "marginal"])
def test_combining_past_the_limit_is_a_solver_error(
    capsys, tmp_path, monkeypatch, command, text, expected
):
    monkeypatch.setattr(calculus, "COMBINE_LIMIT", 2)
    path = WILDCATTER_PATH if text is None else write(tmp_path, text)
    code, out, err = run(capsys, *command, str(path))
    assert code == EXIT_SOLVER
    assert out == ""
    assert err == expected + " focal combinations, more than the limit of 2\n"


@pytest.mark.parametrize("command, text, size", [
    (["solve"], None, 40),
    (["sweep", "--lambdas", "0,1"], None, 40),
    (["marginal", "--target", "S"], PROPAGATION, 9),
], ids=["solve", "sweep", "marginal"])
def test_joining_past_the_limit_is_a_solver_error(
    capsys, tmp_path, monkeypatch, command, text, size
):
    path = str(WILDCATTER_PATH if text is None else write(tmp_path, text))
    # ``size`` is the largest level the join builds: at the limit it is built.
    monkeypatch.setattr(calculus, "JOIN_LIMIT", size)
    assert run(capsys, *command, path)[0] == EXIT_OK
    monkeypatch.setattr(calculus, "JOIN_LIMIT", size - 1)
    code, out, err = run(capsys, *command, path)
    assert (code, out) == (EXIT_SOLVER, "")
    assert err == (
        "solver error: combining would build %d joint configurations, "
        "more than the limit of %d\n" % (size, size - 1)
    )


def test_a_wide_joint_support_is_refused_before_it_is_built(capsys, tmp_path):
    # Eliminating R first joins six 100-row utilities over 10^7 configurations;
    # the level of 10^6 after the fifth is refused.
    path = write(tmp_path, decision_fan(6))
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", path)
    elapsed = time.perf_counter() - start
    assert (code, out) == (EXIT_SOLVER, "")
    assert err == (
        "solver error: combining would build 1000000 joint configurations, "
        "more than the limit of %d\n" % calculus.JOIN_LIMIT
    )
    assert elapsed < 1.0


def test_a_wide_utility_only_pool_is_refused_before_it_is_built(capsys, tmp_path):
    # Eliminating E first sums five 100-row utilities over 10^6
    # configurations; a pool without beliefs is held to the join's limit,
    # with the same message, before any configuration is built.
    path = write(tmp_path, utility_fan(5))
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", path)
    elapsed = time.perf_counter() - start
    assert (code, out) == (EXIT_SOLVER, "")
    assert err == (
        "solver error: combining would build 1000000 joint configurations, "
        "more than the limit of %d\n" % calculus.JOIN_LIMIT
    )
    assert elapsed < 1.0


def near_halves():
    """R | P on 8 parent configurations, each table 2e-10 short of one."""
    values = ", ".join("p%d" % i for i in range(1, 9))
    lines = [
        "random P { %s }" % values,
        "random R { a, b, c }",
        "prec P -> R",
        "bpa prior on {P} { {%s} = 1 }" % values,
        "bpa r on {R | P} {",
    ]
    for i in range(1, 9):
        lines.append("  p%d : {a} = 0.4999999999; p%d : {b, c} = 0.4999999999;" % (i, i))
    return "\n".join(lines + ["}", ""])


@pytest.mark.parametrize("command", [["check"], ["marginal", "--target", "R"]])
def test_tables_within_the_mass_tolerance_meet_condition_d(capsys, tmp_path, command):
    # Each table parses; the balloon's total mass, 1 - 1.6e-9, once failed d.
    code, out, err = run(capsys, *command, write(tmp_path, near_halves()))
    assert (code, err) == (EXIT_OK, "")
    assert "does not marginalize" not in out


def test_marginal_machine_output_matches_the_golden_bytes(capsys, tmp_path):
    code, out, err = run(capsys, "marginal", "--machine", "--target", "C", write(tmp_path, CHAIN))
    assert (code, out, err) == (EXIT_OK, (GOLDEN / "chain_marginal_machine.out").read_text(), "")


# Declarations out of name order: variables, a utility on {R, D} and bpas
# whose parents are listed out of name order with the head sorting between
# them, where positional reads of configurations could go wrong.
@pytest.mark.parametrize("argv, golden", [
    (["solve", "--machine", "shuffled.vn"], "shuffled_solve_machine.out"),
    (["solve", "--trace", "shuffled.vn"], "shuffled_trace.out"),
    (["marginal", "--machine", "--target", "M", "shuffled_belief.vn"], "shuffled_marginal_machine.out"),
])
def test_declarations_out_of_name_order_match_the_golden_bytes(capsys, argv, golden):
    *options, name = argv
    assert run(capsys, *options, str(GOLDEN / name)) == (EXIT_OK, (GOLDEN / golden).read_text(), "")


# The one stderr line each error exit ends in; an invalid network prints one
# finding per line.
ERROR_LINE = {
    EXIT_INVALID: ("error ",),
    EXIT_PARSE: ("parse error: line ", "error: "),
    EXIT_SOLVER: ("solver error: ",),
}


def _mutate_bytes(data, edits):
    for position, cut, piece in edits:
        position %= len(data) + 1
        data = data[:position] + piece + data[position + cut:]
    return data


# Grammar bytes, line breaks of several kinds, a byte order mark and bytes
# that are not UTF-8.
PIECES = [
    b"{", b"}", b"#", b";", b":", b"=", b"|", b",", b" ", b"\n", b"\r\n", b"\r", b"\x0c",
    b"\xc2\x85", b"\xe2\x80\xa8", b"\xef\xbb\xbf", b"\xff", b"\xe2", b"0", b"-1", b"nan",
    b"1e309", b"prec R -> D", b"lambda = 2",
]


@pytest.mark.deep
@settings(deadline=timedelta(seconds=5), suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    st.sampled_from([WILDCATTER_PATH.read_text(), CHAIN, PROPAGATION]),
    st.sampled_from([1, 2, 3, 5]).map(decision_fan),  # 5 joins past JOIN_LIMIT
    st.sampled_from([1, 2, 3, 5]).map(utility_fan),  # 5 sums past JOIN_LIMIT, with no belief
    st.integers(1, 4).map(decision_chain),
).map(str.encode).flatmap(lambda data: st.one_of(
    st.just(data),
    st.lists(
        st.tuples(st.integers(0, 10 ** 4), st.integers(0, 8), st.sampled_from(PIECES)),
        min_size=1, max_size=4,
    ).map(lambda edits: _mutate_bytes(data, edits)),
)))
def test_every_command_ends_in_output_or_one_typed_error(tmp_path, data):
    """Every subcommand and renderer, on any bytes, ends in output or one typed error line with its exit code."""
    # The deadline bounds each example: a size blow-up must be refused before its work.
    path = tmp_path / "problem.vn"
    path.write_bytes(data)
    for command in (
        ["check"], ["solve"], ["solve", "--trace"], ["solve", "--machine"],
        ["sweep", "--lambdas", "0,1"], ["sweep", "--machine", "--lambdas", "0,1"],
        ["marginal", "--target", "R"], ["marginal", "--machine", "--target", "R"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + [str(path)])
        out, err = out.getvalue(), err.getvalue()
        if code == EXIT_OK:
            assert out and err == ""
            continue
        assert code in ERROR_LINE and out == ""
        assert err.endswith("\n")
        lines = err[:-1].split("\n")
        assert all(line.startswith(ERROR_LINE[code]) for line in lines)
        assert code == EXIT_INVALID or len(lines) == 1
