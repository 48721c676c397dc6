"""Acceptance suite: one test per shipping criterion.

Each test prints a single "criterion N (...): pass|FAIL" line so a log scan
shows the verdicts without digging through pytest output.
"""

import functools
import random
import time

import pytest

from valnet import (
    DIAMOND,
    combine,
    conditional,
    expected_interval,
    make_config,
    oracle_solve,
    random_var,
    solve,
    vacuous,
)
from valnet.calculus import combine_all, marginalize, marginalize_belief
from valnet.cli import EXIT_INVALID, EXIT_OK, main
from valnet.valuation import is_vacuous, make_utility

from conftest import ACCEPTANCE_LINES
from netgen import random_canonical, random_network, random_subsets, rollback_value, valuations_close
from test_calculus import bpa_from_subsets


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            # Recorded in conftest and printed in the terminal summary, where
            # pytest's output capture no longer swallows it.
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_LINES.append("criterion %d (%s): FAIL" % (number, title))
                raise
            ACCEPTANCE_LINES.append("criterion %d (%s): pass" % (number, title))
        return run
    return wrap


def cfg(**values):
    return make_config(values)


@pytest.fixture(scope="module")
def network_suite():
    rng = random.Random(20260823)
    return [random_network(rng) for _ in range(200)]


@criterion(1, "golden solve")
def test_golden_wildcatter_solve(wildcatter):
    start = time.perf_counter()
    result = solve(wildcatter.network, 0.5)
    elapsed = time.perf_counter() - start
    assert result.expected_value == pytest.approx(27500.0, rel=1e-6)
    assert result.solutions["T"].choices == {DIAMOND: "t"}
    assert result.solutions["D"].choices == {
        cfg(R="re"): "~d",
        cfg(R="ye"): "~d",
        cfg(R="gr"): "d",
        cfg(R="nr"): "d",
    }
    assert elapsed < 1.0


@criterion(2, "golden trace")
def test_golden_trace_tables(wildcatter, capsys):
    result = solve(wildcatter.network, 0.5, trace=True)
    by_var = {s.variable: s for s in result.trace}

    # Eliminating O: three focals (masses 0.5 / 0.2 / 0.3 of the drilling
    # potential scaled into the payoff), each projecting onto the full
    # {D, R} frame; per-focal blended contributions per configuration.
    step = by_var["O"]
    assert len(step.combined.focals) == 3
    contribs = {}
    for group in step.contributions:
        contribs.update(group)
    order = sorted(range(3), key=lambda j: len(step.combined.focals[j].support))
    first, second, third = order
    expected_first = {("re", -35000.0), ("ye", -5000.0), ("gr", 62500.0), ("nr", -35000.0)}
    expected_second = {("re", -14000.0), ("ye", -2000.0), ("gr", 25000.0), ("nr", -2000.0)}
    expected_third = {("re", -21000.0), ("ye", -3000.0), ("gr", 37500.0), ("nr", 37500.0)}
    for j, expected in ((first, expected_first), (second, expected_second), (third, expected_third)):
        got = {
            (dict(x)["R"], contribs[(j, x)])
            for x in {k for (i, k) in contribs if i == j}
            if dict(x)["D"] == "d"
        }
        for r, value in expected:
            assert any(rr == r and vv == pytest.approx(value, rel=1e-6) for rr, vv in got)

    # The merged marginal: one focal over {D, R}.
    tau = step.result.focals[0].values
    assert len(step.result.focals) == 1
    assert tau[cfg(D="d", R="re")] == pytest.approx(-70000.0, rel=1e-6)
    assert tau[cfg(D="d", R="ye")] == pytest.approx(-10000.0, rel=1e-6)
    assert tau[cfg(D="d", R="gr")] == pytest.approx(125000.0, rel=1e-6)
    assert tau[cfg(D="d", R="nr")] == pytest.approx(500.0, rel=1e-6)

    # Eliminating D: the maxima per result configuration.
    step = by_var["D"]
    values = step.result.focals[0].values
    assert values[cfg(R="re")] == pytest.approx(0.0, abs=1e-9)
    assert values[cfg(R="ye")] == pytest.approx(0.0, abs=1e-9)
    assert values[cfg(R="gr")] == pytest.approx(125000.0, rel=1e-6)
    assert values[cfg(R="nr")] == pytest.approx(500.0, rel=1e-6)

    # Eliminating R: three focals of the test-result potential scaled by the
    # drilling values, merging into (t: 37500, ~t: 500).
    step = by_var["R"]
    assert len(step.combined.focals) == 3
    combined_values = sorted(
        sorted((dict(x)["T"], v) for x, v in f.values.items())
        for f in step.combined.focals
    )
    assert combined_values == [
        [("t", pytest.approx(0.0, abs=1e-9)), ("~t", pytest.approx(100.0, rel=1e-6))],
        [("t", pytest.approx(0.0, abs=1e-9)), ("~t", pytest.approx(250.0, rel=1e-6))],
        [("t", pytest.approx(37500.0, rel=1e-6)), ("~t", pytest.approx(150.0, rel=1e-6))],
    ]
    assert len(step.result.focals) == 1
    assert step.result.focals[0].values[cfg(T="t")] == pytest.approx(37500.0, rel=1e-6)
    assert step.result.focals[0].values[cfg(T="~t")] == pytest.approx(500.0, rel=1e-6)

    # Eliminating T: cost joins in; 27500 against 500.
    step = by_var["T"]
    final = step.combined.focals[0].values
    assert final[cfg(T="t")] == pytest.approx(27500.0, rel=1e-6)
    assert final[cfg(T="~t")] == pytest.approx(500.0, rel=1e-6)
    assert step.result.value_at(DIAMOND) == pytest.approx(27500.0, rel=1e-6)

    # And the same numbers surface in the command line trace.
    from conftest import WILDCATTER_PATH

    assert main(["solve", str(WILDCATTER_PATH), "--trace"]) == EXIT_OK
    out = capsys.readouterr().out
    for token in ("-35000", "62500", "125000", "37500", "27500", "500"):
        assert token in out


@criterion(3, "ballooning goldens")
def test_ballooning_goldens():
    T = random_var("T", ("t", "~t"))  # kind is irrelevant to ballooning
    R = random_var("R", ("re", "ye", "gr", "nr"))
    O = random_var("O", ("dr", "we", "so"))

    mu = conditional(
        R,
        [T],
        {
            cfg(T="t"): [({"re"}, 0.5), ({"ye"}, 0.2), ({"gr"}, 0.3)],
            cfg(T="~t"): [({"nr"}, 1.0)],
        },
    ).ballooned
    got = {
        frozenset((dict(x)["T"], dict(x)["R"]) for x in f.support): f.mass
        for f in mu.focals
    }
    assert got == {
        frozenset([("t", "re"), ("~t", "nr")]): pytest.approx(0.5),
        frozenset([("t", "ye"), ("~t", "nr")]): pytest.approx(0.2),
        frozenset([("t", "gr"), ("~t", "nr")]): pytest.approx(0.3),
    }

    rho = conditional(
        O,
        [R],
        {
            cfg(R="re"): [({"dr"}, 1.0)],
            cfg(R="ye"): [({"dr", "we"}, 1.0)],
            cfg(R="gr"): [({"we", "so"}, 1.0)],
            cfg(R="nr"): [({"dr"}, 0.5), ({"dr", "we"}, 0.2), ({"we", "so"}, 0.3)],
        },
    ).ballooned
    base = {
        ("re", "dr"), ("ye", "dr"), ("ye", "we"), ("gr", "we"), ("gr", "so"),
    }
    got = {
        frozenset((dict(x)["R"], dict(x)["O"]) for x in f.support): f.mass
        for f in rho.focals
    }
    assert got == {
        frozenset(base | {("nr", "dr")}): pytest.approx(0.5),
        frozenset(base | {("nr", "dr"), ("nr", "we")}): pytest.approx(0.2),
        frozenset(base | {("nr", "we"), ("nr", "so")}): pytest.approx(0.3),
    }


@criterion(4, "fusion equals joint elimination")
def test_fusion_equals_joint_elimination(network_suite):
    for net in network_suite:
        for lam in (0.0, 0.3, 0.7, 1.0):
            fused = solve(net, lam)
            joint = oracle_solve(net, lam)
            assert fused.expected_value == pytest.approx(
                joint.expected_value, rel=1e-6, abs=1e-9
            )


@criterion(5, "lambda monotonicity")
def test_lambda_monotonicity(network_suite):
    grid = [i / 10 for i in range(11)]
    for net in network_suite:
        values = [solve(net, lam).expected_value for lam in grid]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9 * max(1.0, abs(a))


@criterion(6, "canonical intervals")
def test_canonical_intervals():
    rng = random.Random(60)
    for _ in range(100):
        net = random_canonical(rng)
        d, r = net.decisions[0], net.randoms[0]
        interval = expected_interval(net)
        combined = combine(net.utilities[0], net.potentials[0].ballooned)
        lower = marginalize(combined, r, lam=0.0)[0]
        upper = marginalize(combined, r, lam=1.0)[0]
        for act in d.frame:
            lo, hi = interval.bounds[act]
            assert lower.value_at(cfg(**{d.name: act})) == pytest.approx(lo, abs=1e-9)
            assert upper.value_at(cfg(**{d.name: act})) == pytest.approx(hi, abs=1e-9)


@criterion(7, "probabilistic reduction")
def test_probabilistic_reduction():
    rng = random.Random(70)
    for _ in range(100):
        net = random_network(rng, singleton_only=True)
        low = solve(net, 0.0).expected_value
        high = solve(net, 1.0).expected_value
        assert abs(low - high) <= 1e-9 * max(1.0, abs(low))
        assert low == pytest.approx(rollback_value(net), rel=1e-9, abs=1e-9)


@criterion(8, "combination algebra")
def test_combination_algebra():
    rng = random.Random(80)
    frame = ("x1", "x2", "x3")
    var = random_var("X", frame)
    identity = vacuous([var])
    checked = 0
    while checked < 500:
        bpas = [
            bpa_from_subsets(var, random_subsets(rng, frame))
            for _ in range(rng.choice([2, 3]))
        ]
        try:
            if len(bpas) == 2:
                ab = combine(bpas[0], bpas[1])
                assert ab == combine(bpas[1], bpas[0])
                out = ab
            else:
                left = combine(combine(bpas[0], bpas[1]), bpas[2])
                right = combine(bpas[0], combine(bpas[1], bpas[2]))
                assert valuations_close(left, right, rtol=1e-9)
                out = left
        except Exception as exc:
            if type(exc).__name__ == "TotalConflictError":
                continue
            raise
        assert sum(f.mass for f in out.focals) == pytest.approx(1.0, abs=1e-9)
        assert combine(bpas[0], identity) == bpas[0]
        checked += 1

    # The fixed mixed-kind regression: a utility folded against two belief
    # functions depends on the fold order because only belief-with-belief
    # combination renormalizes conflict.
    a = random_var("A", ("a", "b"))
    u = make_utility([a], {cfg(A="a"): 3.0, cfg(A="b"): 5.0})
    b1 = bpa_from_subsets(a, [({"a"}, 0.6), ({"b"}, 0.4)])
    b2 = bpa_from_subsets(a, [({"b"}, 1.0)])
    left = combine(combine(u, b1), b2)
    right = combine(u, combine(b1, b2))
    assert left.value_at(cfg(A="b")) == pytest.approx(2.0)
    assert right.value_at(cfg(A="b")) == pytest.approx(5.0)
    assert not valuations_close(left, right)


@criterion(9, "conditional vacuity")
def test_conditional_vacuity(network_suite):
    seen = 0
    for net in network_suite:
        for pot in net.potentials:
            seen += 1
            reduced = marginalize_belief(pot.ballooned, pot.head.name)
            assert is_vacuous(reduced)
            assert reduced.focals[0].mass == pytest.approx(1.0, abs=1e-9)
        # So the joint potential is vacuous on the decisions, too.
        if net.potentials:
            joint = combine_all([p.ballooned for p in net.potentials])
            for name in sorted(joint.domain):
                if not net.by_name[name].is_decision:
                    joint = marginalize_belief(joint, name)
            assert is_vacuous(joint)
    assert seen > 0


@criterion(10, "validation mutations")
def test_validation_mutations(tmp_path, capsys, wildcatter_text):
    mutations = {
        "a": lambda t: t.replace("utility cost on {T} { t = -10000; ~t = 0 }", ""),
        "b": lambda t: t[: t.index("bpa oil")],
        "p1": lambda t: t + "\nprec O -> T\n",
        "p2": lambda t: t.replace("prec R -> D\n", ""),
        "p3": lambda t: t.replace(
            "bpa result on {R | T} {\n"
            "  t : {re} = 0.5;\n"
            "  t : {ye} = 0.2;\n"
            "  t : {gr} = 0.3;\n"
            "  ~t : {nr} = 1\n"
            "}",
            "bpa result on {R | D} {\n"
            "  d : {re} = 1;\n"
            "  ~d : {nr} = 1\n"
            "}",
        ),
        "p5": lambda t: (
            t.replace("prec R -> D\n", "prec R -> S\nprec S -> D\n").replace(
                "random O { dr, we, so }",
                "random O { dr, we, so }\nrandom S { s1, s2 }",
            )
            + "\nbpa seis on {S | R} {\n"
            "  re : {s1} = 1; ye : {s1} = 1; gr : {s1} = 1; nr : {s2} = 1\n}\n"
        ),
        "A1": lambda t: t + "\nbpa extra on {O | R} {\n"
        "  re : {dr} = 1; ye : {dr} = 1; gr : {dr} = 1; nr : {dr} = 1\n}\n",
    }
    mutations["p4"] = mutations["p3"]

    for condition, mutate in mutations.items():
        text = mutate(wildcatter_text)
        assert text != wildcatter_text, condition
        path = tmp_path / ("mutant_%s.vn" % condition)
        path.write_text(text)
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_INVALID, condition
        found = {line.split()[1] for line in captured.err.splitlines() if line}
        assert condition in found, (condition, captured.err)

    # The untouched file stays clean.
    from conftest import WILDCATTER_PATH

    assert main(["check", str(WILDCATTER_PATH)]) == EXIT_OK
    capsys.readouterr()
