import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valnet import (
    DIAMOND,
    ConditionalPotential,
    DomainMismatchError,
    Network,
    NetworkError,
    NotWellDefinedError,
    SolverError,
    ValnetError,
    all_configs,
    bayesian_check,
    conditional,
    decision,
    elimination_order,
    expected_interval,
    fuse,
    is_conditional,
    lambda_sweep,
    make_bpa,
    make_config,
    make_utility,
    oracle_solve,
    parse_problem,
    propagate_marginal,
    random_var,
    solve,
    validate,
)
from valnet import model, solver
from valnet.calculus import combine_all, marginalize_belief
from valnet.valuation import BELIEF

from conftest import CHAIN
from netgen import (
    decision_chain,
    exhaustive_max,
    random_canonical,
    random_network,
    random_propagation,
    rollback_value,
    valuations_close,
)


def cfg(**values):
    return make_config(values)


class TestWildcatter:
    def test_expected_value(self, wildcatter):
        result = solve(wildcatter.network, 0.5)
        assert result.expected_value == pytest.approx(27500.0)
        assert result.lam == 0.5

    def test_endpoints(self, wildcatter):
        assert solve(wildcatter.network, 0.0).expected_value == pytest.approx(5000.0)
        assert solve(wildcatter.network, 1.0).expected_value == pytest.approx(60000.0)

    def test_solution_tables(self, wildcatter):
        result = solve(wildcatter.network, 0.5)
        assert set(result.solutions) == {"D", "T"}
        assert result.solutions["D"].choices == {
            cfg(R="re"): "~d",
            cfg(R="ye"): "~d",
            cfg(R="gr"): "d",
            cfg(R="nr"): "d",
        }
        assert result.solutions["T"].choices == {DIAMOND: "t"}
        # The per-act totals each choice maximizes; the expected value is T's best.
        totals = result.solutions["D"].totals
        assert totals[cfg(R="re")] == pytest.approx({"d": -70000.0, "~d": 0.0})
        assert totals[cfg(R="gr")] == pytest.approx({"d": 125000.0, "~d": 0.0})
        assert result.solutions["T"].totals == {DIAMOND: pytest.approx({"t": 27500.0, "~t": 500.0})}

    def test_strategy(self, wildcatter):
        result = solve(wildcatter.network, 0.5)
        assert result.strategy.decide("T", {}) == "t"
        assert result.strategy.decide("D", {"R": "gr"}) == "d"
        assert result.strategy.decide("D", {"R": "ye"}) == "~d"
        assert result.strategy.decide("D", {"R": "ye", "O": "dr"}) == "~d"

    def test_decide_without_a_table_is_a_network_error(self, wildcatter):
        with pytest.raises(NetworkError, match="'Q'"):
            solve(wildcatter.network, 0.5).strategy.decide("Q", {})

    def test_decide_without_a_value_names_the_variable(self, wildcatter):
        with pytest.raises(DomainMismatchError, match="needs 'R' in .*got None"):
            solve(wildcatter.network, 0.5).strategy.decide("D", {})

    def test_decide_outside_the_frame_names_the_variable(self, wildcatter):
        with pytest.raises(DomainMismatchError, match="needs 'R' in .*got 'zz'"):
            solve(wildcatter.network, 0.5).strategy.decide("D", {"R": "zz"})

    def test_decide_with_a_value_without_a_hash_names_the_variable(self, wildcatter):
        # The lookup once hashed the value and raised TypeError.
        with pytest.raises(DomainMismatchError, match=r"needs 'R' in .*got \['gr'\]"):
            solve(wildcatter.network, 0.5).strategy.decide("D", {"R": ["gr"]})

    def test_decide_is_one_lookup(self, wildcatter, monkeypatch):
        # Deciding once read every key to rebuild its frames and a judge.
        strategy = solve(wildcatter.network, 0.5).strategy

        def refuse(*args, **kwargs):
            raise AssertionError("decide judged or read a configuration")

        for module, name in [(model, "config_judge"), (model, "values_reader"), (solver, "values_reader")]:
            monkeypatch.setattr(module, name, refuse)
        assert strategy.decide("T", {}) == "t"
        assert strategy.decide("D", {"R": "gr"}) == "d"
        assert strategy.decide("D", {"R": "ye", "O": "dr"}) == "~d"

    def test_oracle_agrees(self, wildcatter):
        for lam in (0.0, 0.3, 0.5, 1.0):
            fused = solve(wildcatter.network, lam)
            joint = oracle_solve(wildcatter.network, lam)
            assert fused.expected_value == pytest.approx(joint.expected_value)
            # The two elimination granularities may disagree on acts in
            # contexts the optimal play never reaches, but not on the first
            # move, which every play reaches.
            assert fused.strategy.decide("T", {}) == joint.strategy.decide("T", {})

    def test_trace_steps(self, wildcatter):
        result = solve(wildcatter.network, 0.5)
        assert [s.variable for s in result.trace] == ["O", "D", "R", "T"]
        assert [s.kind for s in result.trace] == [
            "random", "decision", "random", "decision",
        ]
        first = result.trace[0]
        assert {v.label for v in first.inputs} == {"pay", "oil"}
        assert len(first.provenance) == len(first.combined.focals)
        assert result.trace[1].solution is result.solutions["D"]

    def test_replay_matches(self, wildcatter):
        result = solve(wildcatter.network, 0.5)
        replay = solve(wildcatter.network, 0.5, policy_tables=result.solutions)
        assert replay.expected_value == pytest.approx(result.expected_value)


class TestStrategy:
    def test_oracle_maps_a_context_without_mass_to_none(self, wildcatter):
        strategy = oracle_solve(wildcatter.network, 0.5).strategy
        _, mapping = strategy.tables["D"]
        assert [x for x, act in mapping.items() if act is None] == [cfg(R="nr")]
        with pytest.raises(SolverError, match=r"no act for 'D' at \(\('R', 'nr'\),\)"):
            strategy.decide("D", {"R": "nr"})

    def test_forcing_some_decisions_composes_their_policies(self):
        # D1 is in D2's and D3's contexts; forcing it once raised a KeyError.
        net = parse_problem(decision_chain(3)).network
        result = solve(net, 0.5)
        partial = solve(net, 0.5, policy_tables={"D1": result.solutions["D1"]})
        assert partial.expected_value == result.expected_value
        assert partial.strategy == result.strategy
        assert solve(net, 0.5, policy_tables=result.solutions).strategy == result.strategy

    def test_forcing_every_decision_keeps_the_strategy(self):
        rng = random.Random(109)
        for _ in range(25):
            net = random_network(rng)
            result = solve(net, 0.4)
            assert solve(net, 0.4, policy_tables=result.solutions).strategy == result.strategy

    def test_strategy_limit_counts_every_map(self, monkeypatch):
        # The maps of D1 ... D4 hold 1, 2, 4 and 8 entries.
        net = parse_problem(decision_chain(4)).network
        monkeypatch.setattr(solver, "STRATEGY_LIMIT", 15)
        assert sum(len(m) for _, m in solve(net, 0.5).strategy.tables.values()) == 15
        monkeypatch.setattr(solver, "STRATEGY_LIMIT", 14)
        enumerated = []
        spy = lambda names, frames: enumerated.append(names) or all_configs(names, frames)
        monkeypatch.setattr(solver, "all_configs", spy)
        with pytest.raises(SolverError, match="would hold 15 entries with the map for 'D4'"):
            solve(net, 0.5)
        assert enumerated == []  # refused before any map is built


class TestFuse:
    def test_untouched_valuations_pass_through(self, wildcatter):
        net = wildcatter.network
        pool = list(net.utilities) + [p.ballooned for p in net.potentials]
        new_pool, step = fuse(pool, net.by_name["O"], lam=0.5)
        labels = {v.label for v in new_pool}
        assert labels == {"cost", "result", "elim_O"}
        assert step.solution is None

    def test_missing_variable_rejected(self, wildcatter):
        net = wildcatter.network
        cost = [u for u in net.utilities if u.label == "cost"]
        with pytest.raises(ValnetError):
            fuse(cost, net.by_name["O"], lam=0.5)


class TestAgainstOracle:
    def test_fusion_equals_joint_elimination(self):
        rng = random.Random(101)
        for _ in range(40):
            net = random_network(rng)
            for lam in (0.0, 0.4, 1.0):
                fused = solve(net, lam)
                joint = oracle_solve(net, lam)
                assert fused.expected_value == pytest.approx(
                    joint.expected_value, rel=1e-6, abs=1e-9
                )
                # Every step is kept, one per variable in elimination order;
                # the joint path has none.
                assert [s.variable for s in fused.trace] == list(elimination_order(net))
                assert joint.trace == ()

    def test_strategy_replay_is_optimal(self):
        rng = random.Random(103)
        for _ in range(25):
            net = random_network(rng)
            result = solve(net, 0.6)
            replay = solve(net, 0.6, policy_tables=result.solutions)
            assert replay.expected_value == pytest.approx(result.expected_value, rel=1e-9, abs=1e-9)

    def test_decision_only_networks_reduce_to_maximization(self):
        rng = random.Random(107)
        done = 0
        while done < 20:
            net = random_network(rng)
            if net.randoms:
                continue
            done += 1
            result = solve(net, 0.5)
            assert result.expected_value == pytest.approx(exhaustive_max(net))

    def test_singleton_networks_match_decision_tree_rollback(self):
        rng = random.Random(109)
        for _ in range(25):
            net = random_network(rng, singleton_only=True)
            result = bayesian_check(net, 0.5)
            assert result.expected_value == pytest.approx(
                rollback_value(net), rel=1e-9, abs=1e-9
            )


class TestIntervals:
    def test_bounds_bracket_the_lambda_endpoints(self):
        rng = random.Random(113)
        for _ in range(30):
            net = random_canonical(rng)
            interval = expected_interval(net)
            lo = max(b[0] for b in interval.bounds.values())
            hi = max(b[1] for b in interval.bounds.values())
            assert solve(net, 0.0).expected_value == pytest.approx(lo, abs=1e-9)
            assert solve(net, 1.0).expected_value == pytest.approx(hi, abs=1e-9)

    def test_lower_never_exceeds_upper(self):
        rng = random.Random(127)
        for _ in range(30):
            interval = expected_interval(random_canonical(rng))
            for lo, hi in interval.bounds.values():
                assert lo <= hi + 1e-12

    def test_needs_canonical_shape(self, wildcatter):
        with pytest.raises(Exception):
            expected_interval(wildcatter.network)

    @pytest.mark.parametrize("utility_scopes, parent_names, message", [
        ([["D", "R"], ["D"]], ["D"], "canonical problems have exactly one utility and one potential"),
        ([["D"]], ["D"], "the utility valuation must bear on both variables"),
        ([["D", "R"]], [], "the potential must be conditional on the decision variable"),
    ], ids=["two-utilities", "utility-scope", "potential-parents"])
    def test_each_canonical_shape_refusal(self, utility_scopes, parent_names, message):
        d, r = decision("D", ("a", "b")), random_var("R", ("x", "y"))
        frames, by_name = {"D": d.frame, "R": r.frame}, {"D": d, "R": r}
        utilities = [
            make_utility([by_name[n] for n in scope], dict.fromkeys(all_configs(scope, frames), 1.0))
            for scope in utility_scopes
        ]
        tables = dict.fromkeys(all_configs(parent_names, frames), [({"x", "y"}, 1.0)])
        potential = conditional(r, [by_name[n] for n in parent_names], tables)
        with pytest.raises(NetworkError, match="^%s$" % message):
            expected_interval(Network([d, r], utilities, [potential], [("D", "R")]))


class TestSweep:
    def test_wildcatter_grid(self, wildcatter):
        results = lambda_sweep(wildcatter.network, [1.0, 0.0, 0.5])
        assert [r.lam for r in results] == [0.0, 0.5, 1.0]
        assert [r.expected_value for r in results] == pytest.approx(
            [5000.0, 27500.0, 60000.0]
        )

    def test_monotone_on_random_networks(self):
        rng = random.Random(131)
        grid = [i / 10 for i in range(11)]
        for _ in range(10):
            net = random_network(rng)
            results = lambda_sweep(net, grid)
            for a, b in zip(results, results[1:]):
                assert b.expected_value >= a.expected_value - 1e-9

    def test_empty_grid_rejected(self, wildcatter):
        with pytest.raises(ValnetError):
            lambda_sweep(wildcatter.network, [])


class TestBayesianCheck:
    def test_rejects_non_singleton_potentials(self, wildcatter):
        with pytest.raises(ValnetError):
            bayesian_check(wildcatter.network, 0.5)

    def test_value_is_lambda_free(self):
        rng = random.Random(137)
        for _ in range(10):
            net = random_network(rng, singleton_only=True)
            a = bayesian_check(net, 0.2).expected_value
            b = bayesian_check(net, 0.9).expected_value
            assert a == pytest.approx(b, abs=1e-9)


class TestPropagation:
    def test_matches_direct_joint_marginal(self):
        rng = random.Random(139)
        for _ in range(25):
            net = random_propagation(rng, max_vars=4)
            full = combine_all([p.ballooned for p in net.potentials])
            for target in [v.name for v in net.variables]:
                joint = full
                for name in sorted(joint.domain - {target}):
                    joint = marginalize_belief(joint, name)
                assert valuations_close(propagate_marginal(net, target), joint, rtol=1e-9)

    def test_root_target_drops_its_descendants(self, monkeypatch):
        a, b, c = (random_var(n, ("x", "y")) for n in "ABC")
        root = conditional(a, [], {(): [({"x"}, 0.25), ({"x", "y"}, 0.75)]})
        links = [
            conditional(child, [parent], {make_config({parent.name: v}): [({v}, 1.0)] for v in "xy"})
            for parent, child in ((a, b), (b, c))
        ]
        net = Network([a, b, c], (), [root] + links, [("A", "B"), ("B", "C")])
        fused, real_fuse = [], solver.fuse

        def counting_fuse(pool, variable, *args, **kwargs):
            fused.append(variable.name)
            return real_fuse(pool, variable, *args, **kwargs)

        monkeypatch.setattr(solver, "fuse", counting_fuse)
        assert propagate_marginal(net, "A") == root.ballooned
        assert fused == []

    def test_barren_potential_failing_d_is_refused(self):
        a, b = random_var("A", ("x", "y")), random_var("B", ("u", "v"))
        root = conditional(a, [], {(): [({"x", "y"}, 1.0)]})
        barren = conditional(
            b, [a], {make_config({"A": "x"}): [({"u"}, 1.0)], make_config({"A": "y"}): [({"u", "v"}, 1.0)]}
        )
        # A point mass on the joint frame does not marginalize to vacuous on A,
        # and a potential's balloon is derived from its tables, never given.
        point = make_bpa([a, b], [(frozenset([make_config({"A": "x", "B": "u"})]), 1.0)])
        with pytest.raises(TypeError):
            ConditionalPotential(b, (a,), barren.tables, ballooned=point)
        with pytest.raises(TypeError):
            barren._replace(ballooned=point)
        assert is_conditional(barren.ballooned, "B")
        net = Network([a, b], (), [root, barren], [("A", "B")])
        assert propagate_marginal(net, "A") == root.ballooned

    def test_rejects_decision_networks(self, wildcatter):
        with pytest.raises(ValnetError):
            propagate_marginal(wildcatter.network, "O")


def fusion_steps(run):
    """Every fusion step that ``run()`` makes, through ``solve`` or ``propagate_marginal``."""
    steps, eliminate = [], solver._eliminate

    def recording(*args, **kwargs):
        pool, made = eliminate(*args, **kwargs)
        steps.extend(made)
        return pool, made

    with mock.patch.object(solver, "_eliminate", recording):
        run()
    return steps


def assert_conflict_free(steps):
    """Every choice of one focal per belief input of a step has a nonempty joint.

    Validation makes the potentials a DAG, so on a valid network no fusion
    step meets Dempster conflict: its provenance names every such choice.
    """
    for step in steps:
        at = [i for i, v in enumerate(step.inputs) if v.kind == BELIEF]
        sources = {tuple(src[i] for i in at) for srcs in step.provenance for src in srcs}
        assert len(sources) == math.prod(len(step.inputs[i].focals) for i in at), step.variable


@pytest.mark.deep
@settings(deadline=None)
@given(st.integers(0, 2 ** 32))
def test_no_fusion_step_meets_conflict(seed):
    """Each choice of one focal per belief input of a fusion step has a nonempty joint.

    The steps are those of solve and propagate_marginal on generated networks.
    """
    rng = random.Random(seed)
    net, chain = random_network(rng), random_propagation(rng)
    assert_conflict_free(fusion_steps(lambda: solve(net, 0.5)))
    assert_conflict_free(fusion_steps(lambda: [propagate_marginal(chain, v.name) for v in chain.variables]))


def test_no_fusion_step_of_the_problem_files_meets_conflict(wildcatter):
    chain = parse_problem(CHAIN).network
    steps = fusion_steps(lambda: (solve(wildcatter.network, 0.5), propagate_marginal(chain, "C")))
    assert len([s for s in steps if any(v.kind == BELIEF for v in s.inputs)]) == 4
    assert_conflict_free(steps)


class TestGuards:
    def test_policy_without_an_act_for_a_context_raises(self, wildcatter):
        net = wildcatter.network
        table = solve(net, 0.5).solutions["D"]
        choices = dict(table.choices)
        del choices[cfg(R="gr")]
        policy = table._replace(choices=choices)
        with pytest.raises(SolverError, match=r"policy for 'D' has no act for the context \(\('R', 'gr'\),\)"):
            solve(net, 0.5, policy_tables={"D": policy})

    def test_invalid_network_raises(self, wildcatter):
        net = wildcatter.network
        broken = Network(
            net.variables,
            net.utilities,
            net.potentials,
            [a for a in net.arcs if tuple(a) != ("R", "D")],
        )
        with pytest.raises(NotWellDefinedError):
            solve(broken, 0.5)

    @pytest.mark.parametrize("call", [
        lambda net: solve(net, 0.5),
        lambda net: oracle_solve(net, 0.5),
        lambda net: lambda_sweep(net, [0.5]),
    ], ids=["solve", "oracle_solve", "lambda_sweep"])
    def test_invalid_network_carries_its_report(self, wildcatter, call):
        net = wildcatter.network
        broken = Network(net.variables, net.utilities, net.potentials, [("T", "R")])
        with pytest.raises(NotWellDefinedError) as exc:
            call(broken)
        assert exc.value.report is validate(broken)

    def test_lambda_out_of_range(self, wildcatter):
        with pytest.raises(ValnetError):
            solve(wildcatter.network, 1.5)
        with pytest.raises(ValnetError):
            solve(wildcatter.network, None)

    @pytest.mark.parametrize("call, value", [
        (solve, "x"),
        (lambda net, lam: lambda_sweep(net, [lam]), "x"),
        (solve, [0.5]),
        (solve, 10 ** 400),
    ], ids=["solve-text", "sweep-text", "solve-list", "solve-huge-int"])
    def test_lambda_that_is_not_a_number(self, wildcatter, call, value):
        with pytest.raises(ValnetError) as exc:
            call(wildcatter.network, value)
        assert str(exc.value) == "weighting factor %r is not a number in [0, 1]" % (value,)

    def test_oracle_refuses_huge_joint_frames(self):
        variables = [decision("D%02d" % i, ("a", "b")) for i in range(21)]
        utilities = [
            make_utility([v], {cfg(**{v.name: "a"}): 1.0, cfg(**{v.name: "b"}): 0.0})
            for v in variables
        ]
        net = Network(variables, utilities)
        with pytest.raises(SolverError):
            oracle_solve(net, 0.5)

    def test_oracle_limit_counts_the_joint_frame(self, wildcatter, monkeypatch):
        net = wildcatter.network  # T, R, D and O have 2, 4, 2 and 3 values
        monkeypatch.setattr(solver, "ORACLE_LIMIT", 48)
        assert oracle_solve(net, 0.5).expected_value == pytest.approx(27500.0)
        monkeypatch.setattr(solver, "ORACLE_LIMIT", 47)
        combined = []
        monkeypatch.setattr(solver, "combine_all", lambda pool: combined.append(pool))
        with pytest.raises(SolverError) as exc:
            oracle_solve(net, 0.5)
        assert str(exc.value) == (
            "the oracle's joint frame would hold 48 configurations, more than the limit of 47"
        )
        assert combined == []  # refused before any combination
