import copy
import pickle
import random

import pytest

from valnet import (
    ConditionalPotential,
    Network,
    NetworkError,
    conditional,
    decision,
    elimination_order,
    make_config,
    make_utility,
    random_var,
    vacuous,
    validate,
)
from valnet.calculus import combine_all, marginalize_belief
from valnet.valuation import is_vacuous

from netgen import random_network

T = decision("T", ("t", "~t"))
R = random_var("R", ("re", "ye", "gr", "nr"))
D = decision("D", ("d", "~d"))
O = random_var("O", ("dr", "we", "so"))
PRIOR_R = conditional(R, [], {(): [(set(R.frame), 1.0)]})
R_GIVEN_T = conditional(R, [T], {t: [(set(R.frame), 1.0)] for t in T.frame})
# Frames that differ from a declaration: D {a, b} and T {t, u} are declared.
D_AB, T_TU = decision("D", ("a", "b")), random_var("T", ("t", "u"))
U_ABC = make_utility([decision("D", "abc")], {(("D", v),): 1.0 for v in "abc"})
R_GIVEN_T_T = conditional(R, [random_var("T", ("t",))], {"t": [(set(R.frame), 1.0)]})


def cfg(**values):
    return make_config(values)


def wildcatter_parts(wildcatter):
    net = wildcatter.network
    return (
        list(net.variables),
        list(net.utilities),
        list(net.potentials),
        [tuple(a) for a in net.arcs],
    )


class TestValidateWildcatter:
    def test_golden_network_is_well_defined(self, wildcatter):
        assert validate(wildcatter.network).ok

    def test_joint_check_also_passes(self, wildcatter):
        # The joint potential of a valid network is vacuous on its decisions.
        net = wildcatter.network
        joint = combine_all([p.ballooned for p in net.potentials])
        for name in sorted(joint.domain):
            if not net.by_name[name].is_decision:
                joint = marginalize_belief(joint, name)
        assert is_vacuous(joint)

    def test_missing_utility_breaks_decision_coverage(self, wildcatter):
        variables, utilities, potentials, arcs = wildcatter_parts(wildcatter)
        utilities = [u for u in utilities if u.label != "cost"]
        report = validate(Network(variables, utilities, potentials, arcs))
        assert "a" in report.conditions()

    def test_missing_potential_breaks_random_coverage(self, wildcatter):
        variables, utilities, potentials, arcs = wildcatter_parts(wildcatter)
        potentials = [p for p in potentials if p.label != "oil"]
        report = validate(Network(variables, utilities, potentials, arcs))
        conds = report.conditions()
        assert "b" in conds
        assert "A1" in conds

    def test_cycle_detected(self, wildcatter):
        variables, utilities, potentials, arcs = wildcatter_parts(wildcatter)
        report = validate(Network(variables, utilities, potentials, arcs + [("O", "T")]))
        assert "p1" in report.conditions()

    def test_incomparable_pair(self, wildcatter):
        variables, utilities, potentials, arcs = wildcatter_parts(wildcatter)
        arcs = [a for a in arcs if a != ("R", "D")]
        report = validate(Network(variables, utilities, potentials, arcs))
        assert "p2" in report.conditions()

    def test_decision_inside_potential_must_precede_head(self, wildcatter):
        variables, utilities, potentials, arcs = wildcatter_parts(wildcatter)
        tables = {
            cfg(D="d"): [({"re"}, 1.0)],
            cfg(D="~d"): [({"nr"}, 1.0)],
        }
        potentials = [p for p in potentials if p.label != "result"]
        potentials.append(conditional(R, [D], tables, label="bad"))
        report = validate(Network(variables, utilities, potentials, arcs))
        conds = report.conditions()
        assert "p3" in conds
        assert "p4" in conds

    def test_consecutive_randoms_need_a_decision(self, wildcatter):
        variables, utilities, potentials, arcs = wildcatter_parts(wildcatter)
        s = random_var("S", ("s1", "s2"))
        variables = variables[:2] + [s] + variables[2:]
        arcs = [a for a in arcs if a != ("R", "D")] + [("R", "S"), ("S", "D")]
        tables = {
            cfg(R=v): [({"s1"}, 0.5), ({"s2"}, 0.5)] for v in R.frame
        }
        potentials = potentials + [conditional(s, [R], tables, label="seis")]
        report = validate(Network(variables, utilities, potentials, arcs))
        assert "p5" in report.conditions()

    def test_duplicate_potential_for_one_head(self, wildcatter):
        variables, utilities, potentials, arcs = wildcatter_parts(wildcatter)
        dup = next(p for p in potentials if p.label == "oil")
        report = validate(Network(variables, utilities, potentials + [dup], arcs))
        assert "A1" in report.conditions()

    def test_report_is_worked_out_once_and_immutable(self, wildcatter):
        variables, utilities, potentials, arcs = wildcatter_parts(wildcatter)
        net = Network(variables, [], potentials, arcs)
        report = validate(net)
        assert validate(net) is report
        assert isinstance(report.findings, tuple) and report.findings

    def test_potential_head_must_be_random(self):
        with pytest.raises(NetworkError, match="^bpa head 'D' must be a random variable$"):
            ConditionalPotential(D, (), {(): [({"d", "~d"}, 1.0)]})

    def test_findings_have_printable_lines(self, wildcatter):
        variables, utilities, potentials, arcs = wildcatter_parts(wildcatter)
        report = validate(Network(variables, [], potentials, arcs))
        assert report.lines()
        for line in report.lines():
            assert line.startswith("error ")


class TestNetworkStructure:
    def test_copies_and_pickles_are_equal(self, wildcatter):
        net = wildcatter.network
        for twin in (copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
            assert twin == net
            assert twin.potentials == net.potentials

    def test_decisions_and_randoms_are_worked_out_once(self, wildcatter):
        net = wildcatter.network
        assert net.decisions is net.decisions and net.randoms is net.randoms
        assert type(net.decisions) is type(net.randoms) is tuple
        assert [v.name for v in net.decisions] == [v.name for v in net.variables if v.is_decision]
        assert [v.name for v in net.randoms] == [v.name for v in net.variables if not v.is_decision]

    def test_closure_is_transitive(self, wildcatter):
        net = wildcatter.network
        assert net.before("T", "O")
        assert net.before("T", "D")
        assert not net.before("O", "T")

    def test_closure_recomputes_per_instance(self, wildcatter):
        variables, utilities, potentials, arcs = wildcatter_parts(wildcatter)
        full = Network(variables, utilities, potentials, arcs)
        cut = Network(variables, utilities, potentials, [a for a in arcs if a[0] != "T"])
        assert full.before("T", "O")
        assert not cut.before("T", "O")

    def test_duplicate_variable_rejected(self):
        with pytest.raises(NetworkError):
            Network([T, T])

    def test_arc_to_undeclared_variable_rejected(self):
        with pytest.raises(NetworkError):
            Network([T], arcs=[("T", "Z")])

    @pytest.mark.parametrize("variables, utilities, potentials, message", [
        ([R], [vacuous([R])], [], "non-utility valuation 'belief' in utilities"),
        ([O], [], [PRIOR_R], "potential head 'R' is not a declared variable"),
        ([random_var("R", ("re", "nr"))], [], [PRIOR_R], "potential head 'R' is not a declared variable"),
        ([R], [], [R_GIVEN_T], "potential over undeclared variables ['T']"),
        ([D_AB], [U_ABC], [], "utility frame for 'D' differs from its declaration"),
        ([T_TU, R], [], [R_GIVEN_T_T], "potential frame for 'T' differs from its declaration"),
    ], ids=["belief-as-utility", "undeclared-head", "other-head", "undeclared-parent",
            "utility-frame", "parent-frame"])
    def test_valuations_must_fit_the_declarations(self, variables, utilities, potentials, message):
        with pytest.raises(NetworkError) as exc:
            Network(variables, utilities, potentials)
        assert str(exc.value) == message

    def test_utility_over_undeclared_variable_rejected(self):
        u = make_utility([D], {cfg(D="d"): 1.0, cfg(D="~d"): 0.0})
        with pytest.raises(NetworkError):
            Network([T], [u])


class TestEliminationOrder:
    def test_wildcatter_order(self, wildcatter):
        assert elimination_order(wildcatter.network) == ("O", "D", "R", "T")

    def test_declaration_order_breaks_ties(self):
        a = decision("A", ("a1", "a2"))
        b = decision("B", ("b1", "b2"))
        c = decision("C", ("c1", "c2"))
        net = Network([a, b, c], arcs=[("A", "B"), ("A", "C")])
        assert elimination_order(net) == ("B", "C", "A")
        swapped = Network([a, c, b], arcs=[("A", "B"), ("A", "C")])
        assert elimination_order(swapped) == ("C", "B", "A")

    def test_order_respects_precedence(self):
        rng = random.Random(23)
        for _ in range(50):
            net = random_network(rng)
            order = elimination_order(net)
            assert sorted(order) == sorted(net.by_name)
            position = {n: i for i, n in enumerate(order)}
            for x, y in net.closure():
                assert position[y] < position[x]

    def test_cycle_raises(self):
        a = decision("A", ("a1", "a2"))
        b = decision("B", ("b1", "b2"))
        net = Network([a, b], arcs=[("A", "B"), ("B", "A")])
        with pytest.raises(NetworkError):
            elimination_order(net)
