import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valnet import (
    ConditionalPotential,
    Network,
    NetworkError,
    all_configs,
    conditional,
    decision,
    elimination_order,
    make_config,
    make_utility,
    parse_problem,
    random_var,
    vacuous,
    validate,
)
from valnet.calculus import combine_all, marginalize_belief
from valnet.network import Finding
from valnet.valuation import is_conditional, is_vacuous

from netgen import decision_chain, random_network

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

    def test_before_on_an_undeclared_name_is_false(self, wildcatter):
        net = wildcatter.network
        for x, y in [("T", "Z"), ("Z", "T"), ("Z", "Z"), ("Z", "Y")]:
            assert net.before(x, y) is False

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
            for x in order:
                for y in order:
                    if net.before(x, y):
                        assert position[y] < position[x]

    def test_cycle_raises(self):
        a = decision("A", ("a1", "a2"))
        b = decision("B", ("b1", "b2"))
        net = Network([a, b], arcs=[("A", "B"), ("B", "A")])
        with pytest.raises(NetworkError):
            elimination_order(net)


def test_validate_and_order_make_fewer_than_v_squared_before_calls(monkeypatch):
    # A work guard rather than a timing test: the pair-set code asked
    # `before` 358,450 times here, inside cubic loops.
    net = parse_problem(decision_chain(100)).network
    calls = 0
    real_before = Network.before

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return real_before(self, x, y)

    monkeypatch.setattr(Network, "before", counted)
    assert validate(net).ok
    elimination_order(net)
    assert len(net.variables) == 200
    assert calls < 200 * 200


def test_elimination_order_reads_the_arcs_not_the_closure(monkeypatch):
    # The order comes from each variable's count of remaining direct
    # successors, so it needs no transitive closure.
    net = parse_problem(decision_chain(100)).network

    def refuse(self):
        raise AssertionError("elimination_order worked out the closure")

    monkeypatch.setattr(Network, "_precedence", refuse)
    order = elimination_order(net)
    assert order[:3] == ("R100", "D100", "R99") and len(order) == 200


# The pair-set precedence that the per-variable bitsets replaced: a fixpoint
# closure, the findings loops over `before` and the elimination order by
# closure lookups, kept as the reference for the property below.
def reference_closure(net):
    reach = {v.name: set() for v in net.variables}
    for x, y in net.arcs:
        reach[x].add(y)
    changed = True
    while changed:
        changed = False
        for x in reach:
            extra = set()
            for y in reach[x]:
                extra |= reach[y]
            if not extra <= reach[x]:
                reach[x] |= extra
                changed = True
    return frozenset((x, y) for x, ys in reach.items() for y in ys)


def reference_findings(net):
    closure = reference_closure(net)

    def before(x, y):
        return (x, y) in closure

    covered = set().union(*(u.domain for u in net.utilities)) if net.utilities else set()
    for d in net.decisions:
        if d.name not in covered:
            yield Finding("a", "decision variable %r appears in no utility valuation" % d.name)
    pot_cover = set().union(*(p.domain for p in net.potentials)) if net.potentials else set()
    for r in net.randoms:
        if r.name not in pot_cover:
            yield Finding("b", "random variable %r appears in no potential" % r.name)

    cyclic = sorted(x for x, y in closure if x == y)
    if cyclic:
        yield Finding("p1", "precedence closure is not irreflexive (cycle through %s)" % ", ".join(cyclic))

    for d in net.decisions:
        for r in net.randoms:
            if not before(d.name, r.name) and not before(r.name, d.name):
                yield Finding("p2", "decision %r and random %r are incomparable" % (d.name, r.name))

    for p in net.potentials:
        head = p.head.name
        for d in net.decisions:
            if d.name in p.domain and not before(d.name, head):
                yield Finding(
                    "p3",
                    "conditional potential for %r contains decision %r which does not precede it"
                    % (head, d.name),
                )

    for p in net.potentials:
        randoms_in = [v for v in p.domain if net.by_name[v].kind == "random"]
        for d in net.decisions:
            if d.name in p.domain and not any(before(d.name, r) for r in randoms_in):
                yield Finding(
                    "p4",
                    "potential on %r contains decision %r preceding none of its random variables"
                    % (sorted(p.domain), d.name),
                )

    if net.decisions:
        randoms = [r.name for r in net.randoms]
        for i, r1 in enumerate(randoms):
            for r2 in randoms[i + 1:]:
                between = any(
                    (before(r1, d.name) and before(d.name, r2))
                    or (before(r2, d.name) and before(d.name, r1))
                    for d in net.decisions
                )
                if not between:
                    yield Finding(
                        "p5",
                        "no decision variable lies strictly between randoms %r and %r" % (r1, r2),
                    )

    heads = {}
    for p in net.potentials:
        heads.setdefault(p.head.name, []).append(p)
    for r in net.randoms:
        owned = heads.get(r.name, [])
        if len(owned) != 1:
            yield Finding(
                "A1",
                "random variable %r has %d conditional potentials, expected exactly one"
                % (r.name, len(owned)),
            )
        for p in owned:
            for parent in p.parents:
                if not before(parent.name, r.name):
                    yield Finding(
                        "A1",
                        "parent %r of the potential for %r does not precede it"
                        % (parent.name, r.name),
                    )

    for p in net.potentials:
        if not is_conditional(p.ballooned, p.head.name):
            yield Finding(
                "d",
                "potential for %r does not marginalize to the vacuous belief function on its parents"
                % p.head.name,
            )


def reference_order(net):
    closure = reference_closure(net)
    remaining = [v.name for v in net.variables]
    order = []
    while remaining:
        pool = set(remaining)
        minimal = [
            x for x in remaining
            if not any((x, y) in closure for y in pool if y != x)
        ]
        if not minimal:
            raise NetworkError("precedence relation is cyclic; no minimal variable")
        pick = min(minimal, key=lambda n: net.decl_index[n])
        order.append(pick)
        remaining.remove(pick)
    return tuple(order)


@st.composite
def precedence_networks(draw):
    """1-9 variables of either kind; arcs with cycles, self-loops and repeats;
    potentials with 0-2 parents, none, one or two per random; 0-2 utilities."""
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=9))
    variables = [
        (decision if is_decision else random_var)("V%d" % i, ("a", "b"))
        for i, is_decision in enumerate(kinds)
    ]
    frames = {v.name: v.frame for v in variables}
    pick = st.sampled_from(variables)
    arcs = draw(st.lists(st.tuples(pick, pick).map(lambda a: (a[0].name, a[1].name)), max_size=14))
    potentials = []
    for head in (v for v in variables if not v.is_decision):
        for _ in range(draw(st.sampled_from([1, 0, 2]))):
            others = [v for v in variables if v != head]
            parents = draw(st.lists(st.sampled_from(others), max_size=2, unique=True)) if others else []
            names = [v.name for v in parents]
            potentials.append(conditional(head, parents, {
                cfg: [({"a"}, 0.5), ({"a", "b"}, 0.5)] for cfg in all_configs(names, frames)
            }))
    utilities = []
    for scope in draw(st.lists(st.lists(pick, min_size=1, max_size=2, unique=True), max_size=2)):
        names = [v.name for v in scope]
        utilities.append(make_utility(scope, {cfg: 1.0 for cfg in all_configs(names, frames)}))
    return Network(variables, utilities, potentials, arcs)


@given(precedence_networks())
def test_precedence_matches_the_pair_set_reference(net):
    assert validate(net).lines() == [f.line() for f in reference_findings(net)]
    try:
        expected = reference_order(net)
    except NetworkError as exc:
        with pytest.raises(NetworkError) as raised:
            elimination_order(net)
        assert str(raised.value) == str(exc)
    else:
        assert elimination_order(net) == expected
    closure = reference_closure(net)
    for x in net.by_name:
        for y in net.by_name:
            assert net.before(x, y) is ((x, y) in closure)
