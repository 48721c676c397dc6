import math
import random

import pytest

from valnet import (
    DomainMismatchError,
    KindError,
    MassError,
    NetworkError,
    SolverError,
    UtilityError,
    balloon,
    belief_of,
    combine,
    conditional,
    decision,
    is_conditional,
    make_bpa,
    make_config,
    make_utility,
    project_config,
    random_var,
    vacuous,
)
from valnet import valuation
from valnet.calculus import marginalize_belief
from valnet.valuation import Focal, is_vacuous

from netgen import random_subsets

T = decision("T", ("t", "~t"))
R = random_var("R", ("re", "ye", "gr", "nr"))
D = decision("D", ("d", "~d"))
O = random_var("O", ("dr", "we", "so"))


def focal(**values):
    return frozenset([make_config(values)])


def focal_set(*dicts):
    return frozenset([make_config(d) for d in dicts])


# Bel(Result | Test) and Bel(Oil | Test result) from the wildcatter example.
RESULT_TABLES = {
    make_config({"T": "t"}): [({"re"}, 0.5), ({"ye"}, 0.2), ({"gr"}, 0.3)],
    make_config({"T": "~t"}): [({"nr"}, 1.0)],
}
OIL_TABLES = {
    make_config({"R": "re"}): [({"dr"}, 1.0)],
    make_config({"R": "ye"}): [({"dr", "we"}, 1.0)],
    make_config({"R": "gr"}): [({"we", "so"}, 1.0)],
    make_config({"R": "nr"}): [({"dr"}, 0.5), ({"dr", "we"}, 0.2), ({"we", "so"}, 0.3)],
}


# Sets that are not nonempty sets of configurations over {T}, by name.
OFF_DOMAIN = {
    "empty": frozenset(),
    "narrower": frozenset([make_config({})]),
    "mixed": focal_set({"T": "t"}, {"R": "re"}),
    "mixed-wider": focal_set({"T": "t"}, {"T": "t", "R": "re"}),
    "other": focal(R="re"),
    "wider": focal(T="t", R="re"),
}


class TestMakeBpa:
    def test_simple_bpa(self):
        b = make_bpa([R], [(focal(R="re"), 0.5), (focal(R="ye"), 0.2), (focal(R="gr"), 0.3)])
        assert len(b.focals) == 3
        assert sum(f.mass for f in b.focals) == pytest.approx(1.0)

    def test_full_frame_mass_one_is_vacuous(self):
        full = frozenset([make_config({"R": v}) for v in R.frame])
        b = make_bpa([R], [(full, 1.0)])
        assert is_vacuous(b)
        assert b == vacuous([R])

    def test_mass_sum_violation(self):
        with pytest.raises(MassError):
            make_bpa(
                [O],
                [
                    (focal(O="dr"), 0.5),
                    (focal_set({"O": "dr"}, {"O": "we"}), 0.2),
                    (focal_set({"O": "we"}, {"O": "so"}), 0.4),
                ],
            )

    def test_negative_mass(self):
        with pytest.raises(MassError):
            make_bpa([T], [(focal(T="t"), 1.5), (focal(T="~t"), -0.5)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mass(self, bad):
        with pytest.raises(MassError, match="non-finite mass"):
            make_bpa([T], [(focal(T="t"), bad), (focal(T="~t"), 0.0)])
        with pytest.raises(MassError, match="non-finite mass"):
            conditional(R, [T], {"t": [({"re"}, bad)], "~t": [({"nr"}, 1.0)]})

    def test_duplicate_focals_merge(self):
        b = make_bpa([T], [(focal(T="t"), 0.4), (focal(T="t"), 0.3), (focal(T="~t"), 0.3)])
        assert len(b.focals) == 2
        assert belief_of(b, focal(T="t")) == pytest.approx(0.7)

    def test_zero_mass_dropped(self):
        b = make_bpa([T], [(focal(T="t"), 1.0), (focal(T="~t"), 0.0)])
        assert len(b.focals) == 1

    def test_configurations_may_come_as_any_iterable(self):
        b = make_bpa([T], [([make_config({"T": "t"})], 0.5), (iter(focal(T="~t")), 0.5)])
        assert b == make_bpa([T], [(focal(T="t"), 0.5), (focal(T="~t"), 0.5)])

    @pytest.mark.parametrize("support", OFF_DOMAIN.values(), ids=OFF_DOMAIN)
    def test_support_off_the_domain(self, support):
        with pytest.raises(DomainMismatchError):
            make_bpa([T], [(support, 0.5), (focal(T="~t"), 0.5)])


class TestBeliefOf:
    def test_full_frame_is_one(self):
        b = make_bpa([R], [(focal(R="re"), 0.6), (focal_set({"R": "re"}, {"R": "ye"}), 0.4)])
        full = frozenset([make_config({"R": v}) for v in R.frame])
        assert belief_of(b, full) == pytest.approx(1.0)

    def test_certain_singleton(self):
        b = make_bpa([R], [(focal(R="nr"), 1.0)])
        assert belief_of(b, focal(R="nr")) == pytest.approx(1.0)

    def test_oil_given_no_result(self):
        b = make_bpa(
            [O],
            [
                (focal(O="dr"), 0.5),
                (focal_set({"O": "dr"}, {"O": "we"}), 0.2),
                (focal_set({"O": "we"}, {"O": "so"}), 0.3),
            ],
        )
        # Subsets of {dr, we}: {dr} and {dr, we}.
        assert belief_of(b, focal_set({"O": "dr"}, {"O": "we"})) == pytest.approx(0.7)

    def test_monotone(self):
        rng = random.Random(7)
        for _ in range(50):
            b = make_bpa(
                [O],
                [
                    (frozenset([make_config({"O": v}) for v in s]), m)
                    for s, m in random_subsets(rng, O.frame)
                ],
            )
            small = focal(O="we")
            big = focal_set({"O": "we"}, {"O": "so"})
            assert belief_of(b, small) <= belief_of(b, big) + 1e-12

    def test_kind_mismatch(self):
        u = make_utility([T], {make_config({"T": "t"}): 1.0, make_config({"T": "~t"}): 0.0})
        with pytest.raises(KindError):
            belief_of(u, focal(T="t"))

    @pytest.mark.parametrize("query", OFF_DOMAIN.values(), ids=OFF_DOMAIN)
    def test_query_off_the_domain(self, query):
        b = make_bpa([T], [(focal(T="t"), 1.0)])
        with pytest.raises(DomainMismatchError):
            belief_of(b, query)


class TestMakeUtility:
    def test_wildcatter_payoff_round_trip(self):
        table = {
            make_config({"D": d, "O": o}): v
            for (d, o), v in {
                ("d", "dr"): -70000.0,
                ("d", "we"): 50000.0,
                ("d", "so"): 200000.0,
                ("~d", "dr"): 0.0,
                ("~d", "we"): 0.0,
                ("~d", "so"): 0.0,
            }.items()
        }
        u = make_utility([D, O], table)
        assert len(u.focals) == 1
        assert u.focals[0].values[make_config({"D": "d", "O": "so"})] == 200000.0

    def test_all_zero_table(self):
        u = make_utility([T], {make_config({"T": "t"}): 0.0, make_config({"T": "~t"}): 0.0})
        assert u.kind == "utility"

    def test_test_cost(self):
        u = make_utility([T], {make_config({"T": "t"}): -10000.0, make_config({"T": "~t"}): 0.0})
        assert u.focals[0].values[make_config({"T": "t"})] == -10000.0

    def test_missing_configuration(self):
        with pytest.raises(DomainMismatchError):
            make_utility([T], {make_config({"T": "t"}): 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value(self, bad):
        table = {make_config({"T": "t"}): bad, make_config({"T": "~t"}): 0.0}
        with pytest.raises(UtilityError, match="not finite"):
            make_utility([T], table)


class TestVacuous:
    def test_frame_focal(self):
        v = vacuous([R])
        assert len(v.focals) == 1
        assert len(v.focals[0].support) == 4
        assert v.focals[0].mass == pytest.approx(1.0)

    def test_identity_under_combination(self):
        b = make_bpa([R], [(focal(R="re"), 0.5), (focal_set({"R": "ye"}, {"R": "gr"}), 0.5)])
        assert combine(vacuous([R]), b) == b

    def test_ballooned_conditional_marginal_is_vacuous(self):
        v = balloon(O, [R], OIL_TABLES)
        assert is_vacuous(marginalize_belief(v, "O"))


class TestBalloon:
    def test_result_given_test(self):
        v = balloon(R, [T], RESULT_TABLES)
        expected = {
            focal_set({"T": "t", "R": "re"}, {"T": "~t", "R": "nr"}): 0.5,
            focal_set({"T": "t", "R": "ye"}, {"T": "~t", "R": "nr"}): 0.2,
            focal_set({"T": "t", "R": "gr"}, {"T": "~t", "R": "nr"}): 0.3,
        }
        got = {f.support: f.mass for f in v.focals}
        assert set(got) == set(expected)
        for support, mass in expected.items():
            assert got[support] == pytest.approx(mass)

    def test_oil_given_result(self):
        v = balloon(O, [R], OIL_TABLES)
        base = [
            {"R": "re", "O": "dr"},
            {"R": "ye", "O": "dr"},
            {"R": "ye", "O": "we"},
            {"R": "gr", "O": "we"},
            {"R": "gr", "O": "so"},
        ]
        expected = {
            focal_set(*base, {"R": "nr", "O": "dr"}): 0.5,
            focal_set(*base, {"R": "nr", "O": "dr"}, {"R": "nr", "O": "we"}): 0.2,
            focal_set(*base, {"R": "nr", "O": "we"}, {"R": "nr", "O": "so"}): 0.3,
        }
        got = {f.support: f.mass for f in v.focals}
        assert set(got) == set(expected)
        for support, mass in expected.items():
            assert got[support] == pytest.approx(mass)

    def test_all_vacuous_tables(self):
        tables = {
            make_config({"T": v}): [(set(R.frame), 1.0)] for v in T.frame
        }
        v = balloon(R, [T], tables)
        assert is_vacuous(v)

    def test_mass_total_is_product_of_sums(self):
        rng = random.Random(3)
        for _ in range(20):
            tables = {
                make_config({"T": v}): random_subsets(rng, O.frame) for v in T.frame
            }
            v = balloon(O, [T], tables)
            assert sum(f.mass for f in v.focals) == pytest.approx(1.0)

    def test_missing_parent_config(self):
        with pytest.raises(DomainMismatchError):
            balloon(R, [T], {make_config({"T": "t"}): [({"re"}, 1.0)]})

    def test_parent_value_keys_match_configuration_keys(self):
        by_values = {("t",): RESULT_TABLES[make_config({"T": "t"})], "~t": [({"nr"}, 1.0)]}
        assert balloon(R, [T], by_values) == balloon(R, [T], RESULT_TABLES)
        assert conditional(R, [T], by_values).tables == conditional(R, [T], RESULT_TABLES).tables

    @pytest.mark.parametrize("key", [("t", "re"), make_config({"R": "re"})])
    def test_parent_key_for_other_variables(self, key):
        tables = {key: [({"dr"}, 1.0)], ("~t",): [({"dr"}, 1.0)]}
        for build in (balloon, conditional):
            with pytest.raises(DomainMismatchError, match="does not match parents"):
                build(O, [T], tables)

    @pytest.mark.parametrize("parents", [[T, T], [T, R]], ids=["repeated", "head"])
    def test_bad_parent_list(self, parents):
        # A repeated parent once built a potential that serialized to a
        # file the parser rejected.
        tables = {("t", "t"): [({"re"}, 1.0)], ("~t", "~t"): [({"nr"}, 1.0)]}
        for build in (balloon, conditional):
            with pytest.raises(NetworkError, match="bad parent list for bpa 'b'"):
                build(R, parents, tables, label="b")

    def test_combination_limit(self, monkeypatch):
        # RESULT_TABLES picks 3 x 1 focals, OIL_TABLES 1 x 1 x 1 x 3.
        monkeypatch.setattr(valuation, "BALLOON_LIMIT", 3)
        assert len(balloon(R, [T], RESULT_TABLES).focals) == 3
        assert len(conditional(O, [R], OIL_TABLES).ballooned.focals) == 3
        tables = dict(RESULT_TABLES)
        tables[make_config({"T": "~t"})] = [({"nr"}, 0.5), ({"re", "nr"}, 0.5)]
        with pytest.raises(SolverError, match="'R' would enumerate 6 focal combinations, "
                           "more than the limit of 3"):
            balloon(R, [T], tables)

    def test_ballooned_projection_onto_head(self):
        v = balloon(R, [T], RESULT_TABLES)
        proj = {project_config(x, {"T"}) for x in v.focals[0].support}
        assert proj == frozenset([make_config({"T": "t"}), make_config({"T": "~t"})])


class TestIsConditional:
    def test_ballooned_is_conditional(self):
        assert is_conditional(balloon(O, [R], OIL_TABLES), "O")
        assert is_conditional(balloon(R, [T], RESULT_TABLES), "R")

    def test_point_mass_is_not(self):
        b = make_bpa([R, O], [(focal(R="re", O="dr"), 1.0)])
        assert not is_conditional(b, "O")

    def test_vacuous_is_conditional(self):
        assert is_conditional(vacuous([R, O]), "O")

    def test_random_conditionals(self):
        rng = random.Random(11)
        for _ in range(30):
            tables = {
                make_config({"R": v}): random_subsets(rng, O.frame) for v in R.frame
            }
            assert is_conditional(balloon(O, [R], tables), "O")


def test_focal_values_must_cover_exactly_the_support():
    support = focal_set({"T": "t"}, {"T": "~t"})
    assert Focal(support, {x: 0.5 for x in support}).mass == 0.5
    for values in ({make_config({"T": "t"}): 1.0}, {x: 0.5 for x in support | focal(R="re")}):
        with pytest.raises(DomainMismatchError, match="cover exactly the support"):
            Focal(support, values)


def test_canonical_focals_merges_without_changing_its_inputs():
    both = focal_set({"T": "t"}, {"T": "~t"})
    first, second, third = ({x: m for x in both} for m in (0.25, 0.5, 0.125))
    alone = {make_config({"T": "t"}): 0.125}
    items = [(both, first), (focal(T="t"), alone), (both, second), (both, third)]
    copies = [dict(values) for _, values in items]
    out = valuation.canonical_focals(items, valuation.BELIEF)
    assert [values for _, values in items] == copies
    assert [f.values for f in out] == [alone, {x: 0.875 for x in both}]
    assert out[0].values is alone  # a focal that merges nothing adopts its dict


def test_focal_is_checked_on_every_construction_path():
    support = focal_set({"T": "t"}, {"T": "~t"})
    f = Focal(support, {x: 0.5 for x in support})
    partial = {make_config({"T": "t"}): 1.0}
    with pytest.raises(DomainMismatchError):
        f._replace(values=partial)
    with pytest.raises(DomainMismatchError):
        f._replace(support=focal(T="t") | focal(R="re"))
    with pytest.raises(DomainMismatchError):
        Focal._make([support, partial])
    assert Focal._make([support, dict(f.values)]) == f


def test_valuation_equality_ignores_the_label():
    b = make_bpa([R], [(focal(R="re"), 0.4), (focal(R="ye") | focal(R="gr"), 0.6)], label="b")
    renamed = b._replace(label="other")
    assert b == renamed
    assert not b != renamed
    assert b != b._replace(kind="general")
    assert b != tuple(b)
    assert b != tuple(renamed)
    assert tuple(b) != b
    with pytest.raises(TypeError):
        hash(b)


def test_conditional_potential_equality_ignores_the_label():
    p = conditional(O, [R], {(r,): [({"dr", "we"}, 0.5), ({"so"}, 0.5)] for r in R.frame}, label="p")
    renamed = p._replace(label="q", ballooned=p.ballooned._replace(label="q"))
    assert p == renamed
    assert not p != renamed
    assert p != tuple(p)
    assert p != p._replace(tables={})


def test_records_are_frozen():
    v = vacuous([R], label="v")
    with pytest.raises(AttributeError):
        v.label = "w"
    with pytest.raises(AttributeError):
        v.focals[0].values = {}
    with pytest.raises(AttributeError):
        v.note = "new attribute"


def test_singleton_bpa_round_trips_as_probability():
    probs = {"re": 0.1, "ye": 0.2, "gr": 0.3, "nr": 0.4}
    b = make_bpa([R], [(focal(R=v), p) for v, p in probs.items()])
    for v, p in probs.items():
        assert belief_of(b, focal(R=v)) == pytest.approx(p)
