import copy
import itertools
import math
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valnet import (
    DomainMismatchError,
    KindError,
    MassError,
    NetworkError,
    SolverError,
    UtilityError,
    belief_of,
    combine,
    conditional,
    decision,
    is_conditional,
    make_bpa,
    make_config,
    make_utility,
    random_var,
    vacuous,
)
from valnet import all_configs, valuation
from valnet.calculus import marginalize_belief
from valnet.valuation import BeliefFocal, Focal, canonical_focals, is_vacuous

from conftest import concat_configs, project_config
from netgen import random_subsets

T = decision("T", ("t", "~t"))
R = random_var("R", ("re", "ye", "gr", "nr"))
D = decision("D", ("d", "~d"))
O = random_var("O", ("dr", "we", "so"))
A_PAIRS = random_var("A", [(1, 2), (3, 4)])  # a frame of tuple values


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
    "outside-frame": focal_set({"T": "t"}, {"T": "zz"}),
    "unhashable": [(("T", ["t"]),)],  # a list: no frozenset can hold it
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
            conditional(R, [T], {**RESULT_TABLES, make_config({"T": "t"}): [({"re"}, bad)]})

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

    def test_a_value_outside_the_frame_is_refused_by_name(self):
        # This bpa once built: belief_of gave 0.5 for zz, and combining it
        # with the vacuous bpa left T = t with mass 1.0.
        X = random_var("X", ["t", "~t"])
        with pytest.raises(DomainMismatchError, match=re.escape("configuration (('X', 'zz'),)")):
            make_bpa([X], [([make_config({"X": "zz"})], 0.5), ([make_config({"X": "t"})], 0.5)])


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

    def test_masses_add_by_a_left_fold(self):
        # sum() compensates float rounding from Python 3.12 on and gave 1.0
        # there, but 0.9999999999999999 on 3.10 and 3.11; marginalize folds
        # from the left, and so do belief_of and value_at on every version.
        X = random_var("X", "abcde")
        members = ["a", "ab", "ac", "ad", "ae", "abc", "abd", "abe", "acd", "ace"]
        b = make_bpa([X], [([make_config({"X": v}) for v in m], 0.1) for m in members])
        assert len(b.focals) == 10
        full = frozenset(all_configs(["X"], b.frames))
        assert belief_of(b, full) == 0.9999999999999999
        assert b.value_at(make_config({"X": "a"})) == 0.9999999999999999


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

    def test_a_row_outside_the_frame(self):
        table = {make_config({"T": "t"}): 1.0, make_config({"T": "zz"}): 0.0}
        message = "utility 'u' has a row (('T', 'zz'),) outside its frame"
        with pytest.raises(DomainMismatchError, match="^%s$" % re.escape(message)):
            make_utility([T], table, "u")

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
        v = conditional(O, [R], OIL_TABLES).ballooned
        assert is_vacuous(marginalize_belief(v, "O"))


class TestBalloon:
    def test_result_given_test(self):
        v = conditional(R, [T], RESULT_TABLES).ballooned
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
        v = conditional(O, [R], OIL_TABLES).ballooned
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
        v = conditional(R, [T], tables).ballooned
        assert is_vacuous(v)

    def test_mass_total_is_product_of_sums(self):
        rng = random.Random(3)
        for _ in range(20):
            tables = {
                make_config({"T": v}): random_subsets(rng, O.frame) for v in T.frame
            }
            v = conditional(O, [T], tables).ballooned
            assert sum(f.mass for f in v.focals) == pytest.approx(1.0)

    def test_missing_parent_config(self):
        with pytest.raises(DomainMismatchError):
            conditional(R, [T], {make_config({"T": "t"}): [({"re"}, 1.0)]})

    @pytest.mark.parametrize("parent, key", [
        (T, "t"), (T, ("t",)), (A_PAIRS, (1, 2)), (A_PAIRS, ((1, 2),)),
    ], ids=["bare", "listed", "tuple-bare", "tuple-listed"])
    def test_parent_value_keys_are_refused(self, parent, key):
        # A key was once also read as a parent's bare value or its parents'
        # values in parent order, whichever reading the frames accepted first.
        tables = {make_config({parent.name: v}): [({"dr"}, 1.0)] for v in parent.frame[1:]}
        tables[key] = [({"we"}, 1.0)]
        message = r"^parent key %s does not match parents \['%s'\]$" % (re.escape(repr(key)), parent.name)
        with pytest.raises(DomainMismatchError, match=message):
            conditional(O, [parent], tables)

    def test_tuple_valued_parent_frames_take_configuration_keys(self):
        # Any key whose first item was a tuple was once read as a
        # configuration, so no other key form could key a tuple value.
        tables = {make_config({"A": (1, 2)}): [({"dr"}, 1.0)], make_config({"A": (3, 4)}): [({"we", "so"}, 1.0)]}
        assert conditional(O, [A_PAIRS], tables).tables == {
            make_config({"A": (1, 2)}): ((frozenset({"dr"}), 1.0),),
            make_config({"A": (3, 4)}): ((frozenset({"we", "so"}), 1.0),),
        }

    @pytest.mark.parametrize("key", ["zz", ("zz",), make_config({"T": "zz"})],
                             ids=["bare", "listed", "configuration"])
    def test_parent_key_outside_the_frame(self, key):
        tables = {key: [({"dr"}, 1.0)], make_config({"T": "t"}): [({"dr"}, 1.0)]}
        with pytest.raises(DomainMismatchError, match="parent key .* does not match parents"):
            conditional(O, [T], tables)

    @pytest.mark.parametrize("key", [("t", "re"), make_config({"R": "re"})])
    def test_parent_key_for_other_variables(self, key):
        tables = {key: [({"dr"}, 1.0)], make_config({"T": "~t"}): [({"dr"}, 1.0)]}
        with pytest.raises(DomainMismatchError, match="does not match parents"):
            conditional(O, [T], tables)

    def test_focal_outside_the_head_frame(self):
        tables = {**RESULT_TABLES, make_config({"T": "t"}): [({"re", "zz"}, 1.0)]}
        message = "bpa 'b', parent {'T': 't'}: focal ['re', 'zz'] is not a subset of the frame of 'R'"
        with pytest.raises(MassError, match="^%s$" % re.escape(message)):
            conditional(R, [T], tables, label="b")

    @pytest.mark.parametrize("parents", [[T, T], [T, R]], ids=["repeated", "head"])
    def test_bad_parent_list(self, parents):
        # A repeated parent once built a potential that serialized to a
        # file the parser rejected.
        tables = {("t", "t"): [({"re"}, 1.0)], ("~t", "~t"): [({"nr"}, 1.0)]}
        with pytest.raises(NetworkError, match="bad parent list for bpa 'b'"):
            conditional(R, parents, tables, label="b")

    def test_combination_limit(self, monkeypatch):
        # RESULT_TABLES picks 3 x 1 focals, OIL_TABLES 1 x 1 x 1 x 3.
        monkeypatch.setattr(valuation, "BALLOON_LIMIT", 3)
        assert len(conditional(R, [T], RESULT_TABLES).ballooned.focals) == 3
        assert len(conditional(O, [R], OIL_TABLES).ballooned.focals) == 3
        tables = dict(RESULT_TABLES)
        tables[make_config({"T": "~t"})] = [({"nr"}, 0.5), ({"re", "nr"}, 0.5)]
        with pytest.raises(SolverError, match="'R' would enumerate 6 focal combinations, "
                           "more than the limit of 3"):
            conditional(R, [T], tables)

    def test_ballooned_projection_onto_head(self):
        v = conditional(R, [T], RESULT_TABLES).ballooned
        proj = {project_config(x, {"T"}) for x in v.focals[0].support}
        assert proj == frozenset([make_config({"T": "t"}), make_config({"T": "~t"})])


def balloon_reference(head, parents, tables):
    """The balloon built the slow way, from its definition.

    Every pick of one entry per parent configuration joins the cells of its
    subsets, each cell sorted by ``concat_configs``; the masses multiply.  A
    pick without mass is skipped, the masses of equal supports add in pick
    order, and the (support, mass) focals are ordered by their sorted
    configurations.
    """
    frames = {v.name: v.frame for v in parents + [head]}
    configs = all_configs([p.name for p in parents], frames)
    merged = {}
    for choice in itertools.product(*(tables[c] for c in configs)):
        mass = math.prod(m for _, m in choice)
        if mass <= 0:
            continue
        support = frozenset(
            concat_configs(c, make_config({head.name: r}))
            for c, (subset, _) in zip(configs, choice) for r in subset
        )
        merged[support] = merged[support] + mass if support in merged else mass
    return [(s, merged[s]) for s in sorted(merged, key=sorted)]


@st.composite
def balloon_tables(draw):
    """A head, up to two parents and their tables, with repeated subsets and zero masses."""
    names = draw(st.permutations("AHMZ"))  # the head sorts first, last or between
    head = random_var(names[0], ["h%d" % i for i in range(draw(st.integers(1, 4)))])
    parents = [
        random_var(n, ["%s%d" % (n.lower(), i) for i in range(draw(st.integers(1, 3)))])
        for n in names[1:1 + draw(st.integers(0, 2))]
    ]
    configs = all_configs([p.name for p in parents], {p.name: p.frame for p in parents})
    subsets = st.sets(st.sampled_from(head.frame), min_size=1).map(frozenset)
    tables = {}
    for cfg in configs:
        k = draw(st.integers(1, 3 if len(configs) <= 4 else 2))  # at most 512 picks
        weights = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any))
        picked = draw(st.lists(subsets, min_size=k, max_size=k))
        tables[cfg] = [(s, w / sum(weights)) for s, w in zip(picked, weights)]
    return head, parents, tables


@pytest.mark.deep
@settings(deadline=None)
@given(balloon_tables())
def test_balloon_matches_the_reference_construction(case):
    """Ballooning matches its slow reference, focal for focal and bit for bit."""
    head, parents, tables = case
    got = conditional(head, parents, tables).ballooned.focals
    want = balloon_reference(head, parents, tables)
    assert [f.support for f in got] == [s for s, _ in want]
    # The same members in the same iteration order, and bit-identical masses.
    assert [list(f.support) for f in got] == [list(s) for s, _ in want]
    assert [f.mass.hex() for f in got] == [m.hex() for _, m in want]


class TestIsConditional:
    def test_ballooned_is_conditional(self):
        assert is_conditional(conditional(O, [R], OIL_TABLES).ballooned, "O")
        assert is_conditional(conditional(R, [T], RESULT_TABLES).ballooned, "R")

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
            assert is_conditional(conditional(O, [R], tables).ballooned, "O")

    def test_agrees_with_marginalizing_the_head_out(self):
        # The definition is_conditional had before it judged structure alone.
        def reference(v, head):
            return is_vacuous(marginalize_belief(v, head))

        def exact(rng, supports):
            # Masses in eighths, so that sums and products are exact.
            cuts = sorted(rng.sample(range(1, 8), len(supports) - 1))
            return [(s, (b - a) / 8) for s, a, b in zip(supports, [0] + cuts, cuts + [8])]

        joint = all_configs(["R", "O"], {"R": R.frame, "O": O.frame})
        rng = random.Random(29)
        verdicts = []
        for _ in range(300):
            if rng.random() < 0.5:
                supports = [rng.sample(joint, rng.randint(1, len(joint))) for _ in range(rng.randint(1, 4))]
                v, head = make_bpa([R, O], exact(rng, supports)), rng.choice("RO")
            else:
                tables = {
                    make_config({"R": r}):
                        exact(rng, [rng.sample(O.frame, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))])
                    for r in R.frame
                }
                v, head = conditional(O, [R], tables).ballooned, "O"
            verdicts.append(is_conditional(v, head))
            assert verdicts[-1] == reference(v, head)
        assert set(verdicts) == {True, False}


@pytest.mark.parametrize("build", [
    lambda variables: make_bpa(variables, []),
    lambda variables: make_utility(variables, {}),
    vacuous,
], ids=["make_bpa", "make_utility", "vacuous"])
def test_a_valuation_needs_distinct_variables(build):
    with pytest.raises(NetworkError, match="^a valuation needs at least one variable$"):
        build([])
    with pytest.raises(NetworkError, match="^a valuation names variable 'R' more than once$"):
        build([R, T, R])


def test_focal_values_must_cover_exactly_the_support():
    support = focal_set({"T": "t"}, {"T": "~t"})
    good = {x: 0.5 for x in support}
    assert Focal(support, good).values is good
    for values in ({make_config({"T": "t"}): 1.0}, {x: 0.5 for x in support | focal(R="re")}):
        with pytest.raises(DomainMismatchError, match="cover exactly the support"):
            Focal(support, values)


def test_belief_focal_is_a_support_and_one_mass():
    support = focal_set({"T": "t"}, {"T": "~t"})
    f = BeliefFocal(support, 0.25)
    assert BeliefFocal._fields == ("support", "mass")
    assert f == BeliefFocal(frozenset(support), 0.25) == (support, 0.25)
    assert f != BeliefFocal(support, 0.5)
    assert f._replace(mass=0.75) == BeliefFocal(support, 0.75)
    for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert type(twin) is BeliefFocal and twin == f
    # values is derived: a new dict on every read, the mass at each member in support order.
    assert f.values == dict.fromkeys(support, 0.25)
    assert list(f.values) == list(support)
    assert f.values is not f.values
    with pytest.raises(AttributeError):
        f.values = {}
    assert not hasattr(Focal, "mass")
    assert [type(g) for g in canonical_focals([(support, 0.5), (focal(T="t"), 0.5)], "mass")] == [BeliefFocal] * 2


def test_canonical_focals_merges_without_changing_its_inputs():
    both = focal_set({"T": "t"}, {"T": "~t"})
    items = [(both, 0.25), (focal(T="t"), 0.125), (both, 0.0), (both, 0.5), (both, 0.125)]
    copies = list(items)
    out = canonical_focals(items, "mass")
    assert items == copies
    assert [f.values for f in out] == [dict.fromkeys(focal(T="t"), 0.125), dict.fromkeys(both, 0.875)]
    assert canonical_focals([(both, 0.0), (focal(T="t"), -0.0)], "mass") == ()
    with pytest.raises(SolverError, match=re.escape("combined value is not finite at (('T', 't'),)")):
        canonical_focals([(focal(T="~t"), math.inf), (both, 1.0), (both, math.nan)], "combined value")


def reference_belief_focals(items, what):
    """Belief focals by their definition, kept apart from ``canonical_focals``.

    A mass that is zero is skipped; the others of one support add left to
    right from the first, and the first such item's support is kept.  The
    focals are ordered by their sorted configurations, the first non-finite
    mass in that order is refused at its support's smallest configuration,
    and a total of zero is dropped.
    """
    supports, masses = [], []
    for support, mass in items:
        if mass == 0:
            continue
        if support in supports:
            masses[supports.index(support)] += mass
        else:
            supports.append(support)
            masses.append(mass)
    order = sorted(range(len(supports)), key=lambda i: sorted(supports[i]))
    for i in order:
        if math.isnan(masses[i]) or math.isinf(masses[i]):
            raise SolverError("%s is not finite at %r" % (what, sorted(supports[i])[0]))
    return [(supports[i], {x: masses[i] for x in supports[i]}) for i in order if masses[i] != 0]


@st.composite
def belief_items(draw):
    """(support, mass) items: repeated supports; zero, subnormal and cancelling masses; one non-finite mass."""
    configs = [make_config({"R": r, "O": o}) for r in R.frame[:2] for o in O.frame]
    members = st.lists(st.sampled_from(configs), min_size=1)
    pool = [frozenset(draw(members)) for _ in range(draw(st.integers(1, 4)))]
    # Each support again, cut down in place from all the configurations: an
    # equal set that often iterates in another order, so the support a focal keeps shows.
    for support in pool[:]:
        kept = set(configs)
        kept -= kept - support
        pool.append(frozenset(kept))
    masses = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.5, -0.5]),  # 0.5 - 0.5 cancels
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1e-300, allow_subnormal=True),
    )
    items = draw(st.lists(st.tuples(st.sampled_from(pool), masses), max_size=12))
    if items and draw(st.booleans()):
        i = draw(st.integers(0, len(items) - 1))
        items[i] = (items[i][0], draw(st.sampled_from([math.inf, -math.inf, math.nan])))
    return items


@pytest.mark.deep
@settings(deadline=None)
@given(belief_items())
def test_belief_focals_match_the_reference_builder(items):
    """``canonical_focals`` matches the tests' builder, bit for bit.

    The items repeat supports and hold zero, subnormal, cancelling and non-finite masses.
    """
    try:
        want = reference_belief_focals(items, "combined value")
    except SolverError as e:
        with pytest.raises(SolverError) as got:
            canonical_focals(items, "combined value")
        assert str(got.value) == str(e)
        return
    got = canonical_focals(items, "combined value")
    # The same supports, members in the same iteration order, and bit-identical masses.
    assert [f.support for f in got] == [s for s, _ in want]
    assert [[(x, m.hex()) for x, m in f.values.items()] for f in got] == [
        [(x, m.hex()) for x, m in values.items()] for _, values in want
    ]


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
    tables = {make_config({"R": r}): [({"dr", "we"}, 0.5), ({"so"}, 0.5)] for r in R.frame}
    p = conditional(O, [R], tables, label="p")
    renamed = p._replace(label="q")
    assert p == renamed
    assert not p != renamed
    assert p != tuple(p)
    assert p != p._replace(tables={make_config({"R": r}): [({"so"}, 1.0)] for r in R.frame})


def test_potential_copies_and_pickles_balloon_an_equal_record():
    p = conditional(O, [R], OIL_TABLES, label="oil")
    for twin in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p
        assert (twin.label, twin.ballooned.label) == ("oil", "oil")
    if hasattr(copy, "replace"):  # Python 3.13 and later
        assert copy.replace(p, label="q").ballooned.label == "q"
        with pytest.raises(TypeError):
            copy.replace(p, ballooned=p.ballooned)


def test_replaced_tables_are_ballooned_again():
    p = conditional(O, [R], OIL_TABLES)
    tables = {make_config({"R": r}): [({"dr", "we"}, 0.25), ({"so"}, 0.75)] for r in R.frame}
    assert p._replace(tables=tables).ballooned == conditional(p.head, p.parents, tables).ballooned
    assert p._replace(tables=tables).ballooned != p.ballooned


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
