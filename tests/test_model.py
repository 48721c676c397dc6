import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from valnet import (
    DIAMOND,
    DomainMismatchError,
    NetworkError,
    Variable,
    decision,
    make_config,
    random_var,
)
from valnet.model import (
    all_configs,
    broadcast,
    config_judge,
    config_mapping,
    extender,
    iter_configs,
    listed_configs,
    projector,
    value_reader,
    values_reader,
)

from conftest import concat_configs, project_config

FRAMES = {
    "T": ("t", "~t"),
    "R": ("re", "ye", "gr", "nr"),
    "D": ("d", "~d"),
    "O": ("dr", "we", "so"),
}


def cfg(**values):
    return make_config(values)


def config_domain(x):
    return frozenset(name for name, _ in x)


def test_project_drops_coordinates():
    x = cfg(R="re", D="d", O="dr")
    assert project_config(x, {"R", "D"}) == cfg(R="re", D="d")


def test_project_identity_and_empty():
    x = cfg(T="t", R="re")
    assert project_config(x, {"T", "R"}) == x
    assert project_config(x, set()) == DIAMOND


def test_project_rejects_non_subset():
    with pytest.raises(DomainMismatchError):
        project_config(cfg(T="t"), {"R"})


def test_concat_disjoint_union():
    assert concat_configs(cfg(D="d"), cfg(O="dr")) == cfg(D="d", O="dr")
    assert concat_configs(cfg(T="t"), cfg(R="re", O="dr")) == cfg(T="t", R="re", O="dr")


def test_concat_with_diamond_is_identity():
    x = cfg(T="t", R="ye")
    assert concat_configs(x, DIAMOND) == x


def test_concat_rejects_overlap():
    with pytest.raises(DomainMismatchError):
        concat_configs(cfg(T="t"), cfg(T="~t", R="re"))


def test_variable_invariants():
    with pytest.raises(Exception):
        decision("D", ())
    with pytest.raises(Exception):
        random_var("R", ("a", "a"))


@pytest.mark.parametrize(
    "change",
    [{"kind": "bogus"}, {"frame": ()}, {"frame": ["a", "a"]}, {"kind": "bogus", "frame": ["a", "a"]}],
)
def test_variable_is_checked_on_every_construction_path(change):
    v = decision("D", ("a", "b"))
    fields = dict(v._asdict(), **change)
    with pytest.raises(NetworkError):
        Variable(**fields)
    with pytest.raises(NetworkError):
        v._replace(**change)
    with pytest.raises(NetworkError):
        Variable._make(fields.values())


def test_variable_copies_normalize_the_frame_and_stay_frozen():
    v = decision("D", ("a", "b"))
    assert v._replace(frame=["a", "c"]) == decision("D", ("a", "c"))
    assert Variable._make(["D", "decision", ["a", "b"]]).frame == ("a", "b")
    with pytest.raises(AttributeError):
        v.frame = ("c",)
    with pytest.raises(AttributeError):
        v.note = "new attribute"


# Property tests over random configurations of the wildcatter frames.

configs = st.fixed_dictionaries(
    {}, optional={name: st.sampled_from(frame) for name, frame in FRAMES.items()}
).map(make_config)


@st.composite
def config_and_subdomain(draw):
    x = draw(configs)
    names = sorted(config_domain(x))
    h = frozenset(n for n in names if draw(st.booleans()))
    return x, h


@given(config_and_subdomain())
def test_projection_idempotent(pair):
    x, h = pair
    once = project_config(x, h)
    assert project_config(once, h) == once


@given(config_and_subdomain(), st.data())
def test_projection_composes(pair, data):
    x, h = pair
    k = frozenset(n for n in sorted(h) if data.draw(st.booleans()))
    assert project_config(project_config(x, h), k) == project_config(x, k)


@given(configs, configs)
def test_concat_then_project_recovers_arguments(x, y):
    y = tuple(p for p in y if p[0] not in config_domain(x))
    joined = concat_configs(x, y)
    assert project_config(joined, config_domain(x)) == x
    assert project_config(joined, config_domain(y)) == y


class TestConfigJudge:
    judge = staticmethod(config_judge(["R", "D"], FRAMES))

    def test_gives_back_a_configuration_of_its_variables(self):
        x = cfg(R="re", D="d")
        assert self.judge(x) is x

    def test_builds_a_configuration_from_values_listed_in_order(self):
        assert self.judge(("re", "d"), listed=True) == cfg(R="re", D="d")

    @pytest.mark.parametrize("x", [
        cfg(R="re"), cfg(R="re", D="d", O="dr"), cfg(R="zz", D="d"), DIAMOND,
        (("R", "re"), ("D", "d")), (("D", "d"), "Rr"), (("D", "d"), ("R", "re", "x")),
        (("D", ["d"]), ("R", "re")), ["D", "d"], "Dd",
    ], ids=["narrower", "wider", "outside-frame", "diamond", "unsorted", "not-a-pair",
            "a-triple", "unhashable", "a-list", "a-string"])
    def test_refuses_anything_else(self, x):
        assert self.judge(x) is None

    @pytest.mark.parametrize("values", [
        ("d", "re"), ("re",), ("re", "d", "dr"), ("re", ["d"]), "re", ["re", "d"],
    ], ids=["out-of-order", "short", "long", "unhashable", "a-string", "a-list"])
    def test_refuses_other_listed_values(self, values):
        assert self.judge(values, listed=True) is None

    def test_frame_membership_decides_for_tuple_values(self):
        judge = config_judge(["A"], {"A": [(1, 2), (3, 4)]})
        x = cfg(A=(1, 2))
        assert judge(x) is x
        assert judge(((1, 2),), listed=True) == x
        assert judge((1, 2), listed=True) is None
        assert judge((("A", 1),)) is None


def test_readers_take_values_in_the_order_asked():
    x = cfg(T="t", R="re", O="dr")
    assert values_reader(("O", "R", "T"), ("T", "O", "R"))(x) == ("t", "dr", "re")
    assert values_reader(frozenset("ORT"), ())(x) == ()
    assert value_reader(("O", "R", "T"), "R")(x) == "re"
    assert config_mapping(x) == {"T": "t", "R": "re", "O": "dr"}
    assert make_config(config_mapping(x)) == x


@st.composite
def split_configs(draw):
    """(domain, extra, onto, x, y): x over a domain, y over a disjoint extra domain, onto within their union.

    Any name may sort before, between or after the domain's, ``onto`` may
    be empty, and a value may be a tuple.
    """
    values = st.one_of(st.sampled_from(["a", "~a", "b"]), st.tuples(st.integers(0, 2), st.sampled_from("xy")))
    joint = draw(st.dictionaries(st.sampled_from("ABCDEFG"), values))
    domain = frozenset(n for n in sorted(joint) if draw(st.booleans()))
    onto = frozenset(n for n in sorted(joint) if draw(st.booleans()))
    pairs = sorted(joint.items())
    x = tuple(pair for pair in pairs if pair[0] in domain)
    y = tuple(pair for pair in pairs if pair[0] not in domain)
    return domain, frozenset(joint) - domain, onto, x, y


def _case(domain, onto, x, **extra):
    y = cfg(**extra)
    return frozenset(domain), frozenset(extra), frozenset(onto), x, y


WILD = cfg(T="t", R="re")


@pytest.mark.deep
@given(split_configs(), st.randoms(use_true_random=False))
# The extender once took listed values; these were its checks.
@example(_case("TR", "DRT", WILD, D="d"), None)
@example(_case("TR", "DT", WILD, O="dr", D="d"), None)
@example(_case("TR", "", WILD), None)
# One extra name before, between and after the others, and several of them.
@example(_case("BC", "", cfg(B="b", C="c"), A=(0, "x")), None)
@example(_case("AC", "ABC", cfg(A="a", C=(1, "y")), B="b"), None)
@example(_case("AB", "C", cfg(A="a", B="b"), C="c"), None)
@example(_case("BD", "ABE", cfg(B="b", D="d"), A="a", C="c", E="e"), None)
def test_projection_and_extension_match_the_references(case, rng):
    """``valnet.model``'s projection, extension and value reader match the tests' pair-wise references."""
    domain, extra, onto, x, y = case
    joint = concat_configs(x, y)
    assert projector(domain, onto)(x) == project_config(x, onto & domain)
    assert projector(domain | extra, onto)(joint) == project_config(joint, onto)
    assert extender(domain, extra)(x, y) == joint
    assert extender(domain, extra, onto)(x, y) == project_config(joint, onto)
    names = sorted(domain | extra)
    if rng is not None:
        rng.shuffle(names)
    assert values_reader(domain | extra, tuple(names))(joint) == tuple(config_mapping(joint)[n] for n in names)


@given(configs, st.randoms(use_true_random=False))
def test_judging_values_read_in_any_order_gives_the_configuration_back(x, rng):
    names = sorted(config_domain(x))
    rng.shuffle(names)
    read = values_reader(tuple(sorted(names)), tuple(names))
    assert config_judge(names, FRAMES)(read(x), listed=True) == x
    assert config_judge(names, FRAMES)(x) is x


def test_all_configs_order_is_deterministic():
    first = all_configs({"D", "O"}, FRAMES)
    assert first == all_configs({"O", "D"}, FRAMES)
    assert len(first) == 6


@given(st.lists(st.sampled_from(sorted(FRAMES)), unique=True))
def test_iter_configs_matches_zipping_names_with_the_frame_product(names):
    # The construction iter_configs replaced, one zip per configuration.
    ordered = sorted(names)
    expected = [
        tuple(zip(ordered, combo)) for combo in itertools.product(*(FRAMES[n] for n in ordered))
    ]
    assert list(iter_configs(names, FRAMES)) == expected
    assert all_configs(reversed(names), FRAMES) == expected


@given(st.lists(st.sampled_from(sorted(FRAMES)), unique=True))
def test_listed_configs_judge_every_listing_of_the_frame_product(names):
    judge = config_judge(names, FRAMES)
    listed = listed_configs(names, FRAMES)
    assert listed == {v: judge(v, listed=True) for v in itertools.product(*(FRAMES[n] for n in names))}


@pytest.mark.deep
@given(st.lists(st.sampled_from(sorted(FRAMES) + ["W"]), unique=True), st.data())
def test_broadcast_lists_each_configuration_at_its_projection(names, data):
    """Each configuration of a domain gets the value of its projection among the sub-domain's configurations."""
    # W's values are tuples; broadcast reads only frame sizes.
    frames = {**FRAMES, "W": ((0, "x"), (1, "y"))}
    onto = data.draw(st.sets(st.sampled_from(names))) if names else set()
    projected = all_configs(onto, frames)
    values = [object() for _ in projected]
    expected = [values[projected.index(project_config(x, onto))] for x in all_configs(names, frames)]
    assert broadcast(values, frozenset(names), frozenset(onto), frames) == expected
