import itertools
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valnet import (
    ParsedProblem,
    ProblemFormatError,
    SolverError,
    ValnetError,
    conditional,
    make_config,
    make_utility,
    model,
    oracle_solve,
    parse_problem,
    problemfile,
    serialize,
    solve,
)
from valnet.calculus import check_lambda
from valnet.cli import EXIT_OK, main

from conftest import GOLDEN, WILDCATTER_PATH
from netgen import random_network


def parse_error(text):
    with pytest.raises(ProblemFormatError) as exc:
        parse_problem(text)
    return exc.value


class TestWildcatterFile:
    def test_parses(self, wildcatter):
        net = wildcatter.network
        assert [v.name for v in net.variables] == ["T", "R", "D", "O"]
        assert wildcatter.lam == 0.5
        assert {u.label for u in net.utilities} == {"pay", "cost"}
        assert {p.label for p in net.potentials} == {"result", "oil"}
        assert net.arcs == frozenset([("T", "R"), ("R", "D"), ("D", "O")])

    def test_round_trip(self, wildcatter, wildcatter_text):
        text = serialize(wildcatter.network, wildcatter.lam)
        again = parse_problem(text)
        assert again.network == wildcatter.network
        assert again.lam == wildcatter.lam

    def test_round_trip_solves_identically(self, wildcatter):
        again = parse_problem(serialize(wildcatter.network, wildcatter.lam))
        assert solve(again.network, again.lam).expected_value == pytest.approx(27500.0)


def test_serialize_keeps_the_listed_order_of_shuffled_declarations():
    parsed = parse_problem((GOLDEN / "shuffled.vn").read_text())
    text = serialize(parsed.network, parsed.lam)
    assert text == (GOLDEN / "shuffled_serialized.vn").read_text()
    assert parse_problem(text) == parsed


def test_generated_networks_round_trip():
    rng = random.Random(211)
    for _ in range(30):
        net = random_network(rng)
        assert parse_problem(serialize(net)).network == net


@pytest.mark.deep
@settings(deadline=None)
@given(st.integers(0, 2 ** 32), st.none() | st.floats(0.0, 1.0))
def test_serialize_then_parse_is_the_identity(seed, lam):
    """A generated network, serialized and parsed again, is the same network with the same lambda."""
    net = random_network(random.Random(seed), max_vars=6)
    again = parse_problem(serialize(net, lam))
    assert again.network == net
    assert again.lam == lam


WILDCATTER_TEXT = WILDCATTER_PATH.read_text()
GRAMMAR_TOKENS = [
    "decision", "random", "prec", "utility", "bpa", "lambda", "on", "->", "{", "}",
    "|", ":", ";", ",", "=", "#", "\n", "T", "R", "D", "O", "x", "y", "t", "~t",
    "0", "1", "0.5", "-1", "1e309", "nan",
]


def _mutate(text, edits):
    for pos, cut, token in edits:
        pos %= len(text) + 1
        text = text[:pos] + token + text[pos + cut:]
    return text


@pytest.mark.deep
@settings(deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(GRAMMAR_TOKENS)).map(" ".join),
    st.lists(
        st.tuples(st.integers(0, 10 ** 4), st.integers(0, 20), st.sampled_from(GRAMMAR_TOKENS)),
        min_size=1,
        max_size=4,
    ).map(lambda edits: _mutate(WILDCATTER_TEXT, edits)),
))
def test_parser_is_total(text):
    """Every parser input ends in a parsed problem, ``ProblemFormatError`` or the ballooning ``SolverError``."""
    try:
        assert isinstance(parse_problem(text), ParsedProblem)
    except ProblemFormatError:
        pass
    except SolverError as exc:
        assert "ballooning" in str(exc)


def reference_statements(text):
    """The line-by-line splitter that ``problemfile._statements`` must agree with."""
    out = []
    buf = []
    start = None
    depth = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip() and depth == 0:
            continue
        if start is None:
            start = lineno
        buf.append(line)
        depth += line.count("{") - line.count("}")
        if depth < 0:
            raise ProblemFormatError("unbalanced '}'", lineno)
        if depth == 0:
            stmt = " ".join(buf).strip()
            if stmt:
                out.append((start, stmt))
            buf = []
            start = None
    if depth != 0:
        raise ProblemFormatError("unterminated '{'", start or 1)
    return out


def _split_or_error(split, text):
    try:
        return split(text)
    except ProblemFormatError as exc:
        return (str(exc), exc.line)


# Every line break that ``str.splitlines`` knows.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPLITTER_PIECES = LINE_BREAKS + [
    "{", "}", "{ a, b }", "#", "# a { comment }", " ", "\t", "\x1f", "\xa0",
    "a", "b c", "= 1;", "x : {y} = 1;",
]


@pytest.mark.deep
@settings(deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(SPLITTER_PIECES), max_size=40).map("".join),
    st.lists(
        st.tuples(st.integers(0, 10 ** 4), st.integers(0, 20), st.sampled_from(SPLITTER_PIECES)),
        min_size=1,
        max_size=6,
    ).map(lambda edits: _mutate(WILDCATTER_TEXT, edits)),
))
def test_statements_match_the_line_by_line_reference(text):
    """The same statements at the same lines, or the same error at the same line, as the reference splitter."""
    # The same statements at the same lines, or the same error at the same line.
    assert _split_or_error(problemfile._statements, text) == _split_or_error(reference_statements, text)


def test_statements_number_lines_as_splitlines_breaks_them():
    text = "decision D { a,\r\n b }\x1cprec D -> D\u2028# c\x85utility u on {D} {\x0b a = 1;\r b = 2 }\n"
    assert problemfile._statements(text) == [
        (1, "decision D { a,  b }"),
        (3, "prec D -> D"),
        (5, "utility u on {D} {  a = 1;  b = 2 }"),
    ]


def _fail_past(monkeypatch, limit):
    """Make enumerating more than ``limit`` configurations fail at once."""
    def product(*pools):
        for n, combo in enumerate(itertools.product(*pools)):
            assert n < limit, "enumerated more configurations than the statement has rows"
            yield combo

    monkeypatch.setattr(model, "itertools", types.SimpleNamespace(product=product))


def _variables(kind, prefix, count):
    values = ", ".join("v%d" % j for j in reversed(range(10)))
    return "".join("%s %s%d { %s }\n" % (kind, prefix, i, values) for i in range(count))


@pytest.mark.parametrize("text, message", [
    (
        _variables("decision", "D", 6)
        + "utility u on {D5, D4, D3, D2, D1, D0} { v0 v0 v0 v0 v0 v0 = 1 }\n",
        "utility 'u' is missing 999999 configuration(s), e.g. "
        "(('D0', 'v0'), ('D1', 'v0'), ('D2', 'v0'), ('D3', 'v0'), ('D4', 'v0'), ('D5', 'v1'))",
    ),
    (
        _variables("random", "P", 5)
        + "random R { x, y }\n"
        + "bpa m on {R | P4, P3, P2, P1, P0} { v9 v9 v9 v9 v9 : {x} = 1 }\n",
        "bpa 'm' has no entries for parent configuration "
        "(('P0', 'v9'), ('P1', 'v9'), ('P2', 'v9'), ('P3', 'v9'), ('P4', 'v8'))",
    ),
], ids=["utility", "bpa"])
def test_a_short_table_is_not_expanded(monkeypatch, text, message):
    # The first missing row is the smallest configuration for a utility
    # and the first in frame order for a bpa.
    _fail_past(monkeypatch, 4)
    assert str(parse_error(text)) == "line 7: " + message


A = model.random_var("A", ("a", "b"))
D = model.decision("D", ("a", "b"))
R = model.random_var("R", ("x", "y", "z"))
DECLARED = "random A { a, b }\ndecision D { a, b }\nrandom R { x, y, z }\n"


@pytest.mark.parametrize("statement, build", [
    ("decision E { }", lambda: model.Variable("E", "decision", ())),
    ("random E { x, x }", lambda: model.Variable("E", "random", ("x", "x"))),
    (
        "utility u on {R, D} { x a = 1; y b = 2 }",
        lambda: make_utility(
            [R, D], {make_config({"R": "x", "D": "a"}): 1, make_config({"R": "y", "D": "b"}): 2}, "u"
        ),
    ),
    ("bpa m on {D} { {a} = 1 }", lambda: conditional(D, [], {(): [({"a"}, 1)]}, "m")),
    ("bpa m on {R | R} { x : {x} = 1 }", lambda: conditional(R, [R], {"x": [({"x"}, 1)]}, "m")),
    (
        "bpa m on {R | A, A} { a a : {x} = 1; b b : {y} = 1 }",
        lambda: conditional(R, [A, A], {("a", "a"): [({"x"}, 1)], ("b", "b"): [({"y"}, 1)]}, "m"),
    ),
    (
        "bpa m on {R | A} { b : {x} = 1 }",
        lambda: conditional(R, [A], {make_config({"A": "b"}): [({"x"}, 1)]}, "m"),
    ),
    ("bpa m on {R} { {} = 1 }", lambda: conditional(R, [], {(): [((), 1)]}, "m")),
    (
        "bpa m on {R} { {x} = -0.5; {y} = 1.5 }",
        lambda: conditional(R, [], {(): [({"x"}, -0.5), ({"y"}, 1.5)]}, "m"),
    ),
    (
        "bpa m on {R | A} { a : {x} = 0.5; b : {y} = 1 }",
        lambda: conditional(
            R, [A], {make_config({"A": "a"}): [({"x"}, 0.5)], make_config({"A": "b"}): [({"y"}, 1)]}, "m"
        ),
    ),
    ("lambda = 1.5", lambda: check_lambda(1.5)),
    ("utility u on {} { }", lambda: make_utility([], {}, "u")),
    ("utility u on {D, D} { a a = 1; b b = 2 }", lambda: make_utility([D, D], {}, "u")),
], ids=[
    "empty-frame", "repeated-frame-value", "utility-coverage", "bpa-head", "head-as-parent",
    "repeated-parent", "parent-coverage", "empty-focal", "negative-mass", "mass-sum", "lambda-range",
    "utility-no-variables", "utility-repeated-variable",
])
def test_the_library_judges_and_the_parser_adds_the_line(statement, build):
    with pytest.raises(ValnetError) as judged:
        build()
    assert str(parse_error(DECLARED + statement)) == "line 4: %s" % judged.value


@pytest.mark.parametrize("statement, message", [
    ("utility u on {D, D} { a a = 1; a b = 2; b a = 3; b b = 4 }", "a valuation names variable 'D' more than once"),
    ("utility u on {D, D} { a b = 2; b a = 3 }", "a valuation names variable 'D' more than once"),
    (
        "bpa pr on {R | A, A} { a a : {x} = 1; a b : {x} = 1; b a : {x} = 1; b b : {x} = 1 }",
        "bad parent list for bpa 'pr'",
    ),
    ("bpa pr on {R | A, A} { a b : {x} = 1 }", "bad parent list for bpa 'pr'"),
], ids=["utility-full", "utility-short", "bpa-full", "bpa-short"])
def test_a_repeated_variable_gets_one_message_whatever_the_rows(statement, message):
    # A short utility table was once read row by row, so that a repeated
    # variable surfaced as a duplicate row instead.
    assert str(parse_error(DECLARED + statement)) == "line 4: " + message


def test_comments_and_blank_lines_ignored():
    problem = parse_problem(
        """
        # leading comment
        decision D { a, b }  # trailing comment

        utility u on {D} {
          a = 1;  # inside a block
          b = 2
        }
        """
    )
    assert problem.lam is None
    assert len(problem.network.utilities) == 1


def test_multiline_blocks_report_their_first_line():
    err = parse_error(
        "decision D { a, b }\n"
        "utility u on {D} {\n"
        "  a = 1;\n"
        "  a = 2\n"
        "}\n"
    )
    assert err.line == 2
    assert "duplicate utility entry" in str(err)


class TestErrors:
    def test_empty_file(self):
        err = parse_error("")
        assert "no variables declared" in str(err)

    def test_unknown_statement(self):
        err = parse_error("decision D { a, b }\nfoo bar\n")
        assert err.line == 2

    def test_unbalanced_braces(self):
        assert "unterminated" in str(parse_error("decision D { a, b"))
        assert "unbalanced" in str(parse_error("decision D { a, b }\n}\n"))

    def test_duplicate_variable(self):
        err = parse_error("decision D { a }\nrandom D { x, y }\n")
        assert err.line == 2
        assert "duplicate" in str(err)

    def test_empty_frame(self):
        assert "empty frame" in str(parse_error("decision D { }"))

    def test_repeated_frame_value(self):
        assert "repeats" in str(parse_error("random R { x, x }"))

    def test_frame_values_are_single_tokens(self):
        err = parse_error("random R { x, y }\ndecision D { a b, c }\n")
        assert err.line == 2
        assert "'a b' of variable 'D' is not a single token" in str(err)

    def test_unknown_variable_in_utility(self):
        err = parse_error("decision D { a, b }\nutility u on {Z} { a = 1 }\n")
        assert "unknown variable 'Z'" in str(err)

    def test_unknown_frame_value(self):
        err = parse_error("decision D { a, b }\nutility u on {D} { a = 1; c = 2 }\n")
        assert "'c' is not a value of variable 'D'" in str(err)

    def test_incomplete_utility_table(self):
        err = parse_error("decision D { a, b }\nutility u on {D} { a = 1 }\n")
        assert err.line == 2

    @pytest.mark.parametrize("row", ["a = 1", "a x y = 1"])
    def test_utility_row_with_the_wrong_token_count(self, row):
        err = parse_error(
            "decision D { a, b }\nrandom R { x, y }\nutility u on {D, R} {\n %s }\n" % row
        )
        assert err.line == 3
        assert str(err) == (
            "line 3: utility entry %r needs one value per variable of ['D', 'R']" % row
        )

    def test_duplicate_utility_row_is_reported_before_its_value(self):
        err = parse_error(
            "decision D { a, b }\nrandom R { x, y }\n"
            "utility u on {R, D} { x a = 1; y a = 2;\n x a = one }\n"
        )
        assert err.line == 3
        assert str(err) == "line 3: duplicate utility entry 'x a = one'"

    @pytest.mark.parametrize("row, message", [
        ("z a = 2", "'z' is not a value of variable 'R'"),
        ("y c = 2", "'c' is not a value of variable 'D'"),
        ("z c = 2", "'z' is not a value of variable 'R'"),
    ])
    def test_unknown_value_in_a_two_variable_row(self, row, message):
        err = parse_error(
            "decision D { a, b }\nrandom R { x, y }\nutility u on {R, D} { x a = 1; %s }\n" % row
        )
        assert err.line == 3
        assert str(err) == "line 3: " + message

    @pytest.mark.parametrize("statement, message", [
        ("bpa m on {R} { {x, z} = 1 }", "'z' is not a value of variable 'R'"),
        ("lambda 0.5", "malformed lambda statement"),
    ], ids=["bpa-head-value", "lambda-without-equals"])
    def test_a_bad_statement_names_its_line(self, statement, message):
        assert str(parse_error("random R { x, y }\n%s\n" % statement)) == "line 2: " + message

    def test_first_bad_utility_row_wins(self):
        err = parse_error(
            "decision D { a, b }\nrandom R { x, y }\nutility u on {R, D} { x a = one; z a = 2 }\n"
        )
        assert str(err) == "line 3: bad utility value 'one'"

    def test_missing_utility_configurations_are_counted(self):
        err = parse_error(
            "decision D { a, b }\nrandom R { x, y, z }\n\n"
            "utility u on {R, D} {\n x a = 1;\n y b = 2 }\n"
        )
        assert err.line == 4
        assert str(err) == (
            "line 4: utility 'u' is missing 4 configuration(s), e.g. (('D', 'a'), ('R', 'y'))"
        )

    def test_duplicate_label(self):
        err = parse_error(
            "decision D { a, b }\n"
            "utility u on {D} { a = 1; b = 2 }\n"
            "utility u on {D} { a = 0; b = 0 }\n"
        )
        assert err.line == 3

    def test_bpa_mass_sum(self):
        err = parse_error(
            "random R { x, y, z }\n"
            "bpa m on {R} { {x} = 0.5; {x, y} = 0.2; {y, z} = 0.4 }\n"
        )
        assert err.line == 2
        assert "sum to 1.1" in str(err)

    def test_bpa_missing_parent_config(self):
        err = parse_error(
            "decision D { a, b }\n"
            "random R { x, y }\n"
            "prec D -> R\n"
            "bpa m on {R | D} { a : {x} = 1 }\n"
        )
        assert err.line == 4
        assert "no entries" in str(err)

    def test_bpa_head_must_be_random(self):
        err = parse_error("decision D { a, b }\nbpa m on {D} { {a} = 1 }\n")
        assert "must be a random variable" in str(err)

    def test_unconditional_bpa_after_a_decision(self, tmp_path, capsys):
        # Allowed: such a bpa says that R does not depend on D.
        text = (
            "decision D { a, b }\n"
            "random R { x, y }\n"
            "prec D -> R\n"
            "bpa m on {R} { {x} = 0.6; {x, y} = 0.4 }\n"
            "utility u on {D, R} { a x = 10; a y = -5; b x = 2; b y = 3 }\n"
        )
        net = parse_problem(text).network
        path = tmp_path / "problem.vn"
        path.write_text(text)
        assert main(["check", str(path)]) == EXIT_OK
        assert "well-defined" in capsys.readouterr().out
        for lam in (0.0, 0.3, 1.0):
            assert solve(net, lam).expected_value == pytest.approx(
                oracle_solve(net, lam).expected_value, rel=1e-9
            )

    def test_empty_focal(self):
        err = parse_error("random R { x, y }\nbpa m on {R} { {} = 1 }\n")
        assert "empty focal" in str(err)

    def test_negative_mass(self):
        err = parse_error(
            "random R { x, y }\nbpa m on {R} { {x} = -0.5; {y} = 1.5 }\n"
        )
        assert "negative mass" in str(err)

    def test_bad_number(self):
        err = parse_error("decision D { a, b }\nutility u on {D} { a = one; b = 2 }\n")
        assert "bad utility value 'one'" in str(err)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_non_finite_numbers(self, token):
        err = parse_error("decision D { a, b }\nutility u on {D} { a = %s; b = 2 }\n" % token)
        assert err.line == 2
        assert "utility value %r is not finite" % token in str(err)
        err = parse_error("random R { x, y }\nbpa m on {R} { {x} = %s; {y} = 1 }\n" % token)
        assert "mass %r is not finite" % token in str(err)
        err = parse_error("decision D { a }\nlambda = %s\n" % token)
        assert "lambda %r is not finite" % token in str(err)

    def test_lambda_range_and_duplicates(self):
        assert "outside [0, 1]" in str(parse_error("decision D { a }\nlambda = 1.5\n"))
        err = parse_error("decision D { a }\nlambda = 0.5\nlambda = 0.7\n")
        assert err.line == 3
        assert "duplicate lambda" in str(err)

    def test_malformed_prec(self):
        err = parse_error("decision D { a }\nrandom R { x }\nprec D R\n")
        assert "prec" in str(err)
        assert err.line == 3
