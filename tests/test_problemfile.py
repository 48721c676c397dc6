import random

import pytest

from valnet import ProblemFormatError, parse_problem, serialize, solve

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


def serializable(net):
    """The file format refuses parentless bpas below a decision variable."""
    for p in net.potentials:
        if not p.parents and any(
            net.before(d.name, p.head.name) for d in net.decisions
        ):
            return False
    return True


def test_generated_networks_round_trip():
    rng = random.Random(211)
    done = 0
    while done < 30:
        net = random_network(rng)
        if not serializable(net):
            continue
        done += 1
        again = parse_problem(serialize(net)).network
        assert again == net


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

    def test_unconditional_bpa_after_a_decision(self):
        err = parse_error(
            "decision D { a, b }\n"
            "random R { x, y }\n"
            "prec D -> R\n"
            "bpa m on {R} { {x} = 1 }\n"
        )
        assert err.line == 4
        assert "unconditional" in str(err)

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
