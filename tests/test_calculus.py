import math
import random

import pytest

from valnet import (
    DomainMismatchError,
    SolverError,
    TotalConflictError,
    ValnetError,
    combine,
    combine_all,
    decision,
    make_bpa,
    make_config,
    make_utility,
    marginalize,
    random_var,
    vacuous,
)
from valnet import calculus
from valnet.calculus import combine_all_traced, marginalize_belief
from valnet.valuation import GENERAL, Focal, Valuation

from netgen import random_subsets, valuations_close

D = decision("D", ("d", "~d"))
R = random_var("R", ("re", "ye", "gr", "nr"))


def cfg(**values):
    return make_config(values)


def cset(*dicts):
    return frozenset([make_config(d) for d in dicts])


def bpa_from_subsets(var, pairs):
    return make_bpa(
        [var],
        [(frozenset([make_config({var.name: v}) for v in s]), m) for s, m in pairs],
    )


def random_bpa(rng, var, singleton_only=False):
    return bpa_from_subsets(var, random_subsets(rng, var.frame, singleton_only))


@pytest.fixture(scope="module")
def wild(wildcatter):
    net = wildcatter.network
    utilities = {u.label: u for u in net.utilities}
    potentials = {p.label: p.ballooned for p in net.potentials}
    return net, utilities, potentials


class TestDempster:
    def test_partial_conflict_renormalizes(self):
        b1 = bpa_from_subsets(R, [({"re"}, 0.6), ({"ye"}, 0.4)])
        b2 = bpa_from_subsets(R, [({"re"}, 0.5), ({"gr"}, 0.5)])
        out = combine(b1, b2)
        assert out.kind == "belief"
        assert len(out.focals) == 1
        assert out.focals[0].support == cset({"R": "re"})
        assert out.focals[0].mass == pytest.approx(1.0)

    def test_no_conflict_multiplies(self):
        b1 = bpa_from_subsets(R, [({"re", "ye"}, 0.7), ({"re", "ye", "gr", "nr"}, 0.3)])
        b2 = bpa_from_subsets(R, [({"ye", "gr"}, 1.0)])
        out = combine(b1, b2)
        got = {f.support: f.mass for f in out.focals}
        assert got[cset({"R": "ye"})] == pytest.approx(0.7)
        assert got[cset({"R": "ye"}, {"R": "gr"})] == pytest.approx(0.3)

    def test_total_conflict(self):
        b1 = bpa_from_subsets(R, [({"re"}, 1.0)])
        b2 = bpa_from_subsets(R, [({"ye"}, 1.0)])
        with pytest.raises(TotalConflictError):
            combine(b1, b2)

    def test_commutative(self):
        rng = random.Random(5)
        for _ in range(40):
            b1, b2 = random_bpa(rng, R), random_bpa(rng, R)
            try:
                left = combine(b1, b2)
            except TotalConflictError:
                continue
            assert left == combine(b2, b1)

    def test_associative(self):
        rng = random.Random(6)
        for _ in range(40):
            b1, b2, b3 = (random_bpa(rng, R) for _ in range(3))
            try:
                left = combine(combine(b1, b2), b3)
                right = combine(b1, combine(b2, b3))
            except TotalConflictError:
                continue
            assert valuations_close(left, right, rtol=1e-9)

    def test_vacuous_identity(self):
        rng = random.Random(7)
        for _ in range(20):
            b = random_bpa(rng, R)
            assert valuations_close(combine(b, vacuous([R])), b, rtol=1e-12)


class TestMixedCombination:
    def test_utilities_add(self, wild):
        _, utilities, _ = wild
        out = combine(utilities["pay"], utilities["cost"])
        assert out.kind == "utility"
        assert out.value_at(cfg(T="t", D="d", O="so")) == pytest.approx(190000.0)
        assert out.value_at(cfg(T="~t", D="~d", O="dr")) == pytest.approx(0.0)

    def test_belief_scales_utility(self, wild):
        _, utilities, potentials = wild
        out = combine(potentials["oil"], utilities["pay"])
        assert out.kind == "general"
        assert out.domain == frozenset({"D", "R", "O"})
        assert len(out.focals) == 3
        by_size = sorted(out.focals, key=lambda f: len(f.support))
        # The certain focal carries mass 0.5; no normalization happens.
        assert by_size[0].values[cfg(D="d", R="re", O="dr")] == pytest.approx(-35000.0)
        assert by_size[0].values[cfg(D="d", R="gr", O="so")] == pytest.approx(100000.0)
        assert by_size[0].values[cfg(D="~d", R="nr", O="dr")] == pytest.approx(0.0)

    def test_mixed_triple_is_order_dependent(self):
        a = random_var("A", ("a", "b"))
        u = make_utility([a], {cfg(A="a"): 3.0, cfg(A="b"): 5.0})
        b1 = bpa_from_subsets(a, [({"a"}, 0.6), ({"b"}, 0.4)])
        b2 = bpa_from_subsets(a, [({"b"}, 1.0)])
        left = combine(combine(u, b1), b2)
        right = combine(u, combine(b1, b2))
        # b1 and b2 conflict on mass 0.6; only the n-ary form renormalizes it.
        assert left.value_at(cfg(A="b")) == pytest.approx(0.4 * 5.0)
        assert right.value_at(cfg(A="b")) == pytest.approx(5.0)
        assert not valuations_close(left, right)

    def test_combine_all_groups_beliefs_first(self):
        rng = random.Random(9)
        a = random_var("A", ("a", "b", "c"))
        u1 = make_utility([a], {cfg(A=v): float(i) for i, v in enumerate(a.frame)})
        u2 = make_utility([a], {cfg(A=v): 2.0 for v in a.frame})
        for _ in range(25):
            b1, b2 = random_bpa(rng, a), random_bpa(rng, a)
            try:
                nary = combine_all([u1, b1, u2, b2])
            except TotalConflictError:
                continue
            grouped = combine(combine(u1, u2), combine(b1, b2))
            assert valuations_close(nary, grouped, rtol=1e-9)

    def test_provenance_shape(self, wild):
        _, utilities, potentials = wild
        out, prov = combine_all_traced([utilities["pay"], potentials["oil"]])
        assert len(prov) == len(out.focals)
        for sources in prov:
            assert all(len(s) == 2 for s in sources)

    def test_overflowing_sum_is_a_solver_error(self):
        a = random_var("A", ("a", "b"))
        table = {cfg(A="a"): 1e308, cfg(A="b"): -1e308}
        with pytest.raises(SolverError, match=r"combined value is not finite at \(\('A', 'a'\),\)"):
            combine_all([make_utility([a], table), make_utility([a], table)])

    def test_overflow_across_joint_focals_is_a_solver_error(self):
        # Two joint focals with one support: their values meet in one exact
        # sum, which overflows although each value is finite.
        a = random_var("A", ("a", "b"))
        b = random_var("B", ("b1", "b2"))
        frames = {"A": a.frame, "B": b.frame}
        big = {cfg(A="a", B="b1"): 1e308, cfg(A="b", B="b1"): 1.0}
        wide = {**big, cfg(A="a", B="b2"): 0.0}
        v = general_valuation(
            {"A", "B"}, frames, [(frozenset(big), big), (frozenset(wide), wide)]
        )
        cut = make_bpa([b], [(cset({"B": "b1"}), 1.0)])
        with pytest.raises(SolverError, match=r"combined value is not finite at \(\('A', 'a'\),"):
            combine_all([v, cut])

    def test_frames_that_disagree_are_refused(self):
        with pytest.raises(DomainMismatchError, match="^inconsistent frames for 'R'$"):
            combine_all([vacuous([R]), vacuous([random_var("R", ("re", "ye"))])])

    def test_an_empty_pool_is_refused(self):
        with pytest.raises(ValnetError, match="^cannot combine an empty collection of valuations$"):
            combine_all([])

    def test_combination_limit(self, monkeypatch):
        monkeypatch.setattr(calculus, "COMBINE_LIMIT", 4)
        b1 = bpa_from_subsets(R, [({"re"}, 0.5), ({"re", "ye"}, 0.5)])
        b2 = bpa_from_subsets(R, [({"re", "ye"}, 0.4), ({"re", "gr"}, 0.6)])
        u = make_utility([R], {cfg(R=v): 1.0 for v in R.frame})
        assert len(combine_all([b1, u, b2]).focals) == 2
        with pytest.raises(SolverError, match="combining would join 8 focal combinations, "
                           "more than the limit of 4"):
            combine_all([b1, u, b2, b1])


class TestEdgeBits:
    """Bits that the fast paths of the kernel must reproduce exactly."""

    X = random_var("X", ("a", "b", "c"))
    AB, ABC = [cfg(X="a"), cfg(X="b")], [cfg(X="a"), cfg(X="b"), cfg(X="c")]

    def pair(self):
        b1 = make_bpa([self.X], [(self.AB, 0.25), (self.ABC, 0.15), ([cfg(X="c")], 0.6)])
        b2 = make_bpa([self.X], [(self.AB, 0.4), (self.ABC, 0.6)])
        return b1, b2

    @pytest.mark.parametrize("with_belief", [False, True])
    def test_negative_zero_utility_combines_to_positive_zero(self, with_belief):
        u = make_utility([self.X], {cfg(X="a"): -0.0, cfg(X="b"): 1.0, cfg(X="c"): 2.0})
        pool = [u, vacuous([self.X])] if with_belief else [u]
        value = combine_all(pool).focals[0].values[cfg(X="a")]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_underflowing_mixed_product_is_positive_zero(self):
        # -1e-200 times mass 1e-200 rounds to -0.0; the sum over one
        # combination is +0.0, as an exact sum of that one value is.
        u = make_utility([self.X], {cfg(X="a"): -1e-200, cfg(X="b"): 1.0, cfg(X="c"): 2.0})
        b = make_bpa([self.X], [([cfg(X="a")], 1e-200), (self.ABC, 1.0)])
        (tiny,) = [f for f in combine_all([u, b]).focals if len(f.support) == 1]
        assert math.copysign(1.0, tiny.values[cfg(X="a")]) == 1.0

    def test_joint_reached_by_several_combinations_is_an_exact_sum(self):
        b1, b2 = self.pair()
        out, prov = combine_all_traced([b1, b2])
        assert prov[0] == [(0, 0), (0, 1), (1, 0)]
        assert [v.hex() for v in out.focals[0].values.values()] == ["0x1.a1af286bca1afp-2"] * 2
        u = make_utility([self.X], {cfg(X="a"): 3.0, cfg(X="b"): -7.0, cfg(X="c"): 1.0})
        out, prov = combine_all_traced([b1, u, b2])
        assert prov[0] == [(0, 0, 0), (0, 0, 1), (1, 0, 0)]
        values = out.focals[0].values
        # A left-to-right sum of the three products gives -0x1.6d79435e50d78p+1.
        assert values[cfg(X="b")].hex() == "-0x1.6d79435e50d79p+1"
        assert values[cfg(X="a")].hex() == "0x1.39435e50d7943p+0"

    def test_one_focal_decision_step_reports_no_conflicts(self):
        rows = {"d": (0.0, 2.0, 1.0, 1.0), "~d": (1.0, 1.0, 1.0, 0.0)}
        v = make_utility([D, R], {
            cfg(D=d, R=r): value for d in D.frame for r, value in zip(R.frame, rows[d])
        })
        _, table = marginalize(v, D)
        # One focal: the totals are its own values, so no two focals can disagree.
        assert table.totals == {
            cfg(R=r): {d: rows[d][i] for d in D.frame} for i, r in enumerate(R.frame)
        }
        # The tie at gr goes to the first act of the frame.
        assert table.choices == {
            cfg(R="re"): "~d", cfg(R="ye"): "d", cfg(R="gr"): "d", cfg(R="nr"): "d"
        }


def general_valuation(domain, frames, items):
    """A general valuation of (support, values) items: values of equal supports add, focals sorted."""
    merged = {}
    for support, values in items:
        sums = merged.setdefault(support, dict.fromkeys(support, 0.0))
        for x, val in values.items():
            sums[x] += val
    focals = tuple(Focal(s, merged[s]) for s in sorted(merged, key=sorted))
    return Valuation(frozenset(domain), dict(frames), GENERAL, focals)


class TestMarginalizeDecision:
    def test_wildcatter_drill_choice(self, wild):
        _, utilities, potentials = wild
        joint = combine(potentials["oil"], utilities["pay"])
        after_o, _ = marginalize(joint, random_var("O", ("dr", "we", "so")), lam=0.5)
        assert after_o.kind == "utility"
        tau = after_o.focals[0].values
        assert tau[cfg(D="d", R="re")] == pytest.approx(-70000.0)
        assert tau[cfg(D="d", R="ye")] == pytest.approx(-10000.0)
        assert tau[cfg(D="d", R="gr")] == pytest.approx(125000.0)
        assert tau[cfg(D="d", R="nr")] == pytest.approx(500.0)
        assert tau[cfg(D="~d", R="re")] == pytest.approx(0.0)

        after_d, table = marginalize(after_o, D)
        values = after_d.focals[0].values
        assert values[cfg(R="gr")] == pytest.approx(125000.0)
        assert values[cfg(R="nr")] == pytest.approx(500.0)
        assert values[cfg(R="re")] == pytest.approx(0.0)
        assert table.decision == "D"
        assert table.choices == {
            cfg(R="re"): "~d",
            cfg(R="ye"): "~d",
            cfg(R="gr"): "d",
            cfg(R="nr"): "d",
        }
        assert table.totals[cfg(R="ye")] == pytest.approx({"d": -10000.0, "~d": 0.0})

    def test_conflicting_focals_are_reported(self):
        frames = {"D": ("d", "~d"), "R": ("re", "ye")}
        f1 = {
            cfg(D="d", R="re"): 1.0,
            cfg(D="~d", R="re"): 0.0,
            cfg(D="d", R="ye"): 0.0,
            cfg(D="~d", R="ye"): 0.0,
        }
        f2 = {cfg(D="d", R="re"): 0.0, cfg(D="~d", R="re"): 5.0}
        v = general_valuation(
            {"D", "R"},
            frames,
            [
                (frozenset(f1), f1),
                (frozenset(f2), f2),
            ],
        )
        out, table = marginalize(v, D)
        # Each focal contributes its own maximum: 1 from the first, 5 from
        # the second, even though no single act attains both.
        assert out.value_at(cfg(R="re")) == pytest.approx(6.0)
        assert table.choices[cfg(R="re")] == "~d"
        assert table.totals[cfg(R="re")] == {"d": 1.0, "~d": 5.0}
        # Alone, as --trace marginalizes them, the two focals prefer different acts.
        alone = [marginalize(v._replace(focals=(f,)), D)[1].choices[cfg(R="re")] for f in v.focals]
        assert sorted(alone) == ["d", "~d"]
        # Ties, recorded as equal totals, fall back to the frame's declaration order.
        assert table.totals[cfg(R="ye")] == {"d": 0.0, "~d": 0.0}
        assert table.choices[cfg(R="ye")] == "d"

    def test_two_decisions_commute(self):
        rng = random.Random(13)
        a = decision("A", ("a1", "a2"))
        b = decision("B", ("b1", "b2", "b3"))
        frames = {"A": a.frame, "B": b.frame}
        for _ in range(30):
            table = {
                cfg(A=x, B=y): rng.uniform(-10, 10) for x in a.frame for y in b.frame
            }
            v = make_utility([a, b], table)
            ab = marginalize(marginalize(v, a)[0], b)[0]
            ba = marginalize(marginalize(v, b)[0], a)[0]
            assert valuations_close(ab, ba, rtol=1e-12)

    def test_policy_replay(self):
        v = make_utility(
            [D, R],
            {cfg(D=d, R=r): (1.0 if d == "d" else -1.0) for d in D.frame for r in R.frame},
        )
        _, table = marginalize(v, D)
        forced = type(table)("D", table.context, {c: "~d" for c in table.choices})
        out, none_table = marginalize(v, D, policy=forced)
        assert none_table is None
        assert out.value_at(cfg(R="re")) == pytest.approx(-1.0)

    def test_policy_act_missing_from_a_focal_raises(self):
        # The only focal holds D=d at R=re, so forcing ~d there has no value to take.
        bpa = make_bpa([D, R], [(cset({"D": "d", "R": "re"}), 1.0)])
        v = combine(bpa, make_utility([D, R], {cfg(D=d, R=r): 1.0 for d in D.frame for r in R.frame}))
        _, table = marginalize(v, D)
        forced = table._replace(choices={c: "~d" for c in table.choices})
        with pytest.raises(SolverError, match=r"no value at \(\('R', 're'\),\) for 'D' = '~d'"):
            marginalize(v, D, policy=forced)

    def test_acts_come_from_the_valuation_frame(self):
        # The acts were once looked up, and ties broken, in the frame of the
        # variable passed in, not in the frame the valuation carries.
        d_ab = decision("D", ("a", "b"))
        v = make_utility([d_ab], {cfg(D="a"): 1.0, cfg(D="b"): 2.0})
        out, table = marginalize(v, decision("D", ("a", "c")))
        assert (table.choices, out.value_at(())) == ({(): "b"}, 2.0)
        tied = make_utility([d_ab], {cfg(D="a"): 1.0, cfg(D="b"): 1.0})
        assert marginalize(tied, decision("D", ("b", "a")))[1].choices == {(): "a"}


class TestMarginalizeRandom:
    def test_lambda_blend(self):
        a = random_var("A", ("a1", "a2"))
        v = make_utility([a], {cfg(A="a1"): 2.0, cfg(A="a2"): 10.0})
        for lam in (0.0, 0.25, 0.5, 1.0):
            out, _ = marginalize(v, a, lam=lam)
            assert out.value_at(()) == pytest.approx(lam * 10.0 + (1 - lam) * 2.0)

    def test_value_is_linear_in_lambda(self, wild):
        _, utilities, potentials = wild
        joint = combine(potentials["oil"], utilities["pay"])
        o = random_var("O", ("dr", "we", "so"))
        lo = marginalize(joint, o, lam=0.0)[0]
        hi = marginalize(joint, o, lam=1.0)[0]
        for lam in (0.2, 0.5, 0.9):
            mid = marginalize(joint, o, lam=lam)[0]
            for x in mid.focals[0].support:
                expect = (1 - lam) * lo.value_at(x) + lam * hi.value_at(x)
                assert mid.value_at(x) == pytest.approx(expect)

    def test_random_order_dependence_example(self):
        a = random_var("A", ("a1", "a2"))
        b = random_var("B", ("b1", "b2"))
        v = make_utility(
            [a, b],
            {
                cfg(A="a1", B="b1"): 0.0,
                cfg(A="a1", B="b2"): 10.0,
                cfg(A="a2", B="b1"): 4.0,
                cfg(A="a2", B="b2"): 6.0,
            },
        )
        lam = 0.3
        ab = marginalize(marginalize(v, a, lam=lam)[0], b, lam=lam)[0]
        ba = marginalize(marginalize(v, b, lam=lam)[0], a, lam=lam)[0]
        assert ab.value_at(()) == pytest.approx(3.0)
        assert ba.value_at(()) == pytest.approx(3.48)

    def test_singleton_focals_ignore_lambda(self):
        rng = random.Random(17)
        a = random_var("A", ("a1", "a2", "a3"))
        for _ in range(30):
            b = random_bpa(rng, a, singleton_only=True)
            u = make_utility([a], {cfg(A=v): rng.uniform(-5, 5) for v in a.frame})
            joint = combine(b, u)
            v0 = marginalize(joint, a, lam=0.0)[0].value_at(())
            v1 = marginalize(joint, a, lam=1.0)[0].value_at(())
            expect = sum(
                f.mass * u.value_at(next(iter(f.support))) for f in b.focals
            )
            assert v0 == pytest.approx(expect)
            assert v1 == pytest.approx(expect)

    def test_overflowing_total_is_a_solver_error(self):
        a = random_var("A", ("a1", "a2"))
        b = random_var("B", ("b1", "b2"))
        frames = {"A": a.frame, "B": b.frame}
        f1 = {cfg(A="a1", B="b1"): 1e308, cfg(A="a1", B="b2"): 1e308}
        f2 = {cfg(A="a1", B="b1"): 1e308}
        v = general_valuation(
            {"A", "B"}, frames, [(frozenset(f1), f1), (frozenset(f2), f2)]
        )
        with pytest.raises(SolverError, match=r"marginal value is not finite at \(\('A', 'a1'\),\)"):
            marginalize(v, b, lam=0.5)

    def test_missing_variable_rejected(self):
        v = make_utility([D], {cfg(D="d"): 1.0, cfg(D="~d"): 0.0})
        with pytest.raises(Exception):
            marginalize(v, R, lam=0.5)


class TestMarginalizeBelief:
    def test_mass_summation(self):
        a = random_var("A", ("a1", "a2"))
        b = random_var("B", ("b1", "b2"))
        v = make_bpa(
            [a, b],
            [
                (cset({"A": "a1", "B": "b1"}), 0.3),
                (cset({"A": "a1", "B": "b2"}), 0.2),
                (cset({"A": "a2", "B": "b1"}, {"A": "a2", "B": "b2"}), 0.5),
            ],
        )
        out = marginalize_belief(v, "B")
        got = {f.support: f.mass for f in out.focals}
        assert got[cset({"A": "a1"})] == pytest.approx(0.5)
        assert got[cset({"A": "a2"})] == pytest.approx(0.5)

    def test_belief_routing_through_marginalize(self):
        a = random_var("A", ("a1", "a2"))
        b = random_var("B", ("b1", "b2"))
        v = make_bpa([a, b], [(cset({"A": "a1", "B": "b1"}), 1.0)])
        out, table = marginalize(v, b, lam=0.5)
        assert table is None
        assert out.kind == "belief"
        assert out.focals[0].support == cset({"A": "a1"})

    def test_order_independent(self):
        rng = random.Random(19)
        a = random_var("A", ("a1", "a2"))
        b = random_var("B", ("b1", "b2", "b3"))
        for _ in range(25):
            pairs = random_subsets(rng, tuple(
                (x, y) for x in a.frame for y in b.frame
            ), max_focals=3)
            v = make_bpa(
                [a, b],
                [
                    (frozenset([cfg(A=x, B=y) for x, y in s]), m)
                    for s, m in pairs
                ],
            )
            ab = marginalize_belief(marginalize_belief(v, "A"), "B")
            ba = marginalize_belief(marginalize_belief(v, "B"), "A")
            assert valuations_close(ab, ba, rtol=1e-12)
