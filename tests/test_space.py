import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import random_fraction
from nonhaus.audit import _recheck_separation
from nonhaus.errors import NonHausError
from nonhaus.space import (
    Ball,
    LabeledRep,
    Origin,
    OriginChart,
    Regular,
    RegularInterval,
    SpaceConfig,
    TopologyModel,
    alternating,
    basic_open,
    canonicalize,
    converges_to,
    coord,
    harmonic,
    labeled_dist,
    open_contains,
    opens_intersect,
    pseudo_dist,
    separable,
    separation_report,
    shifted,
)

fractions = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)
nonzero_fractions = fractions.filter(lambda x: x != 0)
# small coordinates on a coarse grid, so that footprints often touch or nest
_small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_radii = _small.filter(lambda e: e > 0)


@st.composite
def basic_opens(draw, k: int):
    """An interval, a chart, or a ball around an origin or a regular point, for k origins."""
    kind = draw(st.sampled_from(("interval", "chart", "ball")))
    if kind == "interval":
        a, b = sorted(draw(st.lists(_radii, min_size=2, max_size=2, unique=True)))
        return draw(st.sampled_from((RegularInterval(a, b), RegularInterval(-b, -a))))
    origin = draw(st.integers(1, k))
    if kind == "chart":
        return OriginChart(origin, draw(_radii))
    centre = draw(st.one_of(st.just(Origin(origin)), _small.filter(bool).map(Regular)))
    return Ball(centre, draw(_radii))


def _footprint(o) -> tuple[Fraction, Fraction]:
    """The open coordinate interval of o's regular points, stated here from the definitions."""
    if isinstance(o, RegularInterval):
        return o.a, o.b
    c = 0 if isinstance(o, OriginChart) else coord(o.center)
    return c - o.eps, c + o.eps


class TestCanonicalize:
    def test_nonzero_drops_label(self):
        assert canonicalize(LabeledRep(1, 2), k=3) == Regular(1)

    def test_zero_keeps_branch(self):
        assert canonicalize(LabeledRep(0, 3), k=3) == Origin(3)

    def test_negative_coordinate(self):
        assert canonicalize(LabeledRep(Fraction(-2, 3), 1), k=3) == Regular(Fraction(-2, 3))

    def test_branch_out_of_range(self):
        with pytest.raises(NonHausError, match=r"branch 4 not in 1\.\.3"):
            canonicalize(LabeledRep(1, 4), k=3)

    def test_regular_rejects_zero(self):
        with pytest.raises(NonHausError, match="regular points have nonzero coordinate"):
            Regular(0)

    @given(nonzero_fractions, st.integers(min_value=1, max_value=5))
    def test_label_independence(self, x, branch):
        assert canonicalize(LabeledRep(x, branch), k=5) == Regular(x)


class TestPseudoDist:
    def test_origin_pair_distance_zero(self):
        assert pseudo_dist(Origin(1), Origin(2)) == 0

    def test_same_chart(self):
        assert pseudo_dist(Regular(3), Regular(5)) == 2

    def test_origin_to_regular(self):
        assert pseudo_dist(Origin(2), Regular(Fraction(1, 2))) == Fraction(1, 2)

    def test_coord(self):
        assert coord(Regular(Fraction(7, 3))) == Fraction(7, 3)
        assert coord(Origin(1)) == 0
        assert coord(Origin(5)) == 0

    @given(fractions, fractions, fractions)
    def test_triangle_inequality(self, a, b, c):
        pts = [Regular(x) if x != 0 else Origin(1) for x in (a, b, c)]
        p, q, r = pts
        assert pseudo_dist(p, r) <= pseudo_dist(p, q) + pseudo_dist(q, r)

    @given(fractions, fractions)
    def test_symmetry(self, a, b):
        p = Regular(a) if a != 0 else Origin(2)
        q = Regular(b) if b != 0 else Origin(1)
        assert pseudo_dist(p, q) == pseudo_dist(q, p)

    def test_zero_set_exhausts_categories(self):
        # vanishing pairs: equal points, or two origins
        assert pseudo_dist(Origin(1), Origin(3)) == 0
        assert pseudo_dist(Regular(2), Regular(2)) == 0
        # nonvanishing pairs: any pair with distinct nonzero coordinates
        assert pseudo_dist(Origin(1), Regular(1)) != 0
        assert pseudo_dist(Regular(1), Regular(2)) != 0


class TestLabeledDist:
    def test_same_branch(self):
        assert labeled_dist(LabeledRep(1, 1), LabeledRep(2, 1), k=2) == 1

    def test_different_branch(self):
        assert labeled_dist(LabeledRep(1, 1), LabeledRep(2, 2), k=2) == 3

    def test_both_origins(self):
        assert labeled_dist(LabeledRep(0, 1), LabeledRep(0, 2), k=2) == 0

    def test_branch_validation(self):
        with pytest.raises(NonHausError, match=r"branch 7 not in 1\.\.3"):
            labeled_dist(LabeledRep(1, 1), LabeledRep(1, 7), k=3)

    def test_min_over_labels_is_pseudo_dist(self):
        rng = random.Random(4)
        k = 3
        for _ in range(10_000):
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            y = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            xi = rng.randint(1, k)
            yi = rng.randint(1, k)
            p = canonicalize(LabeledRep(x, xi), k)
            q = canonicalize(LabeledRep(y, yi), k)
            # labels of nonzero points range freely; an origin's label is pinned
            xis = range(1, k + 1) if x != 0 else [xi]
            yis = range(1, k + 1) if y != 0 else [yi]
            best = min(
                labeled_dist(LabeledRep(x, i), LabeledRep(y, j), k)
                for i in xis
                for j in yis
            )
            assert best == pseudo_dist(p, q)

    @given(fractions, fractions, st.integers(1, 4), st.integers(1, 4))
    def test_labeled_dominates_pseudo(self, x, y, i, j):
        a, b = LabeledRep(x, i), LabeledRep(y, j)
        assert labeled_dist(a, b, k=4) >= pseudo_dist(
            canonicalize(a, 4), canonicalize(b, 4)
        )


class TestBasicOpens:
    def test_regular_interval_clipped(self, quotient2):
        assert basic_open(Regular(1), 5, quotient2) == RegularInterval(
            Fraction(1, 2), Fraction(3, 2)
        )

    def test_origin_chart(self, quotient2):
        assert basic_open(Origin(1), 1, quotient2) == OriginChart(1, 1)

    def test_origin_ball(self, pseudo2):
        assert basic_open(Origin(1), 1, pseudo2) == Ball(Origin(1), 1)

    def test_nonpositive_radius(self, quotient2):
        with pytest.raises(NonHausError, match="radius must be positive, got 0"):
            basic_open(Regular(1), 0, quotient2)

    def test_chart_excludes_other_origins(self):
        assert not open_contains(OriginChart(1, 1), Origin(2))
        assert open_contains(OriginChart(1, 1), Origin(1))

    def test_ball_contains_every_origin(self):
        for j in range(1, 6):
            assert open_contains(Ball(Origin(1), 1), Origin(j))

    def test_interval_membership(self):
        assert open_contains(RegularInterval(1, 2), Regular(Fraction(3, 2)))
        assert not open_contains(RegularInterval(1, 2), Regular(3))
        assert not open_contains(RegularInterval(1, 2), Origin(1))

    def test_chart_regular_membership(self):
        assert open_contains(OriginChart(2, 1), Regular(Fraction(-1, 2)))
        assert not open_contains(OriginChart(2, 1), Regular(2))

    @given(st.fractions(min_value=Fraction(1, 100), max_value=100), st.integers(1, 4), st.integers(1, 4))
    def test_chart_membership_rule(self, eps, i, j):
        assert open_contains(OriginChart(i, eps), Origin(j)) == (i == j)
        assert open_contains(Ball(Origin(i), eps), Origin(j))

    def test_interval_invariants(self):
        with pytest.raises(NonHausError, match="interval closure must avoid 0"):
            RegularInterval(-1, 1)
        with pytest.raises(NonHausError, match=r"empty interval \(2, 1\)"):
            RegularInterval(2, 1)


class TestSeparation:
    def test_origin_pair_inseparable_both_models(self, quotient2, pseudo2):
        for cfg in (quotient2, pseudo2):
            verdict = separable(Origin(1), Origin(2), cfg)
            assert not verdict.holds
            pt = verdict.rule.common_point(1, 1)
            assert pt == Regular(Fraction(1, 2))
            assert open_contains(basic_open(Origin(1), 1, cfg), pt)
            assert open_contains(basic_open(Origin(2), 1, cfg), pt)

    def test_rule_random_radii(self, quotient2, pseudo2):
        rng = random.Random(11)
        for cfg in (quotient2, pseudo2):
            rule = separable(Origin(1), Origin(2), cfg).rule
            for _ in range(100):
                e1 = Fraction(rng.randint(1, 999), rng.randint(1, 999))
                e2 = Fraction(rng.randint(1, 999), rng.randint(1, 999))
                pt = rule.common_point(e1, e2)
                assert open_contains(basic_open(Origin(1), e1, cfg), pt)
                assert open_contains(basic_open(Origin(2), e2, cfg), pt)

    def test_regular_pair_separated(self, quotient2):
        verdict = separable(Regular(1), Regular(2), quotient2)
        assert verdict.holds
        assert verdict.opens == (
            RegularInterval(Fraction(1, 2), Fraction(3, 2)),
            RegularInterval(Fraction(3, 2), Fraction(5, 2)),
        )

    def test_origin_regular_separated(self, quotient2):
        verdict = separable(Origin(1), Regular(1), quotient2)
        assert verdict.holds
        assert verdict.opens == (
            OriginChart(1, Fraction(1, 2)),
            RegularInterval(Fraction(3, 4), Fraction(5, 4)),
        )

    def test_random_pairs_pass_the_checker(self):
        # separable runs no check of its own; the report's checker accepts every verdict
        rng = random.Random(17)
        for model in TopologyModel:
            for k in range(2, 6):
                cfg = SpaceConfig(k, model)
                for _ in range(150):
                    p, q = (Origin(rng.randint(1, k)) if rng.random() < 0.4
                            else Regular(random_fraction(rng, 50, nonzero=True)) for _ in "pq")
                    if p == q:
                        continue
                    verdict = separable(p, q, cfg)
                    assert verdict.holds is not (isinstance(p, Origin) and isinstance(q, Origin))
                    assert _recheck_separation(verdict, k) == []

    def test_identical_points_rejected(self, quotient2):
        with pytest.raises(NonHausError, match="^origin 1 given twice$"):
            separable(Origin(1), Origin(1), quotient2)
        with pytest.raises(NonHausError, match="^regular 1/2 given twice$"):
            separable(Regular(Fraction(1, 2)), Regular(Fraction(1, 2)), quotient2)

    @given(nonzero_fractions, nonzero_fractions)
    def test_separable_witness_verified(self, x, y):
        if x == y:
            return
        cfg = SpaceConfig(2, TopologyModel.QUOTIENT)
        verdict = separable(Regular(x), Regular(y), cfg)
        assert verdict.holds
        o1, o2 = verdict.opens
        assert open_contains(o1, Regular(x)) and not open_contains(o1, Regular(y))
        assert open_contains(o2, Regular(y)) and not open_contains(o2, Regular(x))
        assert not opens_intersect(o1, o2)

    def test_report_quotient(self, quotient2):
        verdicts = {v.axiom: v for v in separation_report(quotient2)}
        assert verdicts["T0"].holds and verdicts["T1"].holds
        assert not verdicts["T2"].holds
        assert verdicts["T2"].pair == (Origin(1), Origin(2))

    def test_report_pseudometric(self, pseudo2):
        verdicts = {v.axiom: v for v in separation_report(pseudo2)}
        assert not verdicts["T0"].holds
        assert not verdicts["T1"].holds
        assert not verdicts["T2"].holds

    def test_chart_pair_always_intersects(self):
        assert opens_intersect(OriginChart(1, Fraction(1, 9)), OriginChart(2, Fraction(1, 7)))

    @given(st.integers(2, 4).flatmap(lambda k: st.tuples(st.just(k), basic_opens(k), basic_opens(k))))
    def test_intersection_is_a_common_member(self, case):
        # oracle: the origins, and one nonzero point of the footprint overlap if any
        k, o1, o2 = case
        candidates = [Origin(i) for i in range(1, k + 1)]
        lo = max(_footprint(o1)[0], _footprint(o2)[0])
        hi = min(_footprint(o1)[1], _footprint(o2)[1])
        if lo < hi:
            mid = (lo + hi) / 2
            candidates.append(Regular(mid or hi / 2))
        common = any(open_contains(o1, p) and open_contains(o2, p) for p in candidates)
        assert opens_intersect(o1, o2) == common


class TestConvergence:
    def test_harmonic_to_every_origin(self, quotient2, pseudo2):
        for cfg in (quotient2, pseudo2):
            for i in (1, 2):
                assert converges_to(harmonic(), Origin(i), cfg)

    def test_shifted_misses_origin(self, quotient2):
        assert not converges_to(shifted(1), Origin(1), quotient2)

    def test_shifted_to_its_limit(self, quotient2):
        assert converges_to(shifted(1), Regular(1), quotient2)

    def test_alternating_to_origins(self, quotient2):
        assert converges_to(alternating(), Origin(2), quotient2)
        assert not converges_to(alternating(), Regular(1), quotient2)

    def test_sequence_hitting_zero_rejected(self):
        with pytest.raises(NonHausError, match="makes a term land on coordinate 0"):
            shifted(Fraction(-1, 5))

    def test_terms_match_closed_form(self):
        assert harmonic().term(3) == Fraction(1, 3)
        assert shifted(2).term(4) == Fraction(9, 4)
        assert alternating().term(3) == Fraction(-1, 3)
