import ast
import dataclasses
import inspect
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nonhaus import projection
from nonhaus.embedding import ACCUMULATION, BasePoint
from nonhaus.errors import NonHausError
from nonhaus.projection import (
    EvenCoverFailure,
    even_cover_certificate,
    fibre,
    project,
    recheck_even_cover,
)
from nonhaus.space import (
    LabeledRep,
    Origin,
    Regular,
    SpaceConfig,
    TopologyModel,
    basic_open,
    canonicalize,
    coord,
    open_contains,
)

nonzero = st.fractions(min_value=-50, max_value=50, max_denominator=1000).filter(
    lambda x: x != 0
)


class TestProjection:
    def test_project(self):
        assert project(Regular(1)) == BasePoint(1)
        assert project(Origin(3)) == ACCUMULATION
        assert project(Regular(Fraction(-1, 2))) == BasePoint(Fraction(-1, 2))

    def test_fibre_over_accumulation(self, quotient3):
        assert fibre(ACCUMULATION, quotient3) == frozenset(
            {Origin(1), Origin(2), Origin(3)}
        )

    def test_fibre_regular(self, quotient3):
        assert fibre(BasePoint(1), quotient3) == frozenset({Regular(1)})

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_fibre_sizes(self, k):
        cfg = SpaceConfig(k)
        assert len(fibre(ACCUMULATION, cfg)) == k
        assert len(fibre(BasePoint(Fraction(7, 5)), cfg)) == 1

    @given(nonzero, st.integers(1, 4), st.integers(1, 4))
    def test_projection_label_independent(self, x, i, j):
        k = 4
        assert project(canonicalize(LabeledRep(x, i), k)) == project(
            canonicalize(LabeledRep(x, j), k)
        )

    @given(nonzero)
    def test_round_trip_regular_locus(self, x):
        y = BasePoint(x)
        (p,) = fibre(y, SpaceConfig(2))
        assert p == Regular(x) and project(p) == y


class TestEvenCover:
    def test_witness_point(self, quotient2):
        cert = even_cover_certificate(1, quotient2)
        assert cert.witnesses[0].common == Regular(Fraction(1, 2))
        assert recheck_even_cover(cert) == []

    def test_small_radius_many_origins(self):
        cfg = SpaceConfig(5, TopologyModel.QUOTIENT)
        cert = even_cover_certificate(Fraction(1, 10), cfg)
        assert len(cert.fibre) == 5
        assert len(cert.witnesses) == 10  # 5 choose 2
        assert cert.witnesses[0].common == Regular(Fraction(1, 20))
        assert recheck_even_cover(cert) == []

    def test_zero_radius_rejected(self, quotient2):
        with pytest.raises(NonHausError, match="window radius must be positive, got 0"):
            even_cover_certificate(0, quotient2)

    def test_pseudometric_model(self, pseudo2):
        cert = even_cover_certificate(Fraction(1, 2), pseudo2)
        assert recheck_even_cover(cert) == []

    def test_recheck_catches_tampering(self, quotient2):
        # the window radius is the one stored value the lemma needs; it is named, not raised
        for eps in (Fraction(0), Fraction(-1)):
            bad = dataclasses.replace(even_cover_certificate(1, quotient2), eps=eps)
            assert recheck_even_cover(bad) == [f"window radius {eps} is not positive"]

    @pytest.mark.parametrize("model", list(TopologyModel))
    def test_every_origin_is_checked(self, monkeypatch, model):
        cfg = SpaceConfig(4, model)
        cert = even_cover_certificate(1, cfg)
        contains = projection.open_contains
        for i in range(1, 5):
            # only origin i's open misses the common point
            own = basic_open(Origin(i), Fraction(1), cfg)
            monkeypatch.setattr(projection, "open_contains",
                                lambda o, q, own=own: contains(o, q) and o != own)
            assert recheck_even_cover(cert) == [
                f"origin {i}'s basic open at radius 1 misses x=1/2"]

    def test_only_the_inputs_are_stored(self):
        assert [f.name for f in dataclasses.fields(EvenCoverFailure)] == ["k", "model", "eps"]

    def test_recheck_shares_no_producer_code(self):
        names = {node.id for node in ast.walk(ast.parse(inspect.getsource(recheck_even_cover)))
                 if isinstance(node, ast.Name)}
        assert not names & {"InseparabilityRule", "even_cover_certificate", "PairWitness"}

    def test_every_witness_within_window(self, quotient3):
        eps = Fraction(1, 3)
        cert = even_cover_certificate(eps, quotient3)
        for w in cert.witnesses:
            assert abs(coord(w.common)) < eps
            assert open_contains(w.open_i, w.common)
            assert open_contains(w.open_j, w.common)


# points of the punctured window 0 < |x| < 1 on both sides of 0
_PUNCTURED_WINDOW = (Fraction(-1, 2), Fraction(-1, 4), Fraction(1, 4), Fraction(1, 2))


class TestSectionWitness:
    """The two sections of the etale-separated lemma: the regular point x over each x != 0,
    and origin 1 or origin 2 over 0.  No record carries them: the etale-separated cells
    cite the T2 failure."""

    def test_witness_structure(self, quotient2):
        # off 0 both sections take the one point of the fibre; at 0 they pick two origins
        for x in _PUNCTURED_WINDOW:
            assert fibre(BasePoint(x), quotient2) == {Regular(x)}
        assert fibre(ACCUMULATION, quotient2) == {Origin(1), Origin(2)}

    def test_sections_project_back(self, quotient2):
        for x in _PUNCTURED_WINDOW:
            assert project(Regular(x)) == BasePoint(x)
        assert project(Origin(1)) == project(Origin(2)) == ACCUMULATION

    @pytest.mark.parametrize("model", list(TopologyModel))
    def test_sections_are_continuous_at_0(self, model):
        # every basic open around an origin holds the small nonzero points on both sides
        cfg = SpaceConfig(3, model)
        for i in range(1, 4):
            for eps in (Fraction(1), Fraction(1, 3)):
                around = basic_open(Origin(i), eps, cfg)
                assert all(open_contains(around, Regular(x * eps)) for x in _PUNCTURED_WINDOW)
