import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nonhaus.embedding import ACCUMULATION, BasePoint
from nonhaus.errors import NonHausError
from nonhaus.projection import (
    OriginJoinPath,
    even_cover_certificate,
    fibre,
    preimage_connected_certificate,
    project,
    recheck_even_cover,
    recheck_origin_join,
    recheck_section_witness,
    section_witness,
)
from nonhaus.space import (
    LabeledRep,
    Origin,
    OriginChart,
    Regular,
    SpaceConfig,
    TopologyModel,
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


_NOT_PAIRS = "witnesses are not the origin pairs i < j of 1..3 in order"
_NOT_BASIC_OPENS = "witness (1,2): opens are not the basic opens of origins 1 and 2 at radius 1"


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
        import dataclasses

        cert = even_cover_certificate(1, quotient2)
        bad = dataclasses.replace(
            cert,
            witnesses=(
                dataclasses.replace(cert.witnesses[0], common=Regular(5)),
            )
            + cert.witnesses[1:],
        )
        assert recheck_even_cover(bad) != []

    @pytest.mark.parametrize(
        "fibre",
        [(Origin(1), Origin(2)), (Origin(1), Origin(2), Origin(3), Origin(3)),
         (Origin(1), Origin(2), Regular(1))],
        ids=["origin-missing", "origin-repeated", "regular-point"],
    )
    def test_recheck_names_a_wrong_fibre(self, quotient3, fibre):
        bad = dataclasses.replace(even_cover_certificate(1, quotient3), fibre=fibre)
        assert recheck_even_cover(bad) == [
            "fibre record does not match the fibre over the accumulation point"
        ]

    def test_recheck_counts_the_witnesses(self, quotient3):
        cert = even_cover_certificate(1, quotient3)
        bad = dataclasses.replace(cert, witnesses=cert.witnesses[1:])
        assert recheck_even_cover(bad) == [_NOT_PAIRS]

    @pytest.mark.parametrize(
        "pick", [lambda ws: ws[:1] * 3, lambda ws: ws[::-1]], ids=["one-pair-repeated", "reversed"]
    )
    def test_recheck_requires_each_pair_once_in_order(self, quotient3, pick):
        cert = even_cover_certificate(1, quotient3)
        bad = dataclasses.replace(cert, witnesses=pick(cert.witnesses))
        assert recheck_even_cover(bad) == [_NOT_PAIRS]

    @pytest.mark.parametrize(
        "changes, failure",
        [({"open_i": OriginChart(3, Fraction(1))}, _NOT_BASIC_OPENS),
         ({"open_j": OriginChart(1, Fraction(1))}, _NOT_BASIC_OPENS),
         # inside both opens and the window, but not the rule's point at radius eps
         ({"common": Regular(Fraction(1, 4))},
          "witness (1,2): common point disagrees with the rule"),
         ({"open_j": OriginChart(2, Fraction(1, 4))}, _NOT_BASIC_OPENS)],
        ids=["open-i-of-origin-3", "open-j-of-origin-1", "common-off-the-rule",
             "open-j-too-small"],
    )
    def test_recheck_ties_each_witness_to_its_pair(self, quotient3, changes, failure):
        cert = even_cover_certificate(1, quotient3)
        first = dataclasses.replace(cert.witnesses[0], **changes)
        bad = dataclasses.replace(cert, witnesses=(first,) + cert.witnesses[1:])
        assert recheck_even_cover(bad) == [failure]

    def test_every_witness_within_window(self, quotient3):
        eps = Fraction(1, 3)
        cert = even_cover_certificate(eps, quotient3)
        for w in cert.witnesses:
            assert abs(coord(w.common)) < eps
            assert open_contains(w.open_i, w.common)
            assert open_contains(w.open_j, w.common)


class TestPreimageConnected:
    def test_two_origins(self, quotient2):
        paths = preimage_connected_certificate(1, quotient2)
        assert len(paths) == 1
        times_points = paths[0].breakpoints
        assert times_points[0][1] == Origin(1)
        assert times_points[1][1] == Regular(Fraction(1, 2))
        assert times_points[2][1] == Origin(2)
        assert recheck_origin_join(paths, quotient2, Fraction(1)) == []

    def test_three_origins_chained(self, quotient3):
        paths = preimage_connected_certificate(1, quotient3)
        assert len(paths) == 2
        assert all(p.breakpoints[1][1] == Regular(Fraction(1, 2)) for p in paths)
        assert recheck_origin_join(paths, quotient3, Fraction(1)) == []

    def test_negative_radius(self, quotient2):
        with pytest.raises(NonHausError, match="window radius must be positive, got -1"):
            preimage_connected_certificate(-1, quotient2)


def _join(*points):
    times = [Fraction(n, len(points) - 1) for n in range(len(points))]
    return OriginJoinPath(breakpoints=tuple(zip(times, points)))


_NOT_CHAINED = "paths do not join origins 1..3 consecutively, in order"


class TestOriginJoinRecheck:
    def test_produced_paths_pass(self, quotient3):
        paths = preimage_connected_certificate(1, quotient3)
        assert recheck_origin_join(paths, quotient3, Fraction(1)) == []

    @pytest.mark.parametrize(
        "paths, failures",
        [
            ([_join(Regular(Fraction(1, 2)), Origin(2)), _join(Origin(2), Origin(3))],
             [_NOT_CHAINED]),
            ([_join(Origin(1), Origin(3)), _join(Origin(2), Origin(3))], [_NOT_CHAINED]),
            ([_join(Origin(1), Origin(2)), _join(Origin(2), Regular(1), Origin(3))],
             ["path 1: breakpoint at t=1/2 leaves the window preimage"]),
            ([_join(Origin(1), Origin(2))], [_NOT_CHAINED]),
            ([_join(Origin(1), Origin(2))] * 2, [_NOT_CHAINED]),
            ([_join(Origin(2), Origin(3)), _join(Origin(1), Origin(2))], [_NOT_CHAINED]),
        ],
        ids=["endpoint-not-origin", "not-consecutive", "leaves-window", "path-missing",
             "one-path-repeated", "out-of-order"],
    )
    def test_recheck_names_each_failure(self, quotient3, paths, failures):
        assert recheck_origin_join(paths, quotient3, Fraction(1)) == failures


# points of the punctured window 0 < |x| < 1 on both sides of 0
_PUNCTURED_WINDOW = (Fraction(-1, 2), Fraction(-1, 4), Fraction(1, 4), Fraction(1, 2))


class TestSectionWitness:
    def test_witness_structure(self, quotient2):
        w = section_witness(1, 1, 2, quotient2)
        assert (w.i, w.j, w.eps) == (1, 2, 1)
        for x in _PUNCTURED_WINDOW:
            assert w.section_value(w.i, BasePoint(x)) == w.section_value(w.j, BasePoint(x))
        assert w.section_value(w.i, ACCUMULATION) != w.section_value(w.j, ACCUMULATION)
        assert recheck_section_witness(w, 2) == []

    def test_wider_window_other_pair(self, quotient3):
        w = section_witness(2, 1, 3, quotient3)
        assert (w.i, w.j, w.eps) == (1, 3, 2)
        assert recheck_section_witness(w, 3) == []

    def test_equal_indices_rejected(self, quotient2):
        with pytest.raises(NonHausError, match="must pick distinct origins"):
            section_witness(1, 1, 1, quotient2)

    def test_index_out_of_range(self, quotient2):
        with pytest.raises(NonHausError, match=r"origin 3 not in 1\.\.2"):
            section_witness(1, 1, 3, quotient2)

    def test_recheck_names_equal_indices(self, quotient2):
        bad = dataclasses.replace(section_witness(1, 1, 2, quotient2), j=1)
        assert recheck_section_witness(bad, 2) == [
            "sections pick origins 1 and 1, not two distinct origins of 1..2"]

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1)], ids=["zero", "negative"])
    def test_recheck_names_an_empty_window(self, quotient2, eps):
        bad = dataclasses.replace(section_witness(1, 1, 2, quotient2), eps=eps)
        assert recheck_section_witness(bad, 2) == [f"window radius {eps} is not positive"]

    def test_sections_project_back(self, quotient2):
        w = section_witness(1, 1, 2, quotient2)
        for x in _PUNCTURED_WINDOW + (Fraction(0),):
            y = BasePoint(x)
            assert project(w.section_value(w.i, y)) == y
            assert project(w.section_value(w.j, y)) == y
