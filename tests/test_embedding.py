from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nonhaus.embedding import (
    ACCUMULATION,
    BasePoint,
    PlanePoint,
    embed_point,
    embedding_checks,
    sample_coordinates,
    spiral_point,
)
from nonhaus.errors import NonHausError

nonzero = st.fractions(min_value=-50, max_value=50, max_denominator=1000).filter(
    lambda x: x != 0
)


class TestEmbedPoint:
    # expected values computed by hand from the closed form (x, x^2)/(1+x^2)
    @pytest.mark.parametrize(
        "x,expected",
        [
            (Fraction(1), PlanePoint(Fraction(1, 2), Fraction(1, 2))),
            (Fraction(-1), PlanePoint(Fraction(-1, 2), Fraction(1, 2))),
            (Fraction(2), PlanePoint(Fraction(2, 5), Fraction(4, 5))),
        ],
    )
    def test_values(self, x, expected):
        assert embed_point(x) == expected

    def test_zero_rejected(self):
        with pytest.raises(NonHausError, match="the accumulation point is not on the curve"):
            embed_point(0)

    @given(nonzero)
    def test_norm_identity(self, x):
        # ||image||^2 * (1 + x^2) == x^2, exactly
        assert embed_point(x).norm_sq() * (1 + x * x) == x * x

    @given(nonzero)
    def test_bounded(self, x):
        assert embed_point(x).norm_sq() < 1

    def test_accumulation_modulus(self):
        # squared norm at 1/10 is 1/101, below the 1/100 bound
        assert embed_point(Fraction(1, 10)).norm_sq() == Fraction(1, 101)
        for n in range(1, 200):
            for s in (1, -1):
                assert embed_point(Fraction(s, n)).norm_sq() <= Fraction(1, n * n)

    def test_injective_on_catalog(self):
        xs = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2)]
        images = {(embed_point(x).u, embed_point(x).v) for x in xs}
        assert len(images) == len(xs)

    @given(nonzero, nonzero)
    def test_injective_pairs(self, a, b):
        if a != b:
            assert embed_point(a) != embed_point(b)

    def test_opposite_coordinates_share_norm(self):
        # only the accumulation bound is promised about norms; mirrored
        # coordinates land at mirrored points of equal norm
        a, b = Fraction(1, 2), Fraction(-1, 2)
        assert embed_point(a) != embed_point(b)
        assert embed_point(a).norm_sq() == embed_point(b).norm_sq()


class TestBasePoint:
    def test_accumulation_flag(self):
        assert ACCUMULATION.is_accumulation
        assert not BasePoint(Fraction(1, 3)).is_accumulation


class TestSpiral:
    def test_rho_shrinks(self):
        for n in (2, 10, 100):
            u, v = spiral_point(1 / n)
            assert (u * u + v * v) ** 0.5 < 1 / n

    def test_zero_rejected(self):
        with pytest.raises(NonHausError, match="the accumulation point is not on the curve"):
            spiral_point(0.0)


class TestChecksReport:
    def test_report_all_green(self):
        report = embedding_checks(500, accumulation_n=100)
        assert report.identity_ok
        assert report.injective_ok
        assert report.accumulation_ok
        assert report.bounded_ok

    def test_sample_determinism(self):
        assert sample_coordinates(64) == sample_coordinates(64)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            embedding_checks(0)

    def test_samples_nonzero(self):
        assert all(x != 0 for x in sample_coordinates(1000))
