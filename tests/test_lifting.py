import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from conftest import (
    _edge_zero,
    _triangle_zero_segment,
    brute_force_lifts,
    double_dip_path,
    random_fraction,
    reference_plateau,
    reference_triangles,
    reference_zero_set,
    triple_dip_path,
)
from nonhaus import lifting, serialize
from nonhaus.errors import NonHausError
from nonhaus.lifting import (
    HomotopyField,
    LiftedPath,
    LiftsEnumerated,
    NoLift,
    NonUniqueExistence,
    PLPath,
    ZeroSegment,
    ZeroSetComplex,
    attempt_homotopy_lift,
    bounce_path,
    dump_sha256,
    enumerate_lifts,
    extract_zero_set,
    homotopy_lift_record,
    make_merging_field,
    monodromy_verdict,
    recheck_homotopy_record,
    recheck_monodromy,
    verify_lift_continuity,
    zero_times,
)  # noqa: F401  (zero_times used in edge-case tests)
from nonhaus.space import Origin, Regular, SpaceConfig, TopologyModel


def random_zero_path(rng: random.Random) -> PLPath:
    """PL path with at most 6 zero times: touches and crossings at breakpoints,
    crossings inside segments (split by PLPath), and sometimes a zero start."""
    while True:
        xs: list[Fraction] = []
        for i in range(rng.randint(2, 12)):
            zero_allowed = i == 0 or xs[-1] != 0  # no zero plateaus
            zero = zero_allowed and rng.random() < 0.35
            xs.append(Fraction(0) if zero else random_fraction(rng, 9, nonzero=True))
        path = PLPath(tuple((Fraction(i, len(xs) - 1), x) for i, x in enumerate(xs)))
        if len(zero_times(path)) <= 6:
            return path


class TestPLPath:
    def test_bounce_values(self):
        g = bounce_path(1)
        # the two affine pieces are 1 - 2t and 2t - 1
        assert g.eval(Fraction(1, 4)) == Fraction(1, 2)
        assert g.eval(Fraction(1, 2)) == 0
        assert g.eval(Fraction(7, 8)) == Fraction(3, 4)

    def test_bounce_needs_positive_basepoint(self):
        with pytest.raises(NonHausError, match="basepoint must be positive, got 0"):
            bounce_path(0)

    def test_zero_times(self):
        assert zero_times(bounce_path(1)) == [Fraction(1, 2)]
        assert zero_times(double_dip_path()) == [Fraction(1, 4), Fraction(3, 4)]

    def test_crossing_normalized_to_breakpoint(self):
        path = PLPath(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1))))
        assert zero_times(path) == [Fraction(1, 2)]
        assert path.eval(Fraction(1, 2)) == 0

    @given(st.data())
    def test_mixed_breakpoints_normalize_to_reference(self, data):
        """Breakpoints given as ints and Fractions, with zeros and sign changes,
        come out as Fractions, each crossing inside a segment split at its root."""
        n = data.draw(st.integers(2, 7))
        inner = data.draw(st.lists(st.fractions(0, 1, max_denominator=12).filter(lambda t: 0 < t < 1),
                                   min_size=n - 2, max_size=n - 2, unique=True))
        ts = [Fraction(0)] + sorted(inner) + [Fraction(1)]
        xs = data.draw(st.lists(st.integers(-3, 3).map(Fraction) | st.fractions(-3, 3, max_denominator=7),
                                min_size=n, max_size=n))
        spell = st.sampled_from([lambda v: v, lambda v: int(v) if v.denominator == 1 else v])
        path = PLPath(tuple((data.draw(spell)(t), data.draw(spell)(x)) for t, x in zip(ts, xs)))
        want = [(ts[0], xs[0])]
        for (t0, x0), (t1, x1) in zip(zip(ts, xs), zip(ts[1:], xs[1:])):
            if x0 and x1 and (x0 > 0) != (x1 > 0):  # the zero of the chord through both ends
                want.append(((t0 * x1 - t1 * x0) / (x1 - x0), Fraction(0)))
            want.append((t1, x1))
        assert path.breakpoints == tuple(want)
        assert all(type(v) is Fraction for pt in path.breakpoints for v in pt)

    def test_plateau_rejected(self):
        path = PLPath(
            ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(1)))
        )
        with pytest.raises(NonHausError, match=r"coordinate stays 0 on \[0, 1/2\]"):
            zero_times(path)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PLPath(((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(1))))
        with pytest.raises(ValueError):
            PLPath(((Fraction(0), Fraction(1)), (Fraction(0), Fraction(2)), (Fraction(1), Fraction(1))))


class TestEnumerateLifts:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_bounce_lift_count(self, k):
        cfg = SpaceConfig(k)
        lifts = enumerate_lifts(bounce_path(1), Regular(1), cfg)
        assert len(lifts) == k
        midpoints = [lift.point_at(Fraction(1, 2)) for lift in lifts]
        assert midpoints == [Origin(i) for i in range(1, k + 1)]  # lexicographic

    def test_no_zero_times_single_lift(self):
        path = PLPath(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))))
        for k in (2, 5):
            assert len(enumerate_lifts(path, Regular(1), SpaceConfig(k))) == 1

    def test_double_dip_against_oracle(self):
        cfg = SpaceConfig(2)
        path = double_dip_path()
        lifts = enumerate_lifts(path, Regular(Fraction(3, 16)), cfg)
        oracle = brute_force_lifts(path, Regular(Fraction(3, 16)), cfg)
        assert len(lifts) == 4
        assert [l.values for l in lifts] == [l.values for l in oracle]

    @pytest.mark.parametrize("k", [2, 3])
    def test_count_law_all_dip_paths(self, k):
        cfg = SpaceConfig(k)
        for path, m in [(bounce_path(1), 1), (double_dip_path(), 2), (triple_dip_path(), 3)]:
            start = Regular(path.breakpoints[0][1])
            lifts = enumerate_lifts(path, start, cfg)
            assert len(lifts) == k**m
            assert len(brute_force_lifts(path, start, cfg)) == k**m

    def test_start_mismatch(self):
        with pytest.raises(NonHausError, match="^start regular 2 does not project onto coordinate 1$"):
            enumerate_lifts(bounce_path(1), Regular(2), SpaceConfig(2))
        with pytest.raises(NonHausError, match="^start origin 1 does not project onto coordinate 1$"):
            enumerate_lifts(bounce_path(1), Origin(1), SpaceConfig(2))

    def test_zero_start_pins_first_choice(self):
        path = PLPath(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))
        cfg = SpaceConfig(3)
        lifts = enumerate_lifts(path, Origin(2), cfg)
        assert len(lifts) == 1
        assert lifts[0].values[0] == Origin(2)

    def test_lifts_distinct_at_zero_time(self):
        cfg = SpaceConfig(3)
        lifts = enumerate_lifts(bounce_path(1), Regular(1), cfg)
        seen = {lift.point_at(Fraction(1, 2)) for lift in lifts}
        assert len(seen) == len(lifts)

    def test_projection_exact_at_samples(self):
        from nonhaus.projection import project
        from nonhaus.embedding import BasePoint

        cfg = SpaceConfig(2)
        path = double_dip_path()
        for lift in enumerate_lifts(path, Regular(Fraction(3, 16)), cfg):
            pts = path.breakpoints
            for (t0, _), (t1, _) in zip(pts, pts[1:]):
                for j in range(1, 17):
                    t = t0 + (t1 - t0) * Fraction(j, 17)
                    assert project(lift.point_at(t)) == BasePoint(path.eval(t))

    @pytest.mark.parametrize("model", list(TopologyModel))
    def test_random_paths_against_oracle(self, model):
        rng = random.Random(4)
        seen = set()
        for _ in range(25):
            path = random_zero_path(rng)
            m = len(zero_times(path))
            # the oracle verifies k^m whole lifts; keep each case small
            cfg = SpaceConfig(rng.choice([k for k in (2, 3, 4) if k**m <= 256]), model)
            c0 = path.breakpoints[0][1]
            start = Origin(rng.randint(1, cfg.k)) if c0 == 0 else Regular(c0)
            lifts = enumerate_lifts(path, start, cfg)
            assert lifts == brute_force_lifts(path, start, cfg)
            assert all(verify_lift_continuity(lift, cfg).ok for lift in lifts)
            xs = [x for _, x in path.breakpoints]
            seen |= {m, cfg.k}
            seen |= {"zero start"} if c0 == 0 else set()
            seen |= {"touch" for a, b, c in zip(xs, xs[1:], xs[2:]) if b == 0 and a * c > 0}
            seen |= {"crossing" for a, b, c in zip(xs, xs[1:], xs[2:]) if b == 0 and a * c < 0}
        assert {"zero start", "touch", "crossing", 6, 2, 3, 4} <= seen

    def test_choices_not_checked(self, monkeypatch):
        # every candidate value passes the local rules by construction, so
        # enumeration runs neither the per-value check nor whole-lift verification
        calls = []
        check = lifting._breakpoint_fault
        monkeypatch.setattr(lifting, "_breakpoint_fault", lambda *a: calls.append(a) or check(*a))
        monkeypatch.setattr(lifting, "verify_lift_continuity", None)
        lifts = enumerate_lifts(triple_dip_path(), Regular(1), SpaceConfig(3))
        assert len(lifts) == 3**3
        assert calls == []


class TestContinuityVerdict:
    def test_bounce_lifts_verify(self):
        for model in TopologyModel:
            cfg = SpaceConfig(2, model)
            for x0 in (Fraction(1), Fraction(3, 2)):
                lifts = enumerate_lifts(bounce_path(x0), Regular(x0), cfg)
                for lift in lifts:
                    verdict = verify_lift_continuity(lift, cfg)
                    assert (verdict.ok, verdict.witness) == (True, None)

    @pytest.mark.parametrize(
        "tamper, witness",
        [
            # the start value over coordinate 1 replaced by the wrong point
            (lambda v: (Regular(2),) + v[1:],
             "projection mismatch at t=0: lift value regular 2 over coordinate 1"),
            (lambda v: v[:1] + (Origin(7),) + v[2:], "zero time t=1/2 does not carry a valid origin"),
            (lambda v: v[:-1], "value list does not match breakpoints"),
        ],
        ids=["regular-value", "origin-out-of-range", "value-count"],
    )
    def test_tampered_lift(self, tamper, witness):
        cfg = SpaceConfig(2)
        lift = enumerate_lifts(bounce_path(1), Regular(1), cfg)[0]
        verdict = verify_lift_continuity(LiftedPath(lift.base, tamper(lift.values)), cfg)
        assert (verdict.ok, verdict.witness) == (False, witness)

    def test_models_give_the_same_verdict(self):
        # the chart model reads no neighbour, so each verdict, valid or not, is the ball model's
        rng = random.Random(13)
        oks = Counter()
        for _ in range(300):
            path = random_zero_path(rng)
            k = rng.choice([k for k in (2, 3, 4) if k ** len(zero_times(path)) <= 64])
            c0 = path.breakpoints[0][1]
            start = Origin(rng.randint(1, k)) if c0 == 0 else Regular(c0)
            valid = rng.choice(enumerate_lifts(path, start, SpaceConfig(k))).values
            idx = rng.randrange(len(valid))
            wrong = rng.choice([Origin(rng.randint(1, k + 1)),
                                Regular(random_fraction(rng, 9, nonzero=True))])
            for values in (valid, valid[:idx] + (wrong,) + valid[idx + 1:]):
                lift = LiftedPath(path, values)
                quotient, pseudo = (verify_lift_continuity(lift, SpaceConfig(k, model))
                                    for model in TopologyModel)
                assert (quotient.ok, quotient.witness) == (pseudo.ok, pseudo.witness)
                oks[quotient.ok] += 1
        assert oks[True] > 300 and oks[False] > 100

    def test_plateau_propagates(self):
        path = PLPath(
            ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(1)))
        )
        lift = LiftedPath(path, (Origin(1), Origin(1), Regular(1)))
        with pytest.raises(NonHausError, match=r"coordinate stays 0 on \[0, 1/2\]"):
            verify_lift_continuity(lift, SpaceConfig(2))


class TestMonodromy:
    @pytest.mark.parametrize("k", [2, 5])
    def test_obstruction(self, k):
        cert = monodromy_verdict(1, SpaceConfig(k))
        assert len(cert.lifts) == k
        assert len({lift.start for lift in cert.lifts}) == 1
        assert recheck_monodromy(cert, k) == []

    def test_nonpositive_basepoint(self):
        with pytest.raises(NonHausError, match="basepoint must be positive, got 0"):
            monodromy_verdict(0, SpaceConfig(2))

    def test_recheck_catches_dropped_lift(self):
        import dataclasses

        cert = monodromy_verdict(1, SpaceConfig(3))
        bad = dataclasses.replace(cert, lifts=cert.lifts[:2])
        assert recheck_monodromy(bad, 3) != []


class TestMergingField:
    def test_key_values(self):
        field = make_merging_field()
        assert field.value_at(Fraction(1, 2), 0) == Fraction(-1, 16)
        assert field.value_at(0, Fraction(1, 2)) == Fraction(3, 16) + Fraction(1, 16)
        top_min = min(field.value_at(s, 1) for s in field.s_breaks)
        assert top_min == Fraction(1, 16)

    def test_bottom_edge_is_double_dip(self):
        assert make_merging_field().bottom_path() == double_dip_path()

    def test_all_zero_triangle_rejected(self):
        with pytest.raises(NonHausError, match="is identically zero"):
            HomotopyField(
                s_breaks=(Fraction(0), Fraction(1, 2), Fraction(1)),
                t_breaks=(Fraction(0), Fraction(1)),
                values=(
                    (Fraction(0), Fraction(0)),
                    (Fraction(0), Fraction(0)),
                    (Fraction(1), Fraction(1)),
                ),
            )


class TestZeroSet:
    def test_merging_field_complex(self):
        complex_ = extract_zero_set(make_merging_field())
        assert len(complex_.components) == 1
        comp = complex_.components[0]
        assert comp.bottom_touches == (Fraction(1, 4), Fraction(3, 4))
        endpoints = [e for i in comp.segments for e in
                     (complex_.segments[i].a, complex_.segments[i].b)]
        assert max(endpoints, key=lambda e: e[1]) == (Fraction(1, 2), Fraction(1, 2))

    def test_segments_satisfy_field_equation(self):
        field = make_merging_field()
        complex_ = extract_zero_set(field)
        for seg in complex_.segments:
            for s, t in (seg.a, seg.b):
                assert field.value_at(s, t) == 0

    def test_positive_field_empty_complex(self):
        field = HomotopyField(
            s_breaks=(Fraction(0), Fraction(1)),
            t_breaks=(Fraction(0), Fraction(1)),
            values=((Fraction(1), Fraction(2)), (Fraction(1), Fraction(1))),
        )
        complex_ = extract_zero_set(field)
        assert complex_.segments == ()
        assert complex_.components == ()

    def test_zero_edge_is_one_component(self):
        # an entire vertical grid line at zero: one component, one bottom touch
        field = HomotopyField(
            s_breaks=(Fraction(0), Fraction(1, 2), Fraction(1)),
            t_breaks=(Fraction(0), Fraction(1)),
            values=(
                (Fraction(1), Fraction(1)),
                (Fraction(0), Fraction(0)),
                (Fraction(-1), Fraction(-1)),
            ),
        )
        complex_ = extract_zero_set(field)
        assert len(complex_.components) == 1
        assert complex_.components[0].bottom_touches == (Fraction(1, 2),)
        ends = {
            e
            for i in complex_.components[0].segments
            for e in (complex_.segments[i].a, complex_.segments[i].b)
        }
        assert (Fraction(1, 2), Fraction(0)) in ends
        assert (Fraction(1, 2), Fraction(1)) in ends

    def test_interior_crossing_matches_normalized_bottom(self):
        # the bottom edge changes sign inside a cell; the inserted breakpoint
        # and the extracted zero endpoint are the same exact rational
        field = HomotopyField(
            s_breaks=(Fraction(0), Fraction(1)),
            t_breaks=(Fraction(0), Fraction(1)),
            values=((Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1))),
        )
        assert zero_times(field.bottom_path()) == [Fraction(1, 2)]
        complex_ = extract_zero_set(field)
        assert len(complex_.components) == 1
        assert complex_.components[0].bottom_touches == (Fraction(1, 2),)

    def test_isolated_touch_point(self):
        field = HomotopyField(
            s_breaks=(Fraction(0), Fraction(1, 2), Fraction(1)),
            t_breaks=(Fraction(0), Fraction(1)),
            values=(
                (Fraction(1), Fraction(1)),
                (Fraction(0), Fraction(1)),
                (Fraction(1), Fraction(1)),
            ),
        )
        complex_ = extract_zero_set(field)
        assert len(complex_.components) == 1
        comp = complex_.components[0]
        assert comp.bottom_touches == (Fraction(1, 2),)
        for i in comp.segments:
            assert complex_.segments[i].a == complex_.segments[i].b


class TestValueAt:
    def test_every_break_pair_is_the_vertex_value(self):
        rng = random.Random(7)
        for _ in range(20):
            field = random_field(rng, style="signs")
            for a, s in enumerate(field.s_breaks):
                for b, t in enumerate(field.t_breaks):
                    assert field.value_at(s, t) == field.values[a][b]

    def test_off_grid(self):
        field = make_merging_field()
        for s, t in ((Fraction(-1, 8), 0), (0, Fraction(9, 8))):
            with pytest.raises(ValueError, match="outside the grid"):
                field.value_at(s, t)


def random_breaks(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    den = rng.choice((5, 7, 12, 24))
    inner = sorted(rng.sample(range(1, den), count - 2))
    return (Fraction(0),) + tuple(Fraction(i, den) for i in inner) + (Fraction(1),)


FIELD_STYLES = ("zeros", "signs", "well", "one-sign")


def random_field(rng: random.Random, style: str = ""):
    """A small field, or the plateau message when the draw has an all-zero triangle.

    Styles: "zeros" puts a zero at about 40% of the vertices, "signs" draws
    nonzero values of either sign, "well" is positive but for one interior
    negative vertex, and "one-sign" has no zero set.
    """
    style = style or rng.choice(FIELD_STYLES)
    ns, nt = rng.randint(2, 6), rng.randint(2, 6)
    if style == "well":
        ns, nt = max(ns, 3), max(nt, 3)
    s_breaks, t_breaks = random_breaks(rng, ns), random_breaks(rng, nt)

    def value(sign: int) -> Fraction:
        return sign * Fraction(rng.randint(1, 3), rng.randint(1, 3))

    if style == "zeros":
        values = [[Fraction(0) if rng.random() < 0.4 else value(rng.choice((1, -1)))
                   for _ in range(nt)] for _ in range(ns)]
    elif style == "signs":
        values = [[value(rng.choice((1, -1))) for _ in range(nt)] for _ in range(ns)]
    else:
        sign = rng.choice((1, -1))
        values = [[value(sign) for _ in range(nt)] for _ in range(ns)]
        if style == "well":
            values[rng.randint(1, ns - 2)][rng.randint(1, nt - 2)] = value(-sign)
    plateau = reference_plateau(s_breaks, t_breaks, values)
    if plateau is not None:
        with pytest.raises(NonHausError, match="is identically zero") as exc:
            HomotopyField(s_breaks, t_breaks, tuple(map(tuple, values)))
        assert str(exc.value) == plateau
        return plateau
    return HomotopyField(s_breaks, t_breaks, tuple(map(tuple, values)))


def field_cases(field: HomotopyField) -> set[str]:
    """Which zero-set situations a field contains, read off its vertex values."""
    vals = field.values
    ns, nt = len(vals), len(vals[0])
    cases = set()
    if any(v == 0 for row in vals for v in row):
        cases.add("zero vertex")
    if any(row[0] == 0 for row in vals):
        cases.add("zero vertex on the bottom edge")
    for tri in reference_triangles(field.s_breaks, field.t_breaks, vals):
        signs = [(v > 0) - (v < 0) for _, v in tri]
        nonzero = [g for g in signs if g]
        if len(nonzero) == 1:
            cases.add("two-zero edge")
        elif len(nonzero) == 2:
            cases.add("single touch point" if nonzero[0] == nonzero[1]
                      else "crossing through a vertex")
    for a in range(ns - 1):
        for b in range(nt - 1):
            v00, v01, v10, v11 = vals[a][b], vals[a][b + 1], vals[a + 1][b], vals[a + 1][b + 1]
            if v00 * v11 > 0 and v01 * v10 > 0 and v00 * v01 < 0:
                cases.add("saddle")
    neighbours = ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, 1))
    for a in range(1, ns - 1):
        for b in range(1, nt - 1):
            if all(vals[a][b] * vals[a + da][b + db] < 0 for da, db in neighbours):
                cases.add("closed well")
    if all(v > 0 for row in vals for v in row) or all(v < 0 for row in vals for v in row):
        cases.add("no zero set")
    return cases


FIELD_CASES = {
    "zero vertex", "zero vertex on the bottom edge", "two-zero edge", "single touch point",
    "crossing through a vertex", "saddle", "closed well", "no zero set", "plateau",
}


def lift_outcome(field: HomotopyField, assignment: dict, cfg: SpaceConfig, constancy: bool):
    try:
        return attempt_homotopy_lift(field, assignment, cfg, constancy)
    except NonHausError as exc:
        return type(exc), str(exc)


def random_assignment(rng: random.Random, field: HomotopyField, k: int = 3) -> dict:
    """A random origin for each zero time of the bottom edge (none on a zero plateau)."""
    try:
        times = zero_times(field.bottom_path())
    except NonHausError:
        times = []
    return {t: rng.randint(1, k) for t in times}


def assert_matches_reference(field: HomotopyField, rng: random.Random,
                             monkeypatch) -> ZeroSetComplex:
    """extract_zero_set equals the oracle's complex, and every lifting outcome
    is the one computed from the oracle's complex."""
    complex_ = extract_zero_set(field)
    assert complex_ == reference_zero_set(field)
    assignment = random_assignment(rng, field)
    for model in TopologyModel:
        for constancy in (False, True):
            cfg = SpaceConfig(3, model)
            got = lift_outcome(field, assignment, cfg, constancy)
            with monkeypatch.context() as m:
                m.setattr(lifting, "_zero_pass", lambda f: (None, reference_zero_set(f).components))
                want = lift_outcome(field, assignment, cfg, constancy)
            assert got == want
    return complex_


def test_zero_set_matches_reference_engine(monkeypatch):
    """extract_zero_set against the Fraction-comparison oracle, and the lifting
    outcomes computed from either, on seeded small fields."""
    rng = random.Random(6)
    seen: Counter = Counter()
    for _ in range(300):
        field = random_field(rng)
        if isinstance(field, str):
            seen["plateau"] += 1
            continue
        seen.update(field_cases(field))
        assert_matches_reference(field, rng, monkeypatch)
    assert FIELD_CASES <= set(seen), FIELD_CASES - set(seen)


def large_rational(rng: random.Random) -> Fraction:
    """A nonzero value of either sign with coprime numerator and denominator of 13-40 digits."""
    while True:
        num, den = rng.randint(10**12, 10**40), rng.randint(10**12, 10**40)
        if math.gcd(num, den) == 1:
            return Fraction(rng.choice((1, -1)) * num, den)


def test_zero_set_matches_reference_engine_on_large_rationals(monkeypatch):
    """Crossing points from integer cross-products against the oracle's
    Fraction arithmetic, with large coprime values and breaks of large
    denominators; a zero at some vertices puts crossings through vertices too."""
    rng = random.Random(11)
    crossings = 0
    for _ in range(120):
        ns, nt = rng.randint(2, 6), rng.randint(2, 6)
        s_breaks, t_breaks = (
            (Fraction(0),) + tuple(Fraction(i, den) for i in sorted(rng.sample(range(1, den), n - 2)))
            + (Fraction(1),)
            for n, den in ((ns, rng.randint(10**9, 10**15)), (nt, rng.randint(10**9, 10**15)))
        )
        values = [[Fraction(0) if rng.random() < 0.1 else large_rational(rng) for _ in range(nt)]
                  for _ in range(ns)]
        if reference_plateau(s_breaks, t_breaks, values) is not None:
            continue
        field = HomotopyField(s_breaks, t_breaks, tuple(map(tuple, values)))
        complex_ = assert_matches_reference(field, rng, monkeypatch)
        crossings += sum(1 for seg in complex_.segments for p in (seg.a, seg.b)
                         if p[0] not in s_breaks or p[1] not in t_breaks)
    assert crossings > 1000


# The cell's lower then upper triangle, corner offsets in reading order.
_TRIANGLES = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))


@pytest.mark.parametrize("corners", _TRIANGLES, ids=["lower", "upper"])
def test_triangle_table_matches_reference(corners):
    """Every nonzero sign triple, on either triangle of a cell: the table's
    endpoint positions give the oracle's segment, endpoints in its order."""
    assert len(lifting._TRIANGLE_ENDS) == 26
    for signs in itertools.product((-1, 0, 1), repeat=3):
        if not any(signs):
            continue
        # distinct magnitudes, so a crossing is not an edge midpoint
        tri = tuple(((Fraction(da), Fraction(db)), Fraction(g * (i + 2), i + 1))
                    for i, ((da, db), g) in enumerate(zip(corners, signs)))
        rule = lifting._TRIANGLE_ENDS[signs]
        want = _triangle_zero_segment(tri)
        got = rule and ZeroSegment(*(tri[i][0] if i == j else _edge_zero(*tri[i], *tri[j])
                                     for i, j in rule))
        assert got == want, signs


def test_one_cell_fields_match_reference():
    """Every sign pattern of one cell that is not a plateau, through the whole engine."""
    for cell in itertools.product((-1, 0, 1), repeat=4):
        values = ((Fraction(cell[0], 3), Fraction(cell[1] * 2)),
                  (Fraction(cell[2]), Fraction(cell[3], 5)))
        if reference_plateau((0, 1), (0, 1), values) is None:
            field = HomotopyField((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)), values)
            assert extract_zero_set(field) == reference_zero_set(field), cell


# What planted_fields plants: a zero vertex on or off the bottom row, a sign
# change along an s-edge (a, b)-(a+1, b), a t-edge (a, b)-(a, b+1) or a diagonal
# (a, b)-(a+1, b+1), or an interior well, a vertex whose six neighbours all
# have the other sign.
FEATURES = ("bottom-zero", "inner-zero", "s-edge", "t-edge", "diagonal", "well")
_VALUES = st.sampled_from([0, 0, 1, -1, 2, -3]) | st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def planted_fields(draw, feature: str) -> tuple[HomotopyField, set[int]]:
    """A small field of ints and Fractions with the feature planted, and the
    endpoint names the feature puts in the zero set."""
    ns, nt = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    n = ns * nt
    values = [[draw(_VALUES) for _ in range(nt)] for _ in range(ns)]
    a, b = draw(st.integers(0, ns - 2)), draw(st.integers(0, nt - 2))
    g = draw(st.sampled_from((1, -1)))
    magnitude = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
    if feature.endswith("zero"):
        b = 0 if feature == "bottom-zero" else b + 1
        values[a][b] = 0
        names = {a * nt + b}
    elif feature == "well":
        a, b = draw(st.integers(1, ns - 2)), draw(st.integers(1, nt - 2))
        ring = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
        values[a][b] = -g * draw(magnitude)
        for da, db in ring:
            values[a + da][b + db] = g * draw(magnitude)
        v = a * nt + b
        names = {lifting._edge_name(n, v, v + da * nt + db) for da, db in ring}
    else:
        da, db = {"s-edge": (1, 0), "t-edge": (0, 1), "diagonal": (1, 1)}[feature]
        values[a][b], values[a + da][b + db] = g * draw(magnitude), -g * draw(magnitude)
        names = {lifting._edge_name(n, a * nt + b, (a + da) * nt + b + db)}
    s_breaks, t_breaks = (
        (Fraction(0),) + tuple(Fraction(i, den) for i in sorted(draw(st.lists(
            st.integers(1, den - 1), min_size=count - 2, max_size=count - 2, unique=True))))
        + (Fraction(1),)
        for count, den in ((ns, draw(st.sampled_from((7, 12, 24)))),
                           (nt, draw(st.sampled_from((7, 12, 24))))))
    assume(reference_plateau(s_breaks, t_breaks, values) is None)
    return HomotopyField(s_breaks, t_breaks, tuple(map(tuple, values))), names


@pytest.mark.parametrize("feature", FEATURES)
@given(data=st.data())
def test_name_pass_matches_both_engines(feature, data):
    """The name-level components of the lifting verdict are extract_zero_set's
    and the oracle's, index for index; the planted feature is in the zero set."""
    field, names = data.draw(planted_fields(feature))
    ends, components = lifting._zero_pass(field)
    assert components == extract_zero_set(field).components
    # the oracle divides values, so it reads them as Fractions
    exact = HomotopyField(field.s_breaks, field.t_breaks,
                          tuple(tuple(map(Fraction, row)) for row in field.values))
    assert components == reference_zero_set(exact).components
    found = {name for end in ends for name in end}
    assert names <= found
    if feature == "well":  # a closed loop of its own, off the bottom edge
        comp = next(c for c in components if set(ends[c.segments[0]]) & names)
        assert {name for idx in comp.segments for name in ends[idx]} == names
        assert comp.bottom_touches == ()


@given(data=st.data())
def test_read_field_equals_built_field(data):
    """A field built from rows of ints and Fractions equals, and hashes as, the
    field read back from its text, and each gives the reference engine's
    zero set and lifting outcomes."""
    field, _ = data.draw(planted_fields(data.draw(st.sampled_from(FEATURES))))
    read = serialize.read_field(serialize.write_field(field))
    assert read == field and hash(read) == hash(field)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for f in (field, read):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_matches_reference(f, rng, monkeypatch)


def test_package_uses_no_private_fraction_api():
    """Fractions are read through their public attributes only, which every
    supported Python keeps; the private slots and constructors may change."""
    for path in Path(lifting.__file__).parent.glob("*.py"):
        text = path.read_text()
        for name in ("_numerator", "_denominator", "_normalize", "_from_coprime_ints"):
            assert name not in text, f"{path.name} names {name}"


def test_constancy_flag_has_no_effect_in_quotient_model():
    """The quotient model decides by its chart rule, with or without the flag."""
    rng = random.Random(9)
    dips = HomotopyField(  # two bottom dips: zero times 1/8, 3/8, 5/8 and 7/8
        s_breaks=tuple(Fraction(i, 4) for i in range(5)),
        t_breaks=(Fraction(0), Fraction(1)),
        values=tuple((Fraction(v), Fraction(3)) for v in (1, -1, 1, -1, 1)),
    )
    mixed = {Fraction(1, 8): 1, Fraction(3, 8): 1, Fraction(5, 8): 2, Fraction(7, 8): 2}
    quotient2 = SpaceConfig(2, TopologyModel.QUOTIENT)
    assert isinstance(attempt_homotopy_lift(dips, mixed, SpaceConfig(2, TopologyModel.PSEUDOMETRIC),
                                            True), NoLift)
    for constancy in (False, True):
        result = attempt_homotopy_lift(dips, mixed, quotient2, constancy)
        assert result.assignments == (((0, 1), (1, 2)),)
    fields = [dips, make_merging_field()] + [random_field(rng) for _ in range(200)]
    for field in (f for f in fields if not isinstance(f, str)):
        for k in (2, 3):
            cfg = SpaceConfig(k, TopologyModel.QUOTIENT)
            assignment = random_assignment(rng, field, k)
            assert lift_outcome(field, assignment, cfg, True) == \
                lift_outcome(field, assignment, cfg, False)


class TestAttemptHomotopyLift:
    def setup_method(self):
        self.field = make_merging_field()
        self.conflict = {Fraction(1, 4): 1, Fraction(3, 4): 2}
        self.consistent = {Fraction(1, 4): 1, Fraction(3, 4): 1}

    def test_quotient_conflict(self, quotient2):
        result = attempt_homotopy_lift(self.field, self.conflict, quotient2)
        assert isinstance(result, NoLift)
        assert result.component == 0
        assert result.constraints == ((Fraction(1, 4), 1), (Fraction(3, 4), 2))

    def test_side_exit_and_interior_crossing(self, quotient2):
        # zero arc from the bottom crossing out through a side edge: the
        # single bottom constraint is always satisfiable
        field = HomotopyField(
            s_breaks=(Fraction(0), Fraction(1)),
            t_breaks=(Fraction(0), Fraction(1)),
            values=((Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1))),
        )
        result = attempt_homotopy_lift(field, {Fraction(1, 2): 2}, quotient2)
        assert isinstance(result, LiftsEnumerated)
        assert result.assignments == (((0, 2),),)

    def test_quotient_consistent(self, quotient2):
        result = attempt_homotopy_lift(self.field, self.consistent, quotient2)
        assert isinstance(result, LiftsEnumerated)
        assert result.assignments == (((0, 1),),)

    def test_pseudometric_free(self, pseudo2):
        result = attempt_homotopy_lift(self.field, self.conflict, pseudo2)
        assert isinstance(result, NonUniqueExistence)
        assert result.component_count == 1

    def test_pseudometric_constancy_rule(self, pseudo2):
        result = attempt_homotopy_lift(self.field, self.conflict, pseudo2, paper_constancy=True)
        assert isinstance(result, NoLift)
        assert result.component is None

    def test_constancy_rule_constant_assignment(self, pseudo2):
        result = attempt_homotopy_lift(self.field, self.consistent, pseudo2, paper_constancy=True)
        assert isinstance(result, LiftsEnumerated)
        assert result.assignments == (((0, 1),),)

    def test_assignment_domain_mismatch(self, quotient2):
        with pytest.raises(NonHausError, match=r"domain \[1/4\] != zero times \[1/4, 3/4\]$"):
            attempt_homotopy_lift(self.field, {Fraction(1, 4): 1}, quotient2)

    def test_component_oracle_confirms_conflict(self, quotient2):
        # independent oracle: try every component assignment against the
        # boundary constraints, one constraint per touched zero time
        complex_ = extract_zero_set(self.field)
        k = quotient2.k

        def satisfying(assignment):
            out = []
            import itertools

            for combo in itertools.product(range(1, k + 1), repeat=len(complex_.components)):
                ok = all(
                    combo[comp.index] == assignment[s]
                    for comp in complex_.components
                    for s in comp.bottom_touches
                )
                if ok:
                    out.append(combo)
            return out

        assert satisfying(self.conflict) == []
        assert satisfying(self.consistent) == [(1,)]

    def test_free_component_enumeration(self, quotient2):
        # a strictly interior zero arc has no boundary constraint: k choices
        field = HomotopyField(
            s_breaks=(Fraction(0), Fraction(1, 2), Fraction(1)),
            t_breaks=(Fraction(0), Fraction(1, 2), Fraction(1)),
            values=(
                (Fraction(1), Fraction(1), Fraction(1)),
                (Fraction(1), Fraction(-1), Fraction(1)),
                (Fraction(1), Fraction(1), Fraction(1)),
            ),
        )
        result = attempt_homotopy_lift(field, {}, quotient2)
        assert isinstance(result, LiftsEnumerated)
        comp_count = len(extract_zero_set(field).components)
        assert comp_count == 1
        assert len(result.assignments) == quotient2.k

    @staticmethod
    def grid_field(rows: list[list[int]]) -> HomotopyField:
        """Field on the uniform grid; rows[a][b] is the value at (a/(ns-1), b/(nt-1))."""
        ns, nt = len(rows), len(rows[0])
        return HomotopyField(
            s_breaks=tuple(Fraction(a, ns - 1) for a in range(ns)),
            t_breaks=tuple(Fraction(b, nt - 1) for b in range(nt)),
            values=tuple(tuple(Fraction(v) for v in row) for row in rows),
        )

    def test_constancy_rule_single_origin_names_every_component(self):
        # a bottom dip at s = 1/4 (crossings 1/8, 3/8) and an interior well at (3/4, 1/2)
        field = self.grid_field([[1, 1, 1], [-1, 1, 1], [1, 1, 1], [1, -1, 1], [1, 1, 1]])
        assert len(extract_zero_set(field).components) == 2
        assignment = {Fraction(1, 8): 2, Fraction(3, 8): 2}
        cfg = SpaceConfig(3, TopologyModel.PSEUDOMETRIC)
        result = attempt_homotopy_lift(field, assignment, cfg, paper_constancy=True)
        assert isinstance(result, LiftsEnumerated)
        assert result.assignments == (((0, 2), (1, 2)),)
        conflict = attempt_homotopy_lift(
            field, {Fraction(1, 8): 2, Fraction(3, 8): 3}, cfg, paper_constancy=True
        )
        assert isinstance(conflict, NoLift)
        assert conflict.component is None
        assert conflict.constraints == ((Fraction(1, 8), 2), (Fraction(3, 8), 3))

    def test_constancy_rule_empty_assignment(self):
        cfg = SpaceConfig(3, TopologyModel.PSEUDOMETRIC)
        # two interior wells, no bottom zero times: one assignment per origin
        wells = self.grid_field([[1, 1, 1], [1, -1, 1], [1, 1, 1], [1, -1, 1], [1, 1, 1]])
        result = attempt_homotopy_lift(wells, {}, cfg, paper_constancy=True)
        assert result.assignments == tuple(((0, i), (1, i)) for i in (1, 2, 3))
        # no zero set at all: the single empty assignment
        positive = self.grid_field([[1, 2], [3, 1]])
        result = attempt_homotopy_lift(positive, {}, cfg, paper_constancy=True)
        assert result.assignments == ((),)
        quotient = attempt_homotopy_lift(positive, {}, SpaceConfig(3, TopologyModel.QUOTIENT))
        assert quotient.assignments == ((),)

    def test_limit_refused_before_any_origin_list(self):
        # two interior wells on a 7x7 grid: 200000^2 assignments, refused without
        # building a list of 200000 origin choices for either well
        rows = [[1] * 7 for _ in range(7)]
        rows[2][3] = rows[4][3] = -1
        wells = self.grid_field(rows)
        tracemalloc.start()
        try:
            with pytest.raises(NonHausError) as refused:
                attempt_homotopy_lift(wells, {}, SpaceConfig(200000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == "200000^2 assignments exceed the limit of 4096"
        assert peak < 1 << 20

    def test_conflict_wins_over_the_limit(self):
        # a bottom dip (crossings 1/8, 3/8) and an interior well that is free at any k
        field = self.grid_field([[1, 1, 1], [-1, 1, 1], [1, 1, 1], [1, -1, 1], [1, 1, 1]])
        cfg = SpaceConfig(200000)
        conflict = attempt_homotopy_lift(field, {Fraction(1, 8): 1, Fraction(3, 8): 2}, cfg)
        assert isinstance(conflict, NoLift)
        with pytest.raises(NonHausError, match=r"^200000\^1 assignments exceed the limit of 4096$"):
            attempt_homotopy_lift(field, {Fraction(1, 8): 1, Fraction(3, 8): 1}, cfg)

    def test_quotient_two_free_components_lexicographic(self):
        cfg = SpaceConfig(3, TopologyModel.QUOTIENT)
        wells = self.grid_field([[1, 1, 1], [1, -1, 1], [1, 1, 1], [1, -1, 1], [1, 1, 1]])
        result = attempt_homotopy_lift(wells, {}, cfg)
        assert result.assignments == tuple(
            ((0, a), (1, b)) for a in (1, 2, 3) for b in (1, 2, 3)
        )

    def test_record_recheck(self, quotient2, pseudo2):
        for cfg, constancy in ((quotient2, False), (pseudo2, False), (pseudo2, True)):
            record = homotopy_lift_record(self.field, self.conflict, cfg, constancy)
            assert recheck_homotopy_record(record, self.field, cfg.k) == []

    def test_record_recheck_catches_tampering(self, quotient2):
        import dataclasses

        record = homotopy_lift_record(self.field, self.consistent, quotient2, False)
        bad = dataclasses.replace(
            record, result=LiftsEnumerated(assignments=(((0, 2),),))
        )
        assert recheck_homotopy_record(bad, self.field, quotient2.k) == [
            "recomputed lifting outcome differs from the recorded one"]

    def test_record_names_its_field_by_digest(self, quotient2):
        """The digest is sha256 of the field's dump; a record of another field's
        digest, or of a digest that is not 64 hex digits, fails its re-check
        with one line, even when its outcome is the other field's too."""
        import dataclasses
        import hashlib

        record = homotopy_lift_record(self.field, self.consistent, quotient2, False)
        dump = serialize.write_field(self.field).encode()
        assert record.field_sha256 == hashlib.sha256(dump).hexdigest()
        # the same bottom edge, so the same outcome, on a field of other values
        other = HomotopyField(self.field.s_breaks, self.field.t_breaks,
                              tuple(tuple(v + v * t for v, t in zip(self.field.values[a],
                                                                     self.field.t_breaks))
                                    for a in range(len(self.field.s_breaks))))
        assert other != self.field
        assert attempt_homotopy_lift(other, self.consistent, quotient2) == record.result
        assert recheck_homotopy_record(record, other, quotient2.k) == [
            f"field_sha256 {record.field_sha256!r} is not the field's {dump_sha256(other)}"]
        for digest in (dump_sha256(other), "", "0" * 63, "g" * 64, record.field_sha256.upper()):
            bad = dataclasses.replace(record, field_sha256=digest)
            assert recheck_homotopy_record(bad, self.field, quotient2.k) == [
                f"field_sha256 {digest!r} is not the field's {record.field_sha256}"]

    def test_record_of_read_bytes_rechecks_against_them(self, quotient2):
        """A record of a field read from CRLF lines in other spellings names those
        bytes: given them, its re-check passes; the digest of other bytes, or bytes
        of another field or of none, still fail it with one line."""
        import hashlib

        dump = serialize.write_field(self.field).encode()
        crlf = dump.replace(b"1/4", b"2/8").replace(b"\n", b"\r\n")
        field = serialize.read_field_bytes(crlf)
        assert field == self.field and crlf != dump
        digest = hashlib.sha256(crlf).hexdigest()
        record = homotopy_lift_record(field, self.consistent, quotient2, False, digest)
        assert recheck_homotopy_record(record, field, quotient2.k, crlf) == []
        assert recheck_homotopy_record(record, field, quotient2.k) == [
            f"field_sha256 {digest!r} is not the field's {dump_sha256(field)}"]
        assert recheck_homotopy_record(record, field, quotient2.k, dump) == [
            f"field_sha256 {digest!r} is not the field's {hashlib.sha256(dump).hexdigest()}"]
        other = crlf.replace(b"-1", b"-2")
        assert serialize.read_field_bytes(other) != field
        named = homotopy_lift_record(field, self.consistent, quotient2, False,
                                     hashlib.sha256(other).hexdigest())
        assert recheck_homotopy_record(named, field, quotient2.k, other) == [
            "the field read from the source bytes is not the field given"]
        assert recheck_homotopy_record(record, field, quotient2.k, b"plfield v2\n") == [
            "source bytes are not a field: expected header 'plfield v1'"]
