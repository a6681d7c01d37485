import math
import random
from bisect import bisect_left
from fractions import Fraction

import pytest

from conftest import double_dip_path, reference_thick_audit, triple_dip_path
from nonhaus import thickened
from nonhaus.embedding import EmbeddingSpec, spiral_point
from nonhaus.errors import NonHausError
from nonhaus.lifting import LiftedPath, PLPath, bounce_path
from nonhaus.space import Origin, Regular, SpaceConfig
from nonhaus.thickened import (
    ThickPoint,
    thick_audit,
    thick_fibre_z,
    thick_lift_count,
    thick_project,
)

REL = 1e-9  # relative norm tolerance of the float images


def close(p, q, tol=REL):
    return math.hypot(p[0] - q[0], p[1] - q[1]) <= tol


def grid_rows(grid_n):
    """The radii of an N-grid's rows and each row's need (1 - r)/r, as thick_audit has them."""
    radii = [a / (grid_n - 1) for a in range(1, grid_n)]
    return radii, [(1 - r) / r for r in radii]


class TestThickPoint:
    def test_boundary_gluing(self):
        assert ThickPoint(Origin(3), 1) == ThickPoint(Origin(1), 1)
        assert ThickPoint(Origin(3), Fraction(1, 2)) != ThickPoint(Origin(1), Fraction(1, 2))

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            ThickPoint(Origin(1), 2)


class TestThickProject:
    def test_inner_end_matches_curve(self):
        # t = 0 reduces to the curve embedding, within float error
        img = thick_project(ThickPoint(Regular(1), 0))
        assert close(img, (0.5, 0.5), 1e-12)

    def test_outer_end_on_boundary(self):
        img = thick_project(ThickPoint(Regular(1), 1))
        assert close(img, (math.sqrt(2) / 2, math.sqrt(2) / 2))
        assert abs(math.hypot(*img) - 1) <= REL

    def test_origin_ray_convention(self):
        assert thick_project(ThickPoint(Origin(2), Fraction(1, 2))) == (0.5, 0.0)

    def test_boundary_norms(self):
        for x in (Fraction(1, 3), Fraction(-2), Fraction(7, 2)):
            img = thick_project(ThickPoint(Regular(x), 1))
            assert abs(math.hypot(*img) - 1) <= REL


class TestThickFibre:
    @pytest.mark.parametrize("k", [2, 3])
    def test_fibre(self, k):
        fibre = thick_fibre_z(k)
        assert fibre == frozenset(ThickPoint(Origin(i), 0) for i in range(1, k + 1))
        for p in fibre:
            assert thick_project(p) == (0.0, 0.0)

    def test_k_validated(self):
        with pytest.raises(NonHausError, match="need at least 2 origins, got k=1"):
            thick_fibre_z(1)


class TestSliceLifts:
    def test_counts_match_base(self):
        cases = [
            (bounce_path(1), 3, Fraction(0), 3),
            (double_dip_path(), 2, Fraction(1, 4), 4),
            (triple_dip_path(), 2, Fraction(1, 2), 8),
        ]
        for path, k, t, expected in cases:
            assert thick_lift_count(path, t, SpaceConfig(k)) == expected

    def test_no_zero_path(self):
        path = PLPath(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))))
        assert thick_lift_count(path, Fraction(1, 2), SpaceConfig(5)) == 1

    def test_count_builds_no_lift(self, monkeypatch):
        def built(*args):
            raise AssertionError("a lift was built")

        monkeypatch.setattr(LiftedPath, "__init__", built)
        assert thick_lift_count(triple_dip_path(), Fraction(1, 2), SpaceConfig(16)) == 16**3

    def test_slice_parameter_validated(self):
        with pytest.raises(ValueError):
            thick_lift_count(bounce_path(1), 1, SpaceConfig(2))


class TestThickAudit:
    def test_main_curve_coverage_gap(self):
        report = thick_audit(32, EmbeddingSpec.MAIN_CURVE)
        assert report.coverage < 1
        w = report.lower_half_witness
        assert w is not None and w.v < 0
        assert abs(w.u) < 0.1 and -0.7 < w.v < -0.3

    def test_spiral_coverage(self):
        report = thick_audit(32, EmbeddingSpec.SPIRAL)
        assert report.coverage >= 0.95

    def test_discontinuity_probe(self):
        report = thick_audit(32, EmbeddingSpec.MAIN_CURVE)
        probe = report.probes[0]
        assert probe.origin == 1 and probe.t == Fraction(1, 2)
        gap = math.hypot(
            probe.limit_pos[0] - probe.limit_neg[0],
            probe.limit_pos[1] - probe.limit_neg[1],
        )
        assert gap > 0.5
        assert probe.discontinuous

    def test_spiral_probe_oscillates(self):
        report = thick_audit(32, EmbeddingSpec.SPIRAL)
        assert report.probes[0].oscillates
        assert report.probes[0].discontinuous

    def test_grid_too_coarse(self):
        with pytest.raises(NonHausError, match="grid must be at least 8x8, got 4"):
            thick_audit(4, EmbeddingSpec.MAIN_CURVE)

    def test_determinism(self):
        a = thick_audit(16, EmbeddingSpec.SPIRAL)
        b = thick_audit(16, EmbeddingSpec.SPIRAL)
        assert a == b

    def test_verdict_rows(self):
        main = {r.claim: r.holds for r in thick_audit(32, EmbeddingSpec.MAIN_CURVE).rows}
        spiral = {r.claim: r.holds for r in thick_audit(32, EmbeddingSpec.SPIRAL).rows}
        assert not main["sweep map covers the sampled disk grid"]
        assert spiral["sweep map covers the sampled disk grid"]
        assert not main["sweep map is continuous at the origin tubes"]
        assert not spiral["sweep map is continuous at the origin tubes"]


class TestColumnKernels:
    """thick_audit against the row-major oracle, whole report compared."""

    GRIDS = list(range(8, 65)) + [97, 128, 255]

    # 0 and 1e-16 lie below every run's bound (at least 128 * 2^-53), so each point takes
    # the per-point check; on these grids every bound is below 1e-12, so from there up
    # the bound decides every run.  1e-12 and 1e-11 lie below _SPIRAL_RUN_BOUND, so there
    # each spiral run still goes to _cover_run and is covered whole by its own bound.
    @pytest.mark.parametrize("tolerance", [0.0, 1e-16, 1e-12, 1e-11, 1e-9, 1e-6, 1e-3, 1.0])
    @pytest.mark.parametrize("spec", list(EmbeddingSpec), ids=lambda s: s.value)
    def test_matches_reference(self, spec, tolerance):
        for grid_n in self.GRIDS:
            got = thick_audit(grid_n, spec, tolerance)
            assert got == reference_thick_audit(grid_n, spec, tolerance), grid_n

    # The goldens thick-{main,spiral}-n256, thick-spiral-n512 and thick-main-n768
    # pin those runs at the default 1e-6; the oracle takes the other benchmark runs.
    BENCHMARK_RUNS = [(n, spec, 0.0) for n in (256, 512, 768) for spec in EmbeddingSpec] + [
        (512, EmbeddingSpec.MAIN_CURVE, 1e-6), (768, EmbeddingSpec.SPIRAL, 1e-6)]

    @pytest.mark.parametrize("grid_n, spec, tolerance", BENCHMARK_RUNS,
                             ids=lambda x: getattr(x, "value", x))
    def test_matches_reference_at_benchmark_grids(self, grid_n, spec, tolerance):
        assert thick_audit(grid_n, spec, tolerance) == reference_thick_audit(grid_n, spec, tolerance)

    def test_spiral_point_reused_down_columns(self, monkeypatch):
        calls = 0

        def counting(x):
            nonlocal calls
            calls += 1
            return spiral_point(x)

        monkeypatch.setattr(thickened, "spiral_point", counting)
        n = 256
        thick_audit(n, EmbeddingSpec.SPIRAL)
        assert 0 < calls < n * (n - 1) / 4


class TestRunBound:
    """The bound of a run is at least every float distance of its per-point check, and
    ``_SPIRAL_RUN_BOUND`` is at least the bound of every spiral run."""

    @staticmethod
    def column_runs(monkeypatch, grid_n, spec, columns=None):
        """Every run of every column b of the grid, or of ``columns``, with its (lo, hi, x,
        rho): the main curve's from ``_cover_run`` as ``_main_column`` calls it, the
        spiral's from ``_spiral_runs`` directly, as ``thick_audit`` walks a spiral column
        only when its screen names it."""
        radii, needs = grid_rows(grid_n)
        runs = []
        cover_run = thickened._cover_run

        def recording(radii, lo, hi, spec, x, rho, cos, sin, tolerance):
            runs.append((radii, lo, hi, spec, x, rho, cos, sin))
            return cover_run(radii, lo, hi, spec, x, rho, cos, sin, tolerance)

        with monkeypatch.context() as m:
            m.setattr(thickened, "_cover_run", recording)
            for b in range(grid_n) if columns is None else columns:
                theta = 2 * math.pi * b / grid_n
                cos, sin = math.cos(theta), math.sin(theta)
                if spec is EmbeddingSpec.MAIN_CURVE:
                    thickened._main_column(radii, theta, cos, sin, 1e-6)
                else:
                    runs.extend((radii, lo, hi, spec, x, rho, cos, sin)
                                for lo, hi, x, rho in thickened._spiral_runs(needs, theta))
        return runs

    @staticmethod
    def check_runs(runs):
        assert runs
        for radii, lo, hi, spec, x, rho, cos, sin in runs:
            first = bisect_left(radii, rho, lo, hi)
            u, v, norm = thickened._curve(spec, x)
            bound = thickened._run_bound(u, v, norm, rho, cos, sin)
            for r in radii[first:hi]:
                assert thickened._distance(r, u, v, norm, rho, cos, sin) <= bound, (spec, r, cos)
            if spec is EmbeddingSpec.SPIRAL:
                assert bound <= thickened._SPIRAL_RUN_BOUND, (len(radii), lo, cos)

    @pytest.mark.parametrize("spec", list(EmbeddingSpec), ids=lambda s: s.value)
    def test_every_column_of_small_grids(self, monkeypatch, spec):
        for grid_n in range(8, 301):
            self.check_runs(self.column_runs(monkeypatch, grid_n, spec))

    @pytest.mark.parametrize("grid_n", [512, 768])
    @pytest.mark.parametrize("spec", list(EmbeddingSpec), ids=lambda s: s.value)
    def test_benchmark_grids(self, monkeypatch, spec, grid_n):
        self.check_runs(self.column_runs(monkeypatch, grid_n, spec))

    def test_columns_at_the_grid_limit(self, monkeypatch):
        n = thickened.MAX_GRID_N
        columns = random.Random(n).sample(range(n), 64)
        for spec in EmbeddingSpec:
            self.check_runs(self.column_runs(monkeypatch, n, spec, columns))

    @pytest.mark.parametrize("grid_n", [256, 512, 768])
    @pytest.mark.parametrize("spec", list(EmbeddingSpec), ids=lambda s: s.value)
    def test_benchmark_grids_need_no_per_point_check(self, monkeypatch, spec, grid_n):
        def per_point(*args):
            raise AssertionError("a run took the per-point check")

        monkeypatch.setattr(thickened, "_distance", per_point)
        assert thick_audit(grid_n, spec).tolerance == 1e-6

    @pytest.mark.parametrize("grid_n", [256, 512, 768])
    def test_benchmark_grids_need_no_spiral_curve_point(self, monkeypatch, grid_n):
        def per_run(*args):
            raise AssertionError("a spiral run took its curve point")

        monkeypatch.setattr(thickened, "_cover_run", per_run)
        assert thick_audit(grid_n, EmbeddingSpec.SPIRAL).tolerance == 1e-6


class TestSpiralScreen:
    """At a tolerance of at least ``_SPIRAL_RUN_BOUND`` the spiral walks only the columns
    that ``_spiral_screen`` names, and every run that can start inside its rho is in one."""

    EPS = 2.0**-53
    GRIDS = list(range(8, 301)) + [512, 768]
    SEEDED = random.Random(39).sample(range(769, thickened.MAX_GRID_N), 7) + [thickened.MAX_GRID_N]

    def test_naming_every_column_changes_no_report(self, monkeypatch):
        for grid_n in self.GRIDS + self.SEEDED:
            screened = thick_audit(grid_n, EmbeddingSpec.SPIRAL)
            with monkeypatch.context() as m:
                m.setattr(thickened, "_spiral_screen", lambda needs, n: range(n))
                assert thick_audit(grid_n, EmbeddingSpec.SPIRAL) == screened, grid_n

    def check_runs_named(self, grid_n, columns):
        """Each run start with |q - n| within the derived delta, or inside its rho, lies in a
        named column; and every unclamped start's g = N need/(2 pi) is within N |q - n| +
        N (N + 3) eps of b + N n, the step by which the screen's bound covers delta."""
        radii, needs = grid_rows(grid_n)
        named = set(thickened._spiral_screen(needs, grid_n))
        two_pi = 2 * math.pi
        delta = 12 * (grid_n + 4 * math.pi + 1) * self.EPS / two_pi
        starts = 0
        for b in columns:
            theta = 2 * math.pi * b / grid_n
            for lo, hi, x, rho in thickened._spiral_runs(needs, theta):
                q = (needs[lo] - theta) / two_pi
                n = max(1, math.ceil(q))
                if abs(q - n) <= delta or radii[lo] < rho:
                    assert b in named, (grid_n, b, lo)
                if math.ceil(q) >= 1:
                    g = grid_n * needs[lo] / two_pi
                    slack = grid_n * abs(q - n) + grid_n * (grid_n + 3) * self.EPS
                    assert abs(g - (b + grid_n * n)) <= slack, (grid_n, b, lo)
                    starts += 1
        assert starts
        assert grid_n * delta + grid_n * (grid_n + 3) * self.EPS <= thickened._SPIRAL_SCREEN

    def test_every_run_inside_its_rho_is_named(self):
        for grid_n in self.GRIDS + self.SEEDED:
            self.check_runs_named(grid_n, range(grid_n))

    def test_columns_at_the_grid_limit(self):
        n = thickened.MAX_GRID_N
        self.check_runs_named(n, random.Random(n).sample(range(n), 64))

    @pytest.mark.parametrize("grid_n", [256, 512, 768])
    def test_benchmark_grids_walk_only_named_columns(self, monkeypatch, grid_n):
        walked = []
        spiral_runs = thickened._spiral_runs

        def recording(needs, theta):
            walked.append(theta)
            return spiral_runs(needs, theta)

        monkeypatch.setattr(thickened, "_spiral_runs", recording)
        named = thickened._spiral_screen(grid_rows(grid_n)[1], grid_n)
        assert thick_audit(grid_n, EmbeddingSpec.SPIRAL).covered == grid_n * (grid_n - 1)
        assert walked == [2 * math.pi * b / grid_n for b in named]
        assert len(named) <= 4

    @pytest.mark.parametrize("grid_n", [8, 300, thickened.MAX_GRID_N])
    def test_rows_name_their_columns(self, grid_n):
        # a row whose need is theta_b + 2 pi n names column b, and one 1e-6 off names none
        two_pi = 2 * math.pi
        columns = sorted(random.Random(grid_n).sample(range(1, grid_n), 5))
        needs = [two_pi * b / grid_n + two_pi * n for n, b in enumerate(columns, 1)]
        assert thickened._spiral_screen(needs, grid_n) == columns
        assert thickened._spiral_screen([need + 1e-6 for need in needs], grid_n) == []

    def test_main_columns_miss_ranges(self, monkeypatch):
        main_column = thickened._main_column
        columns = 0

        def checked(*args):
            nonlocal columns
            columns += 1
            miss = main_column(*args)
            assert isinstance(miss, range), args[1:]
            return miss

        monkeypatch.setattr(thickened, "_main_column", checked)
        for grid_n in self.GRIDS:
            thick_audit(grid_n, EmbeddingSpec.MAIN_CURVE)
        assert columns == sum(self.GRIDS)


class TestLowerHalfWindow:
    """The witness search keys only the misses next to the key's vertex, yet
    must pick the full scan's first minimum over the column's misses, by
    index and by key."""

    @staticmethod
    def full_scan(grid_n, b, miss):
        theta = 2 * math.pi * b / grid_n
        cos, sin = math.cos(theta), math.sin(theta)
        radii = [a / (grid_n - 1) for a in range(1, grid_n)]
        keys = [(radii[i] * cos - 0.0) ** 2 + (radii[i] * sin + 0.5) ** 2 for i in miss]
        key = min(keys)
        return radii[miss[keys.index(key)]], key

    @staticmethod
    def windowed(monkeypatch, grid_n, b, miss):
        """thick_audit with column b missing the rows ``miss`` and all others covered."""
        theta = 2 * math.pi * b / grid_n

        def one_column(radii, th, cos, sin, tolerance):
            return list(miss) if th == theta else []

        monkeypatch.setattr(thickened, "_main_column", one_column)
        w = thick_audit(grid_n, EmbeddingSpec.MAIN_CURVE).lower_half_witness
        assert w.theta == theta
        return w.r, (w.u - 0.0) ** 2 + (w.v + 0.5) ** 2

    def check(self, monkeypatch, grid_n, b, miss):
        got = self.windowed(monkeypatch, grid_n, b, miss)
        assert got == self.full_scan(grid_n, b, miss), (grid_n, b, miss)

    @staticmethod
    def lower_columns(grid_n):
        return [b for b in range(grid_n) if math.sin(2 * math.pi * b / grid_n) < 0]

    @pytest.mark.parametrize("grid_n", range(8, 201))
    def test_every_column_of_small_grids(self, monkeypatch, grid_n):
        for b in self.lower_columns(grid_n):
            self.check(monkeypatch, grid_n, b, range(grid_n - 1))

    def test_columns_at_the_grid_limit(self, monkeypatch):
        n = thickened.MAX_GRID_N
        lower = self.lower_columns(n)
        near_vertex = [b for b in lower if abs(b - 3 * n // 4) <= 16]
        for b in near_vertex + random.Random(4096).sample(lower, 32):
            self.check(monkeypatch, n, b, range(n - 1))

    def test_far_misses_on_either_side(self, monkeypatch):
        # straight down the vertex is r* = 1/2: the miss at 1/63 has the smaller key
        n = 64
        self.check(monkeypatch, n, 3 * n // 4, [0, n - 2])
        w = self.windowed(monkeypatch, n, 3 * n // 4, [0, n - 2])
        assert w[0] == 1 / (n - 1)

    @pytest.mark.parametrize("grid_n", [8, 9, 64, 255, 768, 4096])
    def test_partly_missed_columns(self, monkeypatch, grid_n):
        rng = random.Random(grid_n)
        lower = self.lower_columns(grid_n)
        for b in rng.sample(lower, min(len(lower), 12)):
            for density in (0.02, 0.3, 0.9):
                miss = [i for i in range(grid_n - 1) if rng.random() < density] or [0]
                self.check(monkeypatch, grid_n, b, miss)
