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
    def record_runs(monkeypatch):
        """Every run of the columns walked: the main curve's from ``_cover_run``, the
        spiral's from its column search, with each run's (lo, hi, x, rho)."""
        runs = []
        cover_run, spiral_column = thickened._cover_run, thickened._spiral_column

        def main_run(radii, lo, hi, spec, x, rho, cos, sin, tolerance):
            if spec is EmbeddingSpec.MAIN_CURVE:
                runs.append((radii, lo, hi, spec, x, rho, cos, sin))
            return cover_run(radii, lo, hi, spec, x, rho, cos, sin, tolerance)

        def recording(radii, needs, theta, cos, sin, tolerance):
            runs.extend((radii, lo, hi, EmbeddingSpec.SPIRAL, x, rho, cos, sin)
                        for lo, hi, x, rho in thickened._spiral_runs(needs, theta))
            return spiral_column(radii, needs, theta, cos, sin, tolerance)

        monkeypatch.setattr(thickened, "_cover_run", main_run)
        monkeypatch.setattr(thickened, "_spiral_column", recording)
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
        runs = self.record_runs(monkeypatch)
        for grid_n in range(8, 301):
            thick_audit(grid_n, spec)
        self.check_runs(runs)

    @pytest.mark.parametrize("grid_n", [512, 768])
    @pytest.mark.parametrize("spec", list(EmbeddingSpec), ids=lambda s: s.value)
    def test_benchmark_grids(self, monkeypatch, spec, grid_n):
        runs = self.record_runs(monkeypatch)
        thick_audit(grid_n, spec)
        self.check_runs(runs)

    def test_columns_at_the_grid_limit(self, monkeypatch):
        n = thickened.MAX_GRID_N
        radii = [a / (n - 1) for a in range(1, n)]
        needs = [(1 - r) / r for r in radii]
        runs = self.record_runs(monkeypatch)
        for b in random.Random(n).sample(range(n), 64):
            theta = 2 * math.pi * b / n
            cos, sin = math.cos(theta), math.sin(theta)
            thickened._main_column(radii, theta, cos, sin, 1e-6)
            thickened._spiral_column(radii, needs, theta, cos, sin, 1e-6)
        self.check_runs(runs)

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
