"""Radially thickened variant: tubes swept from the curve to the disk boundary.

Each point of the glued line is paired with a tube parameter t in [0, 1];
at t = 1 all tube ends are glued to the boundary circle.  The sweep map
sends (x, t) to the segment from the curve point toward its boundary
direction; at the origins the map is undefined by the formula, so the
declared convention (t, 0) is used and the resulting discontinuities are
reported rather than hidden.

This module is floating point (norms need square roots); every comparison
carries an explicit tolerance.  The audit shows that the sweep's claimed
surjectivity and continuity depend on the embedding: the main curve misses
the lower half plane entirely, while the spiral covers every sampled
direction but still breaks continuity on the origin tubes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from .embedding import EmbeddingSpec, spiral_point
from .errors import NonHausError
from .lifting import PLPath, lift_product
from .space import CanonicalPoint, Origin, Regular, SpaceConfig

MAX_GRID_N = 4096  # thick_audit checks MAX_GRID_N * (MAX_GRID_N - 1) points at most


@dataclass(frozen=True)
class ThickPoint:
    """Point of the thickened space; tube ends at t = 1 are glued to one point."""

    base: CanonicalPoint
    t: Fraction

    def __post_init__(self) -> None:
        t = Fraction(self.t)
        if not 0 <= t <= 1:
            raise ValueError(f"tube parameter {t} outside [0, 1]")
        object.__setattr__(self, "t", t)
        if t == 1 and isinstance(self.base, Origin) and self.base.index != 1:
            object.__setattr__(self, "base", Origin(1))


def thick_project(p: ThickPoint, spec: EmbeddingSpec = EmbeddingSpec.MAIN_CURVE) -> tuple[float, float]:
    """Sweep map: interpolate from the curve point to its boundary direction.

    Regular base: (1 - t) * image(x) + t * image(x)/||image(x)||.  Origin
    base: the declared ray convention (t, 0); the formula itself is
    undefined at coordinate 0.
    """
    t = float(p.t)
    if isinstance(p.base, Origin):
        return (t, 0.0)
    return _sweep(*_curve(spec, float(p.base.x)), t)


def thick_fibre_z(k: int) -> frozenset[ThickPoint]:
    """Fibre over the disk centre: the k origins at tube parameter 0."""
    if k < 2:
        raise NonHausError(f"need at least 2 origins, got k={k}")
    return frozenset(ThickPoint(Origin(i), Fraction(0)) for i in range(1, k + 1))


def thick_lift_count(path: PLPath, t: Fraction, cfg: SpaceConfig) -> int:
    """Lift count of the path on the slice at fixed tube parameter t in [0, 1)."""
    t = Fraction(t)
    if not 0 <= t < 1:
        raise ValueError(f"slice parameter {t} outside [0, 1)")
    c0 = path.breakpoints[0][1]
    start = Origin(1) if c0 == 0 else Regular(c0)
    return lift_product(path, start, cfg).count()


@dataclass(frozen=True)
class GridWitness:
    """One polar grid point with its planar coordinates."""

    r: float
    theta: float
    u: float
    v: float


@dataclass(frozen=True)
class ContinuityProbe:
    """Two-sided approach to an origin tube point along +-1/n."""

    origin: int
    t: Fraction
    declared: tuple[float, float]
    limit_pos: tuple[float, float]
    limit_neg: tuple[float, float]
    oscillates: bool
    discontinuous: bool


@dataclass(frozen=True)
class VerdictRow:
    """One claim about the sweep map and whether the audit found it to hold.

    Coverage is counted on the punctured polar grid; continuity is probed
    by a two-sided approach along +-1/n at tube parameter 1/2; the origins
    at tube parameter 0 map to the centre by the ray convention.
    """

    claim: str
    holds: bool


@dataclass(frozen=True)
class ThickAuditReport:
    """Sampled surjectivity and continuity audit of the sweep map."""

    grid_n: int
    embedding: str
    tolerance: float
    covered: int
    total: int
    coverage: float
    uncovered_count: int
    uncovered_sample: tuple[GridWitness, ...]
    lower_half_witness: Optional[GridWitness]
    probes: tuple[ContinuityProbe, ...]
    rows: tuple[VerdictRow, ...]


def _grid_witness(r: float, theta: float) -> GridWitness:
    return GridWitness(r=r, theta=theta, u=r * math.cos(theta), v=r * math.sin(theta))


def _curve(spec: EmbeddingSpec, x: float) -> tuple[float, float, float]:
    """Floating-point curve point (u, v) of a nonzero coordinate, with its norm."""
    if spec is EmbeddingSpec.MAIN_CURVE:
        d = 1 + x * x
        u, v = x / d, x * x / d
    else:
        u, v = spiral_point(x)
    return u, v, math.hypot(u, v)


def _sweep(u: float, v: float, norm: float, t: float) -> tuple[float, float]:
    """Sweep image at tube parameter t of the curve point (u, v) of that norm."""
    return ((1 - t) * u + t * u / norm, (1 - t) * v + t * v / norm)


def _run_bound(u: float, v: float, norm: float, rho: float, cos: float, sin: float) -> float:
    """A bound on the float distance of each row r >= rho that curve point (u, v) covers.

    Row r sits at r (cos, sin) and is swept at t = (r - rho)/(1 - rho), so t (1 - rho) =
    r - rho and the exact x-residual of ``_sweep`` is the convex combination
    (1 - t)(u - rho cos) + t (u/norm - cos); likewise for y.  The distance is thus at
    most S, the sum of the four absolute values below.  In floats each operation is off
    by a factor 1 + d, |d| <= eps = 2^-53 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, section 2.2), and every operand here is at most 2 in size.
    To first order in eps: a residual's seven operations add 8 eps, the three roundings
    of t move r cos by 3 eps, and hypot adds 1 ulp to a value below S + 22 eps < 6, so a
    computed distance is at most S + 34 eps.  Each term below is computed within 3 eps
    and the four additions round by 24 eps at most, so the value returned is at least
    S + (C - 36) eps: C = 70 suffices, and C = 128 leaves the second-order terms behind.
    """
    return (abs(u - rho * cos) + abs(v - rho * sin) + abs(u / norm - cos) + abs(v / norm - sin)
            + 128 * 2.0**-53)  # C eps


def _distance(r: float, u: float, v: float, norm: float, rho: float, cos: float,
              sin: float) -> float:
    """The per-point check: float distance from r (cos, sin) to its sweep image from (u, v)."""
    x, y = _sweep(u, v, norm, (r - rho) / (1 - rho))
    return math.hypot(x - r * cos, y - r * sin)


def _cover_run(radii: list[float], lo: int, hi: int, spec: EmbeddingSpec, x: float, rho: float,
               cos: float, sin: float, tolerance: float) -> list[int]:
    """The rows lo..hi-1 of a column that the curve point of x, of solver norm rho, misses.

    The rows with r < rho, a prefix, have no preimage.  The rest are covered whole when
    ``_run_bound`` is within ``tolerance``, and each checked by ``_distance`` otherwise.
    """
    first = bisect_left(radii, rho, lo, hi)
    miss = list(range(lo, first))
    u, v, norm = _curve(spec, x)
    if _run_bound(u, v, norm, rho, cos, sin) > tolerance:
        miss += [i for i in range(first, hi)
                 if not _distance(radii[i], u, v, norm, rho, cos, sin) <= tolerance]
    return miss


def _main_column(
    radii: list[float], theta: float, cos: float, sin: float, tolerance: float
) -> list[int]:
    """Closed-form preimage of (r, theta) under the main-curve sweep, if any.

    The main curve lies on the circle through the centre of radius 1/2
    around (0, 1/2): the point at direction theta has norm sin(theta), and
    x = tan(theta) is the unique coordinate with that direction.  The
    sweep reaches exactly the radii in [sin(theta), 1], so the column is one
    run of that curve point.

    Returns the indices into ``radii`` of the column's uncovered points.
    """
    if theta <= 0 or theta >= math.pi:
        if abs(sin) < 1e-15 and cos > 0:  # positive axis: the origin ray (t, 0) hits each (r, 0)
            return []
        return list(range(len(radii)))
    if abs(theta - math.pi / 2) < 1e-15:
        return list(range(len(radii)))  # straight up is only approached in the limit
    return _cover_run(radii, 0, len(radii), EmbeddingSpec.MAIN_CURVE, math.tan(theta), sin,
                      cos, sin, tolerance)


def _spiral_column(
    radii: list[float], needs: list[float], theta: float, cos: float, sin: float, tolerance: float
) -> list[int]:
    """Closed-form preimage under the spiral sweep; every r > 0 is reachable.

    Choose x = 1/(theta + 2*pi*n) with n large enough that the spiral
    radius rho = x/(1+x) drops below r, then slide out along the tube.

    ``needs[i]`` is (1 - r)/r for ``r = radii[i]``: rho <= r  <=>  1/x >= need.
    The winding n_i = max(1, ceil((needs[i] - theta)/(2 pi))) never grows
    down the column: the radii increase and every float operation from r to
    n_i rounds monotonically.  So the rows of one winding form a run, whose
    end a galloping search finds on that same expression, and each run is
    covered from its one curve point.  Returns the indices into ``radii``
    of the column's uncovered points.
    """
    two_pi = 2 * math.pi
    miss: list[int] = []
    lo, rows = 0, len(radii)
    while lo < rows:
        n = max(1, math.ceil((needs[lo] - theta) / two_pi))
        hi = rows
        if n > 1:
            # the run ends at the first row of winding below n, where q <= n - 1 (the same as
            # ceil(q) <= n - 1): gallop over the run, then bisect the last step for that row
            known, step = lo, 1
            while known + step < rows and (needs[known + step] - theta) / two_pi > n - 1:
                known, step = known + step, 2 * step
            hi = bisect_left(needs, 1 - n, known + 1, min(known + step, rows),
                             key=lambda need: -((need - theta) / two_pi))
        x = 1 / (theta + two_pi * n)
        miss += _cover_run(radii, lo, hi, EmbeddingSpec.SPIRAL, x, x / (1 + x), cos, sin,
                           tolerance)
        lo = hi
    return miss


def thick_audit(grid_n: int, spec: EmbeddingSpec, tolerance: float = 1e-6) -> ThickAuditReport:
    """Coverage of a polar grid plus continuity probes at the origin tubes.

    The punctured grid has radii a/(grid_n - 1) for 1 <= a < grid_n (radius 0
    excluded; the centre is hit by the origins at t = 0) and directions
    2*pi*b/grid_n for 0 <= b < grid_n.  A grid point counts as covered when
    the closed-form preimage of its direction's column maps within
    ``tolerance`` of it.  The grid is walked one direction at a time, and a
    column in runs of rows swept from one curve point: a run is covered whole
    when ``_run_bound`` is within ``tolerance``, and otherwise point by point
    by ``_distance``.  Uncovered points are counted, not kept: the report
    carries the first 16 in row-major order (by radius, then direction) and
    the lower-half point nearest (0, -1/2), the smallest (distance, r, theta)
    on a tie.  ``grid_n`` must lie in [8, MAX_GRID_N].

    The lower-half key is r^2 + r sin + 1/4 (to 2 ulp), a parabola in r with
    vertex r* = -sin/2.  Of a column's misses on one side of r*, each but the
    nearest is a grid step d farther out, so its key is at least d^2 (over
    5e-8) larger, far beyond float error: only the misses at k - 3 .. k + 2,
    k = bisect_left(miss, bisect_left(radii, r*)), are keyed.
    """
    if grid_n < 8:
        raise NonHausError(f"grid must be at least 8x8, got {grid_n}")
    if grid_n > MAX_GRID_N:
        raise NonHausError(f"grid {grid_n} exceeds the limit of {MAX_GRID_N}")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    tolerance = abs(tolerance)  # -0.0 is echoed as 0.0
    radii = [a / (grid_n - 1) for a in range(1, grid_n)]
    if spec is EmbeddingSpec.MAIN_CURVE:
        column = partial(_main_column, radii)
    else:
        column = partial(_spiral_column, radii, [(1 - r) / r for r in radii])
    covered = 0
    sample: list[tuple[int, int, float]] = []  # (row, column, theta), row-major
    lower_witness, lower_key = None, None
    for b in range(grid_n):
        theta = 2 * math.pi * b / grid_n
        cos, sin = math.cos(theta), math.sin(theta)
        miss = column(theta, cos, sin, tolerance)
        covered += len(radii) - len(miss)
        if miss and (len(sample) < 16 or miss[0] < sample[-1][0]):
            sample = sorted(sample + [(i, b, theta) for i in miss[:16]])[:16]
        if sin < 0 and miss:  # v = r * sin takes the sign of sin: the lower half
            k = bisect_left(miss, bisect_left(radii, -0.5 * sin))
            miss = miss[max(k - 3, 0):k + 3]  # only the misses next to the vertex can win
            keys = [(radii[i] * cos - 0.0) ** 2 + (radii[i] * sin + 0.5) ** 2 for i in miss]
            key = min(keys)
            r = radii[miss[keys.index(key)]]  # the first minimum has the smallest r
            if lower_key is None or (key, r, theta) < lower_key:
                lower_key = (key, r, theta)
                lower_witness = _grid_witness(r, theta)
    total = grid_n * (grid_n - 1)
    probes = (_continuity_probe(1, Fraction(1, 2), spec),)
    rows = (
        VerdictRow(claim="sweep map covers the sampled disk grid", holds=covered == total),
        VerdictRow(claim="sweep map is continuous at the origin tubes",
                   holds=not any(p.discontinuous for p in probes)),
        VerdictRow(claim="fibre over the centre is the k origin tube points", holds=True),
    )
    return ThickAuditReport(
        grid_n=grid_n,
        embedding=spec.value,
        tolerance=tolerance,
        covered=covered,
        total=total,
        coverage=covered / total,
        uncovered_count=total - covered,
        uncovered_sample=tuple(_grid_witness(radii[i], theta) for i, _, theta in sample),
        lower_half_witness=lower_witness,
        probes=probes,
        rows=rows,
    )


def _continuity_probe(origin: int, t: Fraction, spec: EmbeddingSpec) -> ContinuityProbe:
    declared = (float(t), 0.0)
    ns = [64, 128, 256, 512]
    plus = [_sweep(*_curve(spec, 1.0 / n), float(t)) for n in ns]
    minus = [_sweep(*_curve(spec, -1.0 / n), float(t)) for n in ns]
    limit_pos, limit_neg = plus[-1], minus[-1]

    def settled(seq: list[tuple[float, float]]) -> bool:
        return all(
            math.hypot(p[0] - q[0], p[1] - q[1]) < 0.05 for p, q in zip(seq, seq[1:])
        )

    oscillates = not (settled(plus) and settled(minus))
    separated = math.hypot(limit_pos[0] - limit_neg[0], limit_pos[1] - limit_neg[1]) > float(t)
    return ContinuityProbe(
        origin=origin,
        t=t,
        declared=declared,
        limit_pos=limit_pos,
        limit_neg=limit_neg,
        oscillates=oscillates,
        discontinuous=oscillates or separated,
    )
