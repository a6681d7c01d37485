"""Shared fixtures and independent oracles used across the suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterator, Optional

import pytest

from nonhaus.embedding import EmbeddingSpec, spiral_point
from nonhaus.lifting import (
    HomotopyField,
    LiftedPath,
    PLPath,
    ZeroComponent,
    ZeroSegment,
    ZeroSetComplex,
    verify_lift_continuity,
    zero_times,
)
from nonhaus.space import Origin, Regular, SpaceConfig, TopologyModel
from nonhaus.thickened import (
    GridWitness,
    ThickAuditReport,
    VerdictRow,
    _continuity_probe,
)


@pytest.fixture
def quotient2() -> SpaceConfig:
    return SpaceConfig(2, TopologyModel.QUOTIENT)


@pytest.fixture
def pseudo2() -> SpaceConfig:
    return SpaceConfig(2, TopologyModel.PSEUDOMETRIC)


@pytest.fixture
def quotient3() -> SpaceConfig:
    return SpaceConfig(3, TopologyModel.QUOTIENT)


def double_dip_path() -> PLPath:
    return PLPath(
        (
            (Fraction(0), Fraction(3, 16)),
            (Fraction(1, 4), Fraction(0)),
            (Fraction(1, 2), Fraction(-1, 16)),
            (Fraction(3, 4), Fraction(0)),
            (Fraction(1), Fraction(3, 16)),
        )
    )


def triple_dip_path() -> PLPath:
    return PLPath(
        (
            (Fraction(0), Fraction(1)),
            (Fraction(1, 6), Fraction(0)),
            (Fraction(1, 3), Fraction(-1)),
            (Fraction(1, 2), Fraction(0)),
            (Fraction(2, 3), Fraction(1)),
            (Fraction(5, 6), Fraction(0)),
            (Fraction(1), Fraction(-1)),
        )
    )


def brute_force_lifts(path: PLPath, start, cfg: SpaceConfig) -> list[LiftedPath]:
    """Oracle: try every origin assignment and keep the verified lifts.

    Independent of enumerate_lifts: it does not special-case pinned zero
    times; the start constraint is enforced by comparing the first value.
    """
    zts = zero_times(path)
    lifts = []
    for combo in itertools.product(range(1, cfg.k + 1), repeat=len(zts)):
        choice = dict(zip(zts, combo))
        values = tuple(
            Origin(choice[t]) if x == 0 else Regular(x) for t, x in path.breakpoints
        )
        lift = LiftedPath(base=path, values=values)
        if lift.values[0] != start:
            continue
        if verify_lift_continuity(lift, cfg).ok:
            lifts.append(lift)
    return lifts


def random_fraction(rng: random.Random, span: int = 1000, nonzero: bool = False) -> Fraction:
    num = rng.randint(-span, span)
    while nonzero and num == 0:
        num = rng.randint(-span, span)
    return Fraction(num, rng.randint(1, span))


# ---------------------------------------------------------------------------
# Reference zero-set engine: every triangle read with Fraction comparisons,
# endpoints identified by exact coordinates.

Node = tuple[Fraction, Fraction]
Triangle = tuple[tuple[Node, Fraction], tuple[Node, Fraction], tuple[Node, Fraction]]


def reference_triangles(s_breaks, t_breaks, values) -> Iterator[Triangle]:
    """All triangles in deterministic order: cells row by row, lower then upper."""
    s, t, vals = s_breaks, t_breaks, values
    for a in range(len(s) - 1):
        for b in range(len(t) - 1):
            n00, n10 = (s[a], t[b]), (s[a + 1], t[b])
            n01, n11 = (s[a], t[b + 1]), (s[a + 1], t[b + 1])
            v00, v10 = vals[a][b], vals[a + 1][b]
            v01, v11 = vals[a][b + 1], vals[a + 1][b + 1]
            yield ((n00, v00), (n10, v10), (n11, v11))
            yield ((n00, v00), (n11, v11), (n01, v01))


def reference_plateau(s_breaks, t_breaks, values) -> Optional[str]:
    """Message for the first identically zero triangle, or None."""
    for tri in reference_triangles(s_breaks, t_breaks, values):
        if all(v == 0 for _, v in tri):
            corners = ", ".join(f"({p[0]}, {p[1]})" for p, _ in tri)
            return f"triangle {corners} is identically zero"
    return None


def _edge_zero(p: Node, vp: Fraction, q: Node, vq: Fraction) -> Node:
    lam = vp / (vp - vq)
    return (p[0] + lam * (q[0] - p[0]), p[1] + lam * (q[1] - p[1]))


def _triangle_zero_segment(tri: Triangle) -> Optional[ZeroSegment]:
    zeros = [p for p, v in tri if v == 0]
    pos = [(p, v) for p, v in tri if v > 0]
    neg = [(p, v) for p, v in tri if v < 0]
    assert len(zeros) < 3, "identically zero triangle"
    if len(zeros) == 2:
        return ZeroSegment(zeros[0], zeros[1])
    if len(zeros) == 1:
        if pos and neg:
            return ZeroSegment(zeros[0], _edge_zero(pos[0][0], pos[0][1], neg[0][0], neg[0][1]))
        return ZeroSegment(zeros[0], zeros[0])  # single touch point
    if pos and neg:
        single, others = (pos[0], neg) if len(pos) == 1 else (neg[0], pos)
        a = _edge_zero(single[0], single[1], others[0][0], others[0][1])
        b = _edge_zero(single[0], single[1], others[1][0], others[1][1])
        return ZeroSegment(a, b)
    return None


def reference_zero_set(field: HomotopyField) -> ZeroSetComplex:
    """Oracle for extract_zero_set: equal exact endpoints are the same point."""
    segments = [
        seg
        for tri in reference_triangles(field.s_breaks, field.t_breaks, field.values)
        if (seg := _triangle_zero_segment(tri)) is not None
    ]
    parent: dict[Node, Node] = {}

    def find(x: Node) -> Node:
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for seg in segments:
        ra, rb = find(seg.a), find(seg.b)
        if ra != rb:
            parent[rb] = ra
    roots: dict[Node, list[int]] = {}  # in the order of each component's first segment
    for idx, seg in enumerate(segments):
        roots.setdefault(find(seg.a), []).append(idx)
    components = tuple(
        ZeroComponent(
            index=comp_idx,
            segments=tuple(members),
            bottom_touches=tuple(sorted({
                end[0] for idx in members for end in (segments[idx].a, segments[idx].b)
                if end[1] == 0
            })),
        )
        for comp_idx, members in enumerate(roots.values())
    )
    return ZeroSetComplex(segments=tuple(segments), components=components)


# ---------------------------------------------------------------------------
# Reference deck table: every product composed one origin at a time and
# looked up by its image tuple.


def reference_deck_table(k: int) -> tuple[tuple[int, ...], ...]:
    perms = list(itertools.permutations(range(1, k + 1)))
    index = {g: i for i, g in enumerate(perms)}
    return tuple(
        tuple(index[tuple(g[h[i] - 1] for i in range(k))] for h in perms) for g in perms
    )


# ---------------------------------------------------------------------------
# Reference thickened audit: the polar grid walked row by row, one closed-form
# preimage and one sweep image per point.


def _reference_preimage_main(r: float, theta: float) -> Optional[tuple[float, float]]:
    if r == 0:
        return (0.0, 0.0)
    if theta <= 0 or theta >= math.pi:
        if abs(math.sin(theta)) < 1e-15 and math.cos(theta) > 0:
            return (0.0, r)
        return None
    if abs(theta - math.pi / 2) < 1e-15:
        return None
    rho = math.sin(theta)
    if r < rho:
        return None
    x = math.tan(theta)
    t = (r - rho) / (1 - rho)
    return (x, t)


def _reference_preimage_spiral(r: float, theta: float) -> Optional[tuple[float, float]]:
    if r == 0:
        return (0.0, 0.0)
    need = (1 - r) / r
    n = max(1, math.ceil((need - theta) / (2 * math.pi)))
    x = 1 / (theta + 2 * math.pi * n)
    rho = x / (1 + x)
    if rho > r:
        return None
    t = (r - rho) / (1 - rho)
    return (x, t)


def _reference_sweep(spec: EmbeddingSpec, x: float, t: float) -> tuple[float, float]:
    if spec is EmbeddingSpec.MAIN_CURVE:
        d = 1 + x * x
        u, v = x / d, x * x / d
    else:
        u, v = spiral_point(x)
    norm = math.hypot(u, v)
    return ((1 - t) * u + t * u / norm, (1 - t) * v + t * v / norm)


def reference_thick_audit(grid_n: int, spec: EmbeddingSpec, tolerance: float) -> ThickAuditReport:
    """Oracle for thick_audit: every grid point in row-major order, first 16
    uncovered points as the sample, strict running minimum for the witness."""
    solver = (_reference_preimage_main if spec is EmbeddingSpec.MAIN_CURVE
              else _reference_preimage_spiral)
    covered = 0
    total = 0
    sample: list[GridWitness] = []
    lower_witness, lower_key = None, None
    for a in range(1, grid_n):
        r = a / (grid_n - 1)
        for b in range(grid_n):
            theta = 2 * math.pi * b / grid_n
            target = (r * math.cos(theta), r * math.sin(theta))
            total += 1
            pre = solver(r, theta)
            ok = False
            if pre is not None:
                x, t = pre
                img = (t, 0.0) if x == 0.0 else _reference_sweep(spec, x, t)
                ok = math.hypot(img[0] - target[0], img[1] - target[1]) <= tolerance
            if ok:
                covered += 1
                continue
            u, v = target
            if len(sample) < 16:
                sample.append(GridWitness(r=r, theta=theta, u=u, v=v))
            if v < 0:
                key = ((u - 0.0) ** 2 + (v + 0.5) ** 2, r, theta)
                if lower_key is None or key < lower_key:
                    lower_key, lower_witness = key, GridWitness(r=r, theta=theta, u=u, v=v)
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
        uncovered_sample=tuple(sample),
        lower_half_witness=lower_witness,
        probes=probes,
        rows=rows,
    )
