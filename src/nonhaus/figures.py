"""Deterministic SVG diagrams of the glued line and its projection.

Figures are assembled from SVG primitives with fixed-precision
coordinates, so identical inputs produce byte-identical output; no
plotting library is involved.  The scene shows the k branch lines with
their origins on the left, the image curve accumulating at the marked
point inside the disk on the right, projection arrows, and optionally the
k lifts of the bounce path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonHausError

WIDTH, HEIGHT = 640, 400
DISK_CENTER = (456.0, 200.0)
DISK_RADIUS = 150.0
BRANCH_X0, BRANCH_X1 = 36.0, 264.0

PALETTE = ("#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02")


@dataclass(frozen=True)
class SvgScene:
    """What to draw; geometry is a pure function of these fields."""

    k: int
    lifts: bool = False

    def __post_init__(self) -> None:
        if self.k < 2:
            raise NonHausError(f"need at least 2 branches, got k={self.k}")
        if self.k > len(PALETTE):  # past one colour per branch the branches overlap
            raise NonHausError(f"at most {len(PALETTE)} branches can be drawn, got k={self.k}")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _branch_y(scene: SvgScene, i: int) -> float:
    spread = min(48.0, 280.0 / scene.k)
    return 200.0 + (i - (scene.k + 1) / 2.0) * spread


def render_figure(scene: SvgScene) -> bytes:
    """Render the scene as ASCII SVG bytes."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="monospace" font-size="13">',
        "<defs>",
        '<marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="7" '
        'markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#666666"/></marker>',
        "</defs>",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    cx, cy = DISK_CENTER
    parts.append('<g class="branches">')
    for i in range(1, scene.k + 1):
        y = _branch_y(scene, i)
        parts.append(
            f'<line class="branch" x1="{_fmt(BRANCH_X0)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(BRANCH_X1)}" y2="{_fmt(y)}" stroke="#d9a0b8" stroke-width="3"/>'
        )
        parts.append(
            f'<circle class="origin" cx="{_fmt(BRANCH_X1)}" cy="{_fmt(y)}" r="4" '
            f'fill="#c02040"/>'
        )
        parts.append(
            f'<text x="{_fmt(BRANCH_X0 - 28)}" y="{_fmt(y + 4)}">b{i}</text>'
        )
        parts.append(
            f'<text x="{_fmt(BRANCH_X1 + 8)}" y="{_fmt(y + 4)}">o{i}</text>'
        )
    parts.append("</g>")
    parts.append('<g class="base">')
    parts.append(
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(DISK_RADIUS)}" '
        f'fill="none" stroke="#bbbbbb" stroke-dasharray="6 5"/>'
    )
    # image curve: the circle of radius 1/2 through the marked point,
    # drawn with a gap at the accumulation point itself
    r = DISK_RADIUS / 2
    gap = 0.22
    x0 = cx + r * math.sin(gap)
    y0 = cy - r * (1 - math.cos(gap))
    x1 = cx - r * math.sin(gap)
    parts.append(
        f'<path class="curve" d="M {_fmt(x0)} {_fmt(y0)} '
        f'A {_fmt(r)} {_fmt(r)} 0 1 0 {_fmt(x1)} {_fmt(y0)}" '
        f'fill="none" stroke="#0f8b8d" stroke-width="3"/>'
    )
    parts.append(
        f'<circle class="zpoint" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4" fill="#000000"/>'
    )
    parts.append(f'<text x="{_fmt(cx + 10)}" y="{_fmt(cy + 16)}">z</text>')
    parts.append(
        f'<text x="{_fmt(cx - 60)}" y="{_fmt(cy - DISK_RADIUS - 10)}">image curve</text>'
    )
    parts.append("</g>")
    parts.append('<g class="projection">')
    for i in range(1, scene.k + 1):
        y = _branch_y(scene, i)
        parts.append(
            f'<line class="proj" x1="{_fmt(BRANCH_X1 + 30)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(cx - DISK_RADIUS - 10)}" y2="{_fmt(cy)}" '
            f'stroke="#666666" marker-end="url(#arrow)"/>'
        )
    mid_y = _branch_y(scene, 1) - 18
    parts.append(f'<text x="{_fmt(BRANCH_X1 + 44)}" y="{_fmt(mid_y)}">projection</text>')
    parts.append("</g>")
    if scene.lifts:
        parts.append('<g class="lifts">')
        sx = BRANCH_X0 + 104.0
        sy = _branch_y(scene, 1) - 26
        parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="3" fill="#333333"/>')
        parts.append(f'<text x="{_fmt(sx - 16)}" y="{_fmt(sy - 8)}">start</text>')
        for i in range(1, scene.k + 1):
            y = _branch_y(scene, i)
            color = PALETTE[(i - 1) % len(PALETTE)]
            parts.append(
                f'<path class="lift" d="M {_fmt(sx)} {_fmt(sy)} '
                f'Q {_fmt((sx + BRANCH_X1) / 2)} {_fmt(y - 10)} '
                f'{_fmt(BRANCH_X1)} {_fmt(y)}" fill="none" stroke="{color}" '
                f'stroke-width="2"/>'
            )
        parts.append(
            f'<text x="{_fmt(BRANCH_X0)}" y="{_fmt(HEIGHT - 16)}">'
            f"{scene.k} lifts of the bounce path from one start</text>"
        )
        parts.append("</g>")
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("ascii")
