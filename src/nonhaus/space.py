"""Points, basic opens, and separation queries for the line with k glued origins.

The space glues k copies of the rational line along all nonzero points,
leaving k distinct origins over coordinate 0.  Two rival topologies are
modelled and every verdict is tagged with the model that produced it:

* ``QUOTIENT`` uses chart opens around each origin: the chart of origin i
  contains origin i, no other origin, and all nonzero points of small
  absolute coordinate.  Origins are closed and mutually distinguishable.
* ``PSEUDOMETRIC`` uses balls of the pseudometric pulled back from the
  absolute value under coordinate collapse.  The origin set has diameter
  zero, so all origins share one neighbourhood filter.

All arithmetic in this module is exact rational; there is no floating
point and no tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Union

from .errors import NonHausError


class TopologyModel(Enum):
    """Which family of basic opens generates the topology."""

    QUOTIENT = "quotient"
    PSEUDOMETRIC = "pseudometric"


@dataclass(frozen=True)
class SpaceConfig:
    """Number of origins and the topology model in force."""

    k: int
    model: TopologyModel = TopologyModel.QUOTIENT

    def __post_init__(self) -> None:
        if self.k < 2:
            raise NonHausError(f"need at least 2 origins, got k={self.k}")


@dataclass(frozen=True)
class LabeledRep:
    """Pre-quotient pair: a coordinate on a labeled branch."""

    x: Fraction
    branch: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", Fraction(self.x))


@dataclass(frozen=True)
class Origin:
    """One of the k glued origins, 1-indexed."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise NonHausError(f"origin index must be >= 1, got {self.index}")

    def __str__(self) -> str:
        return f"origin {self.index}"


@dataclass(frozen=True)
class Regular:
    """A label-free nonzero point, identified by its coordinate."""

    x: Fraction

    def __post_init__(self) -> None:
        x = self.x if type(self.x) is Fraction else Fraction(self.x)
        if x == 0:
            raise NonHausError("regular points have nonzero coordinate")
        object.__setattr__(self, "x", x)

    def __str__(self) -> str:
        return f"regular {self.x}"


CanonicalPoint = Union[Origin, Regular]


@dataclass(frozen=True)
class RegularInterval:
    """Open coordinate interval whose closure avoids 0; contains no origin."""

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        a = self.a if type(self.a) is Fraction else Fraction(self.a)
        b = self.b if type(self.b) is Fraction else Fraction(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not a < b:
            raise NonHausError(f"empty interval ({a}, {b})")
        if a <= 0 <= b:
            raise NonHausError("interval closure must avoid 0")


@dataclass(frozen=True)
class OriginChart:
    """Chart open of one origin: that origin plus all nonzero |x| < eps."""

    index: int
    eps: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", self.eps if type(self.eps) is Fraction else Fraction(self.eps))
        if self.index < 1:
            raise NonHausError(f"origin index must be >= 1, got {self.index}")
        if self.eps <= 0:
            raise NonHausError(f"chart radius must be positive, got {self.eps}")


@dataclass(frozen=True)
class Ball:
    """Pseudometric ball; around an origin it contains every origin."""

    center: CanonicalPoint
    eps: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", self.eps if type(self.eps) is Fraction else Fraction(self.eps))
        if self.eps <= 0:
            raise NonHausError(f"ball radius must be positive, got {self.eps}")


BasicOpen = Union[RegularInterval, OriginChart, Ball]


def canonicalize(rep: LabeledRep, k: int) -> CanonicalPoint:
    """Collapse a labeled representative: nonzero points drop the label."""
    if not 1 <= rep.branch <= k:
        raise NonHausError(f"branch {rep.branch} not in 1..{k}")
    if rep.x == 0:
        return Origin(rep.branch)
    return Regular(rep.x)


def coord(p: CanonicalPoint) -> Fraction:
    """Coordinate collapse: every origin sits over 0."""
    if isinstance(p, Origin):
        return Fraction(0)
    return p.x


def pseudo_dist(p: CanonicalPoint, q: CanonicalPoint) -> Fraction:
    """Canonical pseudometric: |coord(p) - coord(q)|.

    Vanishes exactly when p = q or both points are origins.  This is the
    minimum of :func:`labeled_dist` over all label choices, which makes it
    well defined on the glued space.
    """
    return abs(coord(p) - coord(q))


def labeled_dist(a: LabeledRep, b: LabeledRep, k: int) -> Fraction:
    """Representative-level distance: |x - y| on equal branches, |x| + |y| otherwise.

    Kept verbatim for fidelity tests; it is not representative-invariant
    (relabeling a nonzero point can change the value), which is why
    :func:`pseudo_dist` is the canonical distance.
    """
    for rep in (a, b):
        if not 1 <= rep.branch <= k:
            raise NonHausError(f"branch {rep.branch} not in 1..{k}")
    if a.branch == b.branch:
        return abs(a.x - b.x)
    return abs(a.x) + abs(b.x)


def basic_open(p: CanonicalPoint, eps: Fraction, cfg: SpaceConfig) -> BasicOpen:
    """Basic open around p of nominal radius eps, in the model of cfg.

    Around a regular point the interval is clipped to radius |x|/2 when
    needed so that its closure avoids 0; membership then stays exactly
    category-determined.
    """
    eps = eps if type(eps) is Fraction else Fraction(eps)
    if eps <= 0:
        raise NonHausError(f"radius must be positive, got {eps}")
    if isinstance(p, Regular):
        r = min(eps, abs(p.x) / 2)
        return RegularInterval(p.x - r, p.x + r)
    if p.index > cfg.k:
        raise NonHausError(f"origin {p.index} not in 1..{cfg.k}")
    if cfg.model is TopologyModel.QUOTIENT:
        return OriginChart(p.index, eps)
    return Ball(p, eps)


def open_contains(o: BasicOpen, q: CanonicalPoint) -> bool:
    """Exact membership test for a basic open."""
    if isinstance(o, RegularInterval):
        return isinstance(q, Regular) and o.a < q.x < o.b
    if isinstance(o, OriginChart):
        if isinstance(q, Origin):
            return q.index == o.index
        return 0 < abs(q.x) < o.eps
    return pseudo_dist(o.center, q) < o.eps


def _coord_footprint(o: BasicOpen) -> tuple[Fraction, Fraction]:
    """Open coordinate interval covered by the regular points of o."""
    if isinstance(o, RegularInterval):
        return (o.a, o.b)
    if isinstance(o, OriginChart):
        return (-o.eps, o.eps)
    c = coord(o.center)
    return (c - o.eps, c + o.eps)


def opens_intersect(o1: BasicOpen, o2: BasicOpen) -> bool:
    """Exact emptiness test for the intersection of two basic opens.

    The regular points of every basic open form its coordinate footprint
    minus {0}; a nonempty open overlap therefore always contains a shared
    regular point.  An open holds an origin only if its footprint contains
    0 (a chart is (-eps, eps), a ball (c - eps, c + eps) with |c| < eps), so
    two opens that both hold origins already overlap in coordinates, and two
    opens that do not overlap share no origin either.
    """
    (a1, b1), (a2, b2) = _coord_footprint(o1), _coord_footprint(o2)
    return max(a1, a2) < min(b1, b2)


@dataclass(frozen=True)
class InseparabilityRule:
    """Maps radii (eps, eps') to a point common to the opens around two origins.

    For any positive radii the regular point at min(eps, eps')/2 lies in
    the basic open of either origin, in both topology models.
    """

    i: int
    j: int

    def common_point(self, eps1: Fraction, eps2: Fraction) -> Regular:
        eps1 = eps1 if type(eps1) is Fraction else Fraction(eps1)
        eps2 = eps2 if type(eps2) is Fraction else Fraction(eps2)
        if eps1 <= 0 or eps2 <= 0:
            raise NonHausError("rule radii must be positive")
        return Regular(min(eps1, eps2) / 2)


@dataclass(frozen=True)
class SeparationVerdict:
    """Outcome of one separation-axiom query, with a checkable witness.

    A positive verdict carries two basic opens (disjoint for T2; for
    T0/T1 each contains its point and excludes the other).  A negative
    verdict carries an inseparability rule that produces a common member
    for every pair of radii: in both models every open around either
    origin contains all small nonzero points.
    """

    axiom: str  # "T0" | "T1" | "T2"
    holds: bool
    pair: tuple[CanonicalPoint, CanonicalPoint]
    opens: tuple[BasicOpen, BasicOpen] | None = None
    rule: InseparabilityRule | None = None


def separable(p: CanonicalPoint, q: CanonicalPoint, cfg: SpaceConfig) -> SeparationVerdict:
    """Try to separate two distinct points by disjoint basic opens (T2 sense)."""
    if p == q:
        raise NonHausError(f"{p} given twice")
    if isinstance(p, Origin) and isinstance(q, Origin):
        return SeparationVerdict(axiom="T2", holds=False, pair=(p, q),
                                 rule=InseparabilityRule(p.index, q.index))
    if isinstance(p, Regular) and isinstance(q, Regular):
        eps = abs(p.x - q.x) / 2
        opens = (basic_open(p, eps, cfg), basic_open(q, eps, cfg))
    else:
        o, r = (p, q) if isinstance(p, Origin) else (q, p)
        chart = basic_open(o, abs(r.x) / 2, cfg)
        interval = basic_open(r, abs(r.x) / 4, cfg)
        opens = (chart, interval) if isinstance(p, Origin) else (interval, chart)
    return SeparationVerdict(axiom="T2", holds=True, pair=(p, q), opens=opens)


def separation_report(cfg: SpaceConfig) -> list[SeparationVerdict]:
    """T0/T1/T2 verdicts obtained by exhausting the point-pair categories.

    Representative pairs: (o1, o2), (o1, regular 1), (regular 1, regular 2).
    Only the origin pair can fail anything; regular pairs separate by
    disjoint intervals and origin/regular pairs by a chart or ball plus an
    interval, in both models.  The origin pair's T2 verdict is the one
    :func:`separable` gives; in the quotient model the chart of each origin
    excludes the other, which proves T0 and T1 for the representative pair
    (1, 2) only.  The audit proves them for all k^2 chart/origin pairs
    through ``separated-charts:quotient``.
    """
    inseparable = separable(Origin(1), Origin(2), cfg)
    if cfg.model is TopologyModel.PSEUDOMETRIC:
        return [replace(inseparable, axiom=axiom) for axiom in ("T0", "T1", "T2")]
    charted = replace(inseparable, holds=True, rule=None,
                      opens=(OriginChart(1, Fraction(1)), OriginChart(2, Fraction(1))))
    return [replace(charted, axiom="T0"), replace(charted, axiom="T1"), inseparable]


@dataclass(frozen=True)
class MetricSummary:
    """What ``metric --json`` writes: one model's separation verdicts and sample distances."""

    model: str
    separation: tuple[SeparationVerdict, ...]
    distances: tuple[tuple[CanonicalPoint, CanonicalPoint, Fraction], ...]


class SequenceKind(Enum):
    """Closed-form catalog of regular-point sequences."""

    HARMONIC = "harmonic"  # x_n = 1/n
    SHIFTED = "shifted"  # x_n = c + 1/n
    ALTERNATING = "alternating"  # x_n = (-1)^n / n


@dataclass(frozen=True)
class SequenceSpec:
    kind: SequenceKind
    c: Fraction = field(default=Fraction(0))

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", Fraction(self.c))
        if self.kind is SequenceKind.SHIFTED and self.c < 0:
            q = -1 / self.c
            if q.denominator == 1 and q >= 1:
                raise NonHausError(f"c = {self.c} makes a term land on coordinate 0")

    def term(self, n: int) -> Fraction:
        if n < 1:
            raise NonHausError("terms are indexed from 1")
        if self.kind is SequenceKind.HARMONIC:
            return Fraction(1, n)
        if self.kind is SequenceKind.SHIFTED:
            return self.c + Fraction(1, n)
        return Fraction((-1) ** n, n)


def harmonic() -> SequenceSpec:
    return SequenceSpec(SequenceKind.HARMONIC)


def shifted(c: Fraction) -> SequenceSpec:
    return SequenceSpec(SequenceKind.SHIFTED, Fraction(c))


def alternating() -> SequenceSpec:
    return SequenceSpec(SequenceKind.ALTERNATING)


def converges_to(seq: SequenceSpec, p: CanonicalPoint, cfg: SpaceConfig) -> bool:
    """Closed-form convergence decision; no sampling.

    The coordinates of every catalog sequence converge (to 0, 0, or c).
    A basic open around a regular point is an interval clipped away from
    0, so convergence there needs coordinate limit x with x != 0.  A basic
    open around any origin contains, in both models, all regular points of
    sufficiently small nonzero coordinate, so every catalog sequence with
    coordinate limit 0 converges to every origin simultaneously.
    """
    limit = seq.c if seq.kind is SequenceKind.SHIFTED else Fraction(0)
    if isinstance(p, Regular):
        return limit == p.x
    if p.index > cfg.k:
        raise NonHausError(f"origin {p.index} not in 1..{cfg.k}")
    return limit == 0
