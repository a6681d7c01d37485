"""The projection from the glued line onto the base curve, and its certificates.

The projection sends a regular point to the base point with the same
coordinate and every origin to the accumulation point.  It is one-sheeted
over the regular locus; the whole failure of the covering axioms happens
over the accumulation point, whose fibre is the full origin set.

Certificates produced here are plain data, re-checked from scratch with the
exact predicates of :mod:`nonhaus.space`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .embedding import BasePoint
from .errors import NonHausError
from .space import (
    BasicOpen,
    CanonicalPoint,
    InseparabilityRule,
    Origin,
    Regular,
    SpaceConfig,
    TopologyModel,
    basic_open,
    coord,
    open_contains,
)


def project(p: CanonicalPoint) -> BasePoint:
    """Coordinate projection; all origins land on the accumulation point."""
    return BasePoint(coord(p))


def fibre(y: BasePoint, cfg: SpaceConfig) -> frozenset[CanonicalPoint]:
    """Preimage of a base point: k origins over the accumulation point, else a singleton."""
    if y.is_accumulation:
        return frozenset(Origin(i) for i in range(1, cfg.k + 1))
    return frozenset({Regular(y.x)})


@dataclass(frozen=True)
class PairWitness:
    """Inseparability of one origin pair inside the preimage of the window.

    ``common`` is the pair's ``InseparabilityRule(i, j)`` evaluated at radii
    (eps, eps); it lies in the basic open of either origin and projects into
    the window.
    """

    i: int
    j: int
    common: Regular
    open_i: BasicOpen
    open_j: BasicOpen


@dataclass(frozen=True)
class EvenCoverFailure:
    """Certificate that no window around the accumulation point is evenly covered.

    The fibre, origins 1..k, lies in the preimage of the window (-eps, eps);
    no two origins have disjoint basic opens, so a disjoint open family
    covering the preimage puts them all in one member, which holds k points
    over 0 and maps injectively onto no window.  Only k, the model and eps
    are stored; the fibre and the pair witnesses are what they give.
    """

    k: int
    model: str
    eps: Fraction

    @property
    def fibre(self) -> tuple[Origin, ...]:
        return tuple(Origin(i) for i in range(1, self.k + 1))

    @property
    def witnesses(self) -> tuple[PairWitness, ...]:
        cfg, eps = SpaceConfig(self.k, TopologyModel(self.model)), self.eps
        return tuple(PairWitness(i, j, InseparabilityRule(i, j).common_point(eps, eps),
                                 basic_open(Origin(i), eps, cfg), basic_open(Origin(j), eps, cfg))
                     for i, j in combinations(range(1, self.k + 1), 2))


def _window(eps: Fraction) -> Fraction:
    eps = Fraction(eps)
    if eps <= 0:
        raise NonHausError(f"window radius must be positive, got {eps}")
    return eps


def even_cover_certificate(eps: Fraction, cfg: SpaceConfig) -> EvenCoverFailure:
    """Build the even-covering failure certificate for the window (-eps, eps)."""
    return EvenCoverFailure(k=cfg.k, model=cfg.model.value, eps=_window(eps))


def recheck_even_cover(cert: EvenCoverFailure) -> list[str]:
    """The window must be nonempty, and the regular point eps/2 of the window must lie in
    the basic open at radius eps of every origin of 1..k in the certificate's model, so
    no two origins have disjoint opens; returns failure messages."""
    if not cert.eps > 0:
        return [f"window radius {cert.eps} is not positive"]
    cfg = SpaceConfig(cert.k, TopologyModel(cert.model))
    common = Regular(cert.eps / 2)
    return [f"origin {i}'s basic open at radius {cert.eps} misses x={common.x}"
            for i in range(1, cert.k + 1)
            if not open_contains(basic_open(Origin(i), cert.eps, cfg), common)]


@dataclass(frozen=True)
class OriginJoinPath:
    """PL path inside the preimage of the window joining two origins.

    Breakpoints are (time, point) pairs; the coordinate interpolates
    linearly between them, so every interior point stays inside the
    preimage of the window as well.  The window is its record's.
    """

    breakpoints: tuple[tuple[Fraction, CanonicalPoint], ...]

    @property
    def start(self) -> CanonicalPoint:
        return self.breakpoints[0][1]

    @property
    def end(self) -> CanonicalPoint:
        return self.breakpoints[-1][1]


def preimage_connected_certificate(eps: Fraction, cfg: SpaceConfig) -> list[OriginJoinPath]:
    """Chain of PL paths joining consecutive origins through one regular point.

    Each path runs origin i -> regular eps/2 -> origin i+1; all breakpoint
    coordinates have absolute value below eps, so the whole chain stays in
    the preimage of the window.  This witnesses that the preimage cannot
    split into disjoint sheets.
    """
    eps = _window(eps)
    via = Regular(eps / 2)
    paths = []
    for i in range(1, cfg.k):
        paths.append(
            OriginJoinPath(
                breakpoints=(
                    (Fraction(0), Origin(i)),
                    (Fraction(1, 2), via),
                    (Fraction(1), Origin(i + 1)),
                ),
            )
        )
    return paths


def recheck_origin_join(paths: list[OriginJoinPath], cfg: SpaceConfig, eps: Fraction) -> list[str]:
    """Path n must join origin n+1 to origin n+2 inside the window (-eps, eps) of the record."""
    failures: list[str] = []
    if [(p.start, p.end) for p in paths] != [(Origin(i), Origin(i + 1)) for i in range(1, cfg.k)]:
        failures.append(f"paths do not join origins 1..{cfg.k} consecutively, in order")
    for n, path in enumerate(paths):
        for t, p in path.breakpoints:
            if not abs(coord(p)) < eps:
                failures.append(f"path {n}: breakpoint at t={t} leaves the window preimage")
    return failures


@dataclass(frozen=True)
class SectionWitness:
    """Two sections over the window that agree off the accumulation point.

    Both send a nonzero coordinate x to the regular point x; at the
    accumulation point one picks origin i, the other origin j.  Agreement
    at every x in the punctured window 0 < |x| < eps, plus the disagreement
    at the accumulation point, witnesses that the stalk there is not
    separated.
    """

    i: int
    j: int
    eps: Fraction


def section_witness(eps: Fraction, i: int, j: int, cfg: SpaceConfig) -> SectionWitness:
    """Build the two-section witness of origins i and j over the window (-eps, eps)."""
    eps = _window(eps)
    if i == j:
        raise NonHausError("the two sections must pick distinct origins")
    for idx in (i, j):
        if not 1 <= idx <= cfg.k:
            raise NonHausError(f"origin {idx} not in 1..{cfg.k}")
    return SectionWitness(i=i, j=j, eps=eps)


def recheck_section_witness(w: SectionWitness, k: int) -> list[str]:
    """The window must be nonempty and the sections must pick distinct origins of 1..k.

    Off the accumulation point both sections send x to the regular point x,
    so they agree at every x of the punctured window without a test; at it
    they pick origins i and j, which differ.
    """
    failures: list[str] = []
    if not w.eps > 0:
        failures.append(f"window radius {w.eps} is not positive")
    if w.i == w.j or not (1 <= w.i <= k and 1 <= w.j <= k):
        failures.append(f"sections pick origins {w.i} and {w.j}, "
                        f"not two distinct origins of 1..{k}")
    return failures
