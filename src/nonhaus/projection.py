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

