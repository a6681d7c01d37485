"""Embedding of the punctured rational line into the punctured unit disk.

The base space is a curve inside the closed unit disk that accumulates at
the interior point z = (0, 0) from both sides, together with z itself.
Base points are modelled by their single rational coordinate (0 stands for
z); the planar image is derived on demand.

Two embeddings are available:

* ``MAIN_CURVE``: x -> (x/(1+x^2), x^2/(1+x^2)).  Rational-valued on
  rational inputs, injective, and ||image||^2 * (1+x^2) = x^2 exactly, so
  the image accumulates at z from both sides with an explicit modulus.
  Its image lies on the circle of radius 1/2 centred at (0, 1/2).
* ``SPIRAL``: x -> rho(x) * (cos(1/x), sin(1/x)) with rho = |x|/(1+|x|).
  Floating point only; used by the thickened variant, whose direction
  sweep needs a curve that approaches z from every direction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import NonHausError


class EmbeddingSpec(Enum):
    MAIN_CURVE = "main"
    SPIRAL = "spiral"


@dataclass(frozen=True)
class PlanePoint:
    """Exact rational point of the plane."""

    u: Fraction
    v: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", Fraction(self.u))
        object.__setattr__(self, "v", Fraction(self.v))

    def norm_sq(self) -> Fraction:
        return self.u * self.u + self.v * self.v


@dataclass(frozen=True)
class BasePoint:
    """Point of the base space by its coordinate; 0 is the accumulation point."""

    x: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", self.x if type(self.x) is Fraction else Fraction(self.x))

    @property
    def is_accumulation(self) -> bool:
        return self.x == 0


ACCUMULATION = BasePoint(Fraction(0))


def embed_point(x: Fraction) -> PlanePoint:
    """Exact planar image of a nonzero coordinate under the main curve."""
    x = Fraction(x)
    if x == 0:
        raise NonHausError("the accumulation point is not on the curve")
    d = 1 + x * x
    return PlanePoint(x / d, x * x / d)


def spiral_point(x: float) -> tuple[float, float]:
    """Floating-point spiral image; sweeps every direction as x -> 0."""
    if x == 0:
        raise NonHausError("the accumulation point is not on the curve")
    rho = abs(x) / (1 + abs(x))
    return (rho * math.cos(1 / x), rho * math.sin(1 / x))


@dataclass(frozen=True)
class EmbeddingReport:
    """Exact sample-level checks of the main-curve embedding.

    Injectivity also holds beyond the samples: equal second coordinates
    force x^2 = y^2, hence y = +-x; equal first coordinates then rule out
    y = -x unless x = 0, which is excluded; so images agree only for equal
    coordinates.
    """

    sample_count: int
    identity_ok: bool  # ||image||^2 * (1 + x^2) == x^2 on every sample
    injective_ok: bool  # pairwise distinct images on the sample
    accumulation_ok: bool  # ||image(1/n)||^2 <= 1/n^2 for n up to accumulation_n
    accumulation_n: int
    bounded_ok: bool  # ||image||^2 < 1 on every sample
    catalog: tuple[Fraction, ...]


_SAMPLE_SEED = 9
_CATALOG = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2))


def sample_coordinates(count: int, seed: int = _SAMPLE_SEED) -> list[Fraction]:
    """Deterministic nonzero rational samples (fixed seed)."""
    rng = random.Random(seed)
    out: list[Fraction] = []
    while len(out) < count:
        num = rng.randint(-999, 999)
        if num == 0:
            continue
        out.append(Fraction(num, rng.randint(1, 999)))
    return out


def embedding_checks(sample_count: int, accumulation_n: int = 1000) -> EmbeddingReport:
    """Run the exact embedding checks on the catalog plus random samples."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    xs = list(_CATALOG) + sample_coordinates(sample_count)
    identity_ok = True
    bounded_ok = True
    images = set()
    distinct = set(xs)
    for x in xs:
        p = embed_point(x)
        n2 = p.norm_sq()
        identity_ok = identity_ok and n2 * (1 + x * x) == x * x
        bounded_ok = bounded_ok and n2 < 1
        images.add((p.u, p.v))
    injective_ok = len(images) == len(distinct)
    accumulation_ok = True
    for n in range(1, accumulation_n + 1):
        for s in (1, -1):
            x = Fraction(s, n)
            if embed_point(x).norm_sq() > Fraction(1, n * n):
                accumulation_ok = False
    return EmbeddingReport(
        sample_count=sample_count,
        identity_ok=identity_ok,
        injective_ok=injective_ok,
        accumulation_ok=accumulation_ok,
        accumulation_n=accumulation_n,
        bounded_ok=bounded_ok,
        catalog=_CATALOG,
    )
