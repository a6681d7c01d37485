"""Path and homotopy lifting through the glued origins.

Paths in the base are piecewise-linear rational coordinate functions on
[0, 1].  Lifting is trivial over the regular locus (the projection is
injective there); all freedom sits at the zero times, where a lift picks
one of the k origins.  Lifts of a path are therefore enumerable, and a
homotopy lift reduces to an origin assignment on the zero set of the
homotopy's coordinate field.

Homotopy fields are values on a rational grid, interpolated affinely on
the two triangles of each cell (all cells split along the same diagonal,
lower-left to upper-right).  The zero set of such a field is an exact PL
1-complex.  The lifting verdict reads its components from grid positions
alone and builds exact crossings only where they touch the bottom edge;
:func:`extract_zero_set` gives every segment's exact endpoints.  The
connected components carry the lifting constraints:

* chart model: an origin assignment must be constant on every connected
  zero component, because the chart of one origin contains no other
  origin, so assignments are locally constant along the zero set;
* ball model: the origin set has pseudometric diameter zero, so every
  pointwise assignment is continuous and lifts exist non-uniquely.  The
  optional constancy rule instead forces one origin across the whole zero
  set, reproducing the verdict that treats origin-valued maps as constant.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .embedding import BasePoint
from .errors import NonHausError
from .projection import project
from .space import (
    CanonicalPoint,
    Origin,
    Regular,
    SpaceConfig,
    TopologyModel,
)


@dataclass(frozen=True)
class PLPath:
    """Piecewise-linear rational coordinate function on [0, 1].

    Construction normalizes the data: any segment whose endpoints have
    opposite signs is split at its interior root, so after construction
    the coordinate vanishes only at breakpoints.  Plateaus at zero are not
    rejected here; operations that need isolated zero times raise
    NonHausError when they meet one.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = [(t if type(t) is Fraction else Fraction(t), x if type(x) is Fraction else Fraction(x))
               for t, x in self.breakpoints]
        if len(pts) < 2:
            raise ValueError("a path needs at least two breakpoints")
        if pts[0][0] != 0 or pts[-1][0] != 1:
            raise ValueError("parameter must span [0, 1]")
        for (t0, _), (t1, _) in zip(pts, pts[1:]):
            if not t0 < t1:
                raise ValueError("breakpoint parameters must be strictly increasing")
        normalized: list[tuple[Fraction, Fraction]] = []
        for (t0, x0), (t1, x1) in zip(pts, pts[1:]):
            normalized.append((t0, x0))
            if x0 < 0 < x1 or x1 < 0 < x0:
                root = t0 + (t1 - t0) * x0 / (x0 - x1)
                normalized.append((root, Fraction(0)))
        normalized.append(pts[-1])
        object.__setattr__(self, "breakpoints", tuple(normalized))

    def eval(self, t: Fraction) -> Fraction:
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise ValueError(f"parameter {t} outside [0, 1]")
        pts = self.breakpoints
        for (t0, x0), (t1, x1) in zip(pts, pts[1:]):
            if t0 <= t <= t1:
                if t == t0:
                    return x0
                return x0 + (x1 - x0) * (t - t0) / (t1 - t0)


def zero_times(path: PLPath) -> list[Fraction]:
    """Sorted parameters where the coordinate vanishes; rejects plateaus."""
    times = []
    pts = path.breakpoints
    for idx, (t, x) in enumerate(pts):
        if x == 0:
            if idx + 1 < len(pts) and pts[idx + 1][1] == 0:
                raise NonHausError(f"coordinate stays 0 on [{t}, {pts[idx + 1][0]}]")
            times.append(t)
    return times


def times_str(times: list[Fraction]) -> str:
    return f"[{', '.join(map(str, times))}]"


def bounce_path(x0: Fraction) -> PLPath:
    """Path from x0 through coordinate 0 at t = 1/2 and back to x0."""
    x0 = Fraction(x0)
    if x0 <= 0:
        raise NonHausError(f"basepoint must be positive, got {x0}")
    return PLPath(((Fraction(0), x0), (Fraction(1, 2), Fraction(0)), (Fraction(1), x0)))


@dataclass(frozen=True)
class LiftedPath:
    """A lift: the base path plus one canonical point per breakpoint.

    The regular part is forced (the projection is injective off the
    origins); origin choices at zero times are the only freedom.  The
    record is not validated on construction; :func:`verify_lift_continuity`
    performs the checks and reports a witness on mismatch.
    """

    base: PLPath
    values: tuple[CanonicalPoint, ...]

    @property
    def start(self) -> CanonicalPoint:
        return self.values[0]

    def origin_choices(self) -> tuple[tuple[Fraction, int], ...]:
        out = []
        for (t, x), v in zip(self.base.breakpoints, self.values):
            if x == 0 and isinstance(v, Origin):
                out.append((t, v.index))
        return tuple(out)

    def point_at(self, t: Fraction) -> CanonicalPoint:
        t = Fraction(t)
        for (bt, _), v in zip(self.base.breakpoints, self.values):
            if bt == t:
                return v
        return Regular(self.base.eval(t))


# Largest k^m that lift_product admits or attempt_homotopy_lift lists; the
# count is known from the choices, so it is checked before any is built.
MAX_LIFTS = 4096


class LiftProduct:
    """All lifts of a path from one start, as a value: the base path and, per
    breakpoint, the tuple of values a lift may take there.

    The lifts are the product of these choices.  :meth:`count` multiplies
    the tuple sizes, and iteration builds each lift on demand, in
    lexicographic origin order.
    """

    __slots__ = ("base", "options")

    def __init__(self, base: PLPath, options: tuple[tuple[CanonicalPoint, ...], ...]) -> None:
        self.base, self.options = base, options

    def count(self) -> int:
        return math.prod(map(len, self.options))

    def __iter__(self) -> Iterator[LiftedPath]:
        base = self.base
        return (LiftedPath(base, values) for values in itertools.product(*self.options))


def lift_product(path: PLPath, start: CanonicalPoint, cfg: SpaceConfig) -> LiftProduct:
    """The lifts of the path from the given start, as a product of per-breakpoint choices.

    The choices are Regular(x) off the zero times, the start at t = 0 and
    each origin 1..k at any other zero time, all valid by the rules of
    :func:`verify_lift_continuity`.  With m free zero times there are
    exactly k^m lifts; more than MAX_LIFTS raise NonHausError before any is
    built.  A start over coordinate 0 must be an origin in 1..k and pins
    that zero time's choice.
    """
    free = len(zero_times(path))
    pts = path.breakpoints
    c0 = pts[0][1]
    if c0 == 0:
        if not isinstance(start, Origin):
            raise NonHausError("path starts at coordinate 0; start must be an origin")
        if start.index > cfg.k:
            raise NonHausError(f"origin {start.index} not in 1..{cfg.k}")
        free -= 1
    elif start != Regular(c0):
        raise NonHausError(f"start {start} does not project onto coordinate {c0}")
    if cfg.k ** free > MAX_LIFTS:
        raise NonHausError(f"{cfg.k}^{free} lifts exceed the limit of {MAX_LIFTS}")
    # the limit bounds k only where a zero time is free to choose an origin
    origins = tuple(Origin(i) for i in range(1, cfg.k + 1)) if free else ()
    return LiftProduct(path, tuple((Regular(x),) if x != 0 else (start,) if idx == 0 else origins
                                   for idx, (_, x) in enumerate(pts)))


def enumerate_lifts(path: PLPath, start: CanonicalPoint, cfg: SpaceConfig) -> list[LiftedPath]:
    """Every lift of :func:`lift_product`, built, in its lexicographic order;
    its checks and errors are those of lift_product."""
    return list(lift_product(path, start, cfg))


@dataclass(frozen=True)
class ContinuityVerdict:
    """Result of lift verification: ``ok``, or the first value that breaks the local rules."""

    ok: bool
    witness: Optional[str] = None


def _breakpoint_fault(t: Fraction, x: Fraction, v: CanonicalPoint, k: int) -> Optional[str]:
    """Why ``v`` cannot be a lift's value at time t over coordinate x; None if it can.

    Lift validity is local: the value projects onto the coordinate, which
    forces Regular(x) over x != 0 and an origin over 0, and that origin is
    one of 1..k.  Neither model tests the neighbours: ``zero_times``
    rejects plateaus first, so the path nears each zero time through regular
    points, which enter every chart of the chosen origin.
    """
    if project(v) != BasePoint(x):
        return f"projection mismatch at t={t}: lift value {v} over coordinate {x}"
    if x == 0 and v.index > k:
        return f"zero time t={t} does not carry a valid origin"
    return None


def verify_lift_continuity(lift: LiftedPath, cfg: SpaceConfig) -> ContinuityVerdict:
    """Check every breakpoint value by the local rules of :func:`_breakpoint_fault`."""
    zero_times(lift.base)  # plateau inputs are rejected, not reported as verdicts
    pts = lift.base.breakpoints
    if len(lift.values) != len(pts):
        witness = "value list does not match breakpoints"
    else:
        faults = (_breakpoint_fault(t, x, v, cfg.k) for (t, x), v in zip(pts, lift.values))
        witness = next(filter(None, faults), None)
    return ContinuityVerdict(ok=witness is None, witness=witness)


@dataclass(frozen=True)
class MonodromyObstruction:
    """k distinct lifts of one loop from one start point.

    A fibre action by loops needs unique lifting; this certificate shows
    the prerequisite failing on the bounce path: all recorded lifts share
    their start point and project onto the first one's path, yet differ at a
    zero time.  The basepoint is the path's start.  Lift validity is local and
    the same in both models (:func:`_breakpoint_fault`), and so is this fact.
    """

    lifts: tuple[LiftedPath, ...]


def monodromy_verdict(x0: Fraction, cfg: SpaceConfig) -> MonodromyObstruction:
    return MonodromyObstruction(tuple(enumerate_lifts(bounce_path(x0), Regular(x0), cfg)))


def recheck_monodromy(cert: MonodromyObstruction, k: int) -> list[str]:
    """k valid lifts over one path from one start, for the report's k, with strictly
    increasing origin choices (the order of :func:`enumerate_lifts`), so no two are equal."""
    failures: list[str] = []
    cfg = SpaceConfig(k)
    if len(cert.lifts) != k:
        failures.append(f"expected {k} lifts, certificate holds {len(cert.lifts)}")
    starts = {lift.start for lift in cert.lifts}
    if len(starts) != 1:
        failures.append("lifts do not share a start point")
    for n, lift in enumerate(cert.lifts):
        if lift.base != cert.lifts[0].base:
            failures.append(f"lift {n} is over a different path")
        if not verify_lift_continuity(lift, cfg).ok:
            failures.append(f"lift {n} fails verification")
    # the base, checked above, fixes the zero times, so the origins alone order the lifts
    choices = [tuple(i for _, i in lift.origin_choices()) for lift in cert.lifts]
    failures += [f"lift {n} does not follow lift {n - 1} in origin order"
                 for n in range(1, len(choices)) if choices[n] <= choices[n - 1]]
    return failures


# ---------------------------------------------------------------------------
# Homotopy fields and the exact zero-set complex


class RationalGrid:
    """Exact rationals as tuples of rows: reduced numerators ``nums``, positive
    denominators ``dens`` and numerator ``signs``.  The form is canonical, so grids
    of equal values hold equal ints; ``grid[a]`` builds row a's Fractions.

    ``lines`` holds each row's canonical text, ``"%d/%d"`` tokens joined by
    single spaces, which the writers print: a row read as such text keeps its
    line, any other is formatted on first use (a value too long to print
    fails only when printed)."""

    __slots__ = ("nums", "dens", "signs", "_lines")

    def __init__(self, nums: tuple[tuple[int, ...], ...], dens: tuple[tuple[int, ...], ...],
                 lines: Optional[tuple[Optional[str], ...]] = None) -> None:
        self.nums, self.dens, self._lines = nums, dens, lines or (None,) * len(nums)
        self.signs = tuple([tuple([(n > 0) - (n < 0) for n in row]) for row in nums])

    @property
    def lines(self) -> tuple[str, ...]:
        if None in self._lines:
            self._lines = tuple([ln or " ".join(map("%d/%d".__mod__, zip(n, d)))
                                 for ln, n, d in zip(self._lines, self.nums, self.dens)])
        return self._lines

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, a: int) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.nums[a], self.dens[a]))

    def __eq__(self, other: object) -> bool:
        return type(other) is RationalGrid and (self.nums, self.dens) == (other.nums, other.dens)

    def __hash__(self) -> int:
        return hash((self.nums, self.dens))


@dataclass(frozen=True)
class HomotopyField:
    """Coordinate field of a homotopy on a triangulated rational grid.

    ``values[a][b]`` is the value at (s_breaks[a], t_breaks[b]).  Each cell
    is split into two triangles along the diagonal from its lower-left to
    its upper-right corner; the field is affine on every triangle and
    continuous by shared vertex values.  A triangle whose three vertex
    values vanish is rejected: its zero set would be two-dimensional.
    Values are exact rationals (``Fraction`` or ``int``) and are held as a
    :class:`RationalGrid`; rows given in any other form are converted to one.
    """

    s_breaks: tuple[Fraction, ...]
    t_breaks: tuple[Fraction, ...]
    values: RationalGrid

    def __post_init__(self) -> None:
        s, t = tuple(self.s_breaks), tuple(self.t_breaks)
        vals = self.values
        if type(vals) is not RationalGrid:  # rows of Fractions and ints
            rows = tuple(map(tuple, vals))
            vals = RationalGrid(tuple(tuple(v.numerator for v in row) for row in rows),
                                tuple(tuple(v.denominator for v in row) for row in rows))
        for breaks in (s, t):
            if len(breaks) < 2 or breaks[0] != 0 or breaks[-1] != 1:
                raise ValueError("grid breaks must span [0, 1]")
            if any(not a < b for a, b in zip(breaks, breaks[1:])):
                raise ValueError("grid breaks must be strictly increasing")
        if len(vals) != len(s) or any(len(row) != len(t) for row in vals.nums):
            raise ValueError("value grid does not match the breaks")
        object.__setattr__(self, "s_breaks", s)
        object.__setattr__(self, "t_breaks", t)
        object.__setattr__(self, "values", vals)
        signs = vals.signs
        for a, (r0, r1) in enumerate(zip(signs, signs[1:])):
            for b in range(len(t) - 1) if 0 in r0 and 0 in r1 else ():
                for tri in _CELL_TRIANGLES:
                    if not any(signs[a + da][b + db] for da, db in tri):
                        corners = ", ".join(f"({s[a + da]}, {t[b + db]})" for da, db in tri)
                        raise NonHausError(f"triangle {corners} is identically zero")

    def value_at(self, s: Fraction, t: Fraction) -> Fraction:
        s, t = Fraction(s), Fraction(t)
        a = _cell_index(self.s_breaks, s)
        b = _cell_index(self.t_breaks, t)
        s0, s1 = self.s_breaks[a], self.s_breaks[a + 1]
        t0, t1 = self.t_breaks[b], self.t_breaks[b + 1]
        fs, ft = (s - s0) / (s1 - s0), (t - t0) / (t1 - t0)
        r0, r1 = self.values[a], self.values[a + 1]
        v00, v01, v10, v11 = r0[b], r0[b + 1], r1[b], r1[b + 1]
        if ft <= fs:  # lower triangle: (s0,t0), (s1,t0), (s1,t1)
            return v00 + (v10 - v00) * fs + (v11 - v10) * ft
        return v00 + (v01 - v00) * ft + (v11 - v01) * fs

    def bottom_path(self) -> PLPath:
        return PLPath(tuple((s, Fraction(n[0], d[0])) for s, n, d in
                            zip(self.s_breaks, self.values.nums, self.values.dens)))

    def top_path(self) -> PLPath:
        return PLPath(tuple((s, Fraction(n[-1], d[-1])) for s, n, d in
                            zip(self.s_breaks, self.values.nums, self.values.dens)))


# A cell's lower then upper triangle: vertex offsets from its corner, in reading order.
_CELL_TRIANGLES = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))


def _cell_index(breaks: tuple[Fraction, ...], v: Fraction) -> int:
    """Index of the cell holding v; the last break belongs to the last cell."""
    if not breaks[0] <= v <= breaks[-1]:
        raise ValueError(f"{v} outside the grid")
    return min(bisect.bisect_right(breaks, v), len(breaks) - 1) - 1


def make_merging_field() -> HomotopyField:
    """The two-crossing field whose zero set merges both zero times.

    Bottom edge is the double-dip path through (0, 3/16), (1/4, 0),
    (1/2, -1/16), (3/4, 0), (1, 3/16); the field adds t/8, so the top edge
    is strictly positive and the zero set is a single arc joining the
    bottom zero times 1/4 and 3/4 with apex (1/2, 1/2).
    """
    f0 = {
        Fraction(0): Fraction(3, 16),
        Fraction(1, 4): Fraction(0),
        Fraction(1, 2): Fraction(-1, 16),
        Fraction(3, 4): Fraction(0),
        Fraction(1): Fraction(3, 16),
    }
    s_breaks = tuple(f0)
    t_breaks = (Fraction(0), Fraction(1))
    values = tuple(tuple(f0[s] + t / 8 for t in t_breaks) for s in s_breaks)
    return HomotopyField(s_breaks=s_breaks, t_breaks=t_breaks, values=values)


Node = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class ZeroSegment:
    """Exact zero segment of one triangle; a == b marks a single touch point."""

    a: Node
    b: Node


@dataclass(frozen=True)
class ZeroComponent:
    index: int
    segments: tuple[int, ...]
    bottom_touches: tuple[Fraction, ...]


@dataclass(frozen=True)
class ZeroSetComplex:
    """Zero set of a field as segments plus endpoint-identified components."""

    segments: tuple[ZeroSegment, ...]
    components: tuple[ZeroComponent, ...]


def _triangle_rule(g: tuple[int, ...]) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """Endpoint positions of the zero segment of a triangle whose corner signs,
    in reading order, are g, or None: (i, i) for a zero corner i and (i, j)
    for the crossing inside the edge i-j, in the order listed, which fixes the
    segment's orientation; a lone zero corner is a single touch point."""
    ends = [(i, j) for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
            if g[i] * g[j] < 0 or i == j and not g[i]]
    return (ends[0], ends[-1]) if ends else None


# _triangle_rule for each of the 26 sign triples that construction admits.
_TRIANGLE_ENDS = {g: _triangle_rule(g) for g in itertools.product((-1, 0, 1), repeat=3) if any(g)}

# Endpoint names: grid vertex (a, b) is a * nt + b, in [0, n) for n vertices;
# the crossing inside the edge between vertices p < q is (p + 1) * n + q.


def _edge_name(n: int, p: int, q: int) -> int:
    return (min(p, q) + 1) * n + max(p, q)


def _edge_zero(p: Node, a: int, b: int, q: Node, c: int, d: int) -> Node:
    """Exact zero of the affine function on the edge p-q (signs must differ).

    With values a/b at p and c/d at q the zero sits at lam = ad / (ad - cb)
    along the edge, so a coordinate moving from x to y is (ad y - cb x) / (ad - cb):
    one Fraction from integer cross-products, the same normalised value as
    x + lam (y - x).  A coordinate the edge does not move along (on the
    grid, one break object shared by both ends) is p's own; the formula
    gives the same value for equal coordinates that are distinct objects.
    """
    wp, wq = a * d, c * b
    return tuple([
        x if x is y else Fraction(
            wp * y.numerator * x.denominator - wq * x.numerator * y.denominator,
            (wp - wq) * x.denominator * y.denominator)
        for x, y in zip(p, q)
    ])


def _points(field: HomotopyField, names: Iterable[int]) -> dict[int, Node]:
    """Exact coordinates of the named endpoints."""
    s, t, nums, dens = field.s_breaks, field.t_breaks, field.values.nums, field.values.dens
    nt, n = len(t), len(s) * len(t)

    def vertex(v: int) -> tuple[Node, int, int]:
        return (s[v // nt], t[v % nt]), nums[v // nt][v % nt], dens[v // nt][v % nt]

    return {name: vertex(name)[0] if name < n else
            _edge_zero(*vertex(name // n - 1), *vertex(name % n)) for name in names}


def _zero_pass(field: HomotopyField) -> tuple[list[tuple[int, int]], tuple[ZeroComponent, ...]]:
    """The endpoint names of every zero segment, and the components they form.

    One scan reads each triangle's zero segment from its vertex signs alone;
    triangles meet only in shared vertices and edges, so a union-find over
    names recovers the components exactly.  Coordinates are built only for
    the bottom-row names, a vertex (a, 0) or the crossing inside the edge
    from it to (a + 1, 0): no other zero point has t = 0.
    """
    signs = field.values.signs
    nt, n = len(field.t_breaks), len(field.s_breaks) * len(field.t_breaks)
    # _TRIANGLE_ENDS on the lower and upper triangle of a cell whose first vertex is v:
    # each endpoint's name as (m, c), the name being m * v + c
    lower, upper = ({g: rule and tuple((1, corners[i]) if i == j else
                                       (n + 1, _edge_name(n, corners[i], corners[j]))
                                       for i, j in rule) for g, rule in _TRIANGLE_ENDS.items()}
                    for corners in ((0, nt, nt + 1), (0, nt + 1, 1)))
    ends: list[tuple[int, int]] = []
    for a, (r0, r1) in enumerate(zip(signs, signs[1:])):
        if r0 == r1 and 0 not in r0 and (1 not in r0 or -1 not in r0):
            continue  # two rows of one nonzero sign
        for b, (g00, g01, g10, g11) in enumerate(zip(r0, r0[1:], r1, r1[1:])):
            if g00 == g01 == g10 == g11 != 0:
                continue  # a cell of one nonzero sign
            v = a * nt + b
            for rule in (lower[g00, g10, g11], upper[g00, g11, g01]):
                if rule is not None:
                    (m0, c0), (m1, c1) = rule
                    ends.append((m0 * v + c0, m1 * v + c1))
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    for x, y in ends:
        parent[find(y)] = find(x)
    roots: dict[int, list[int]] = {}  # in the order of each component's first segment
    for idx, (x, _) in enumerate(ends):
        roots.setdefault(find(x), []).append(idx)
    touches: dict[int, set[Fraction]] = {root: set() for root in roots}
    rows = range(0, n, nt)
    bottom = itertools.chain(rows, (_edge_name(n, v, v + nt) for v in rows[:-1]))
    for name, (s, _) in _points(field, (name for name in bottom if name in parent)).items():
        touches[find(name)].add(s)
    components = tuple(
        ZeroComponent(index=comp_idx, segments=tuple(members),
                      bottom_touches=tuple(sorted(touches[root])))
        for comp_idx, (root, members) in enumerate(roots.items())
    )
    return ends, components


def extract_zero_set(field: HomotopyField) -> ZeroSetComplex:
    """Per-triangle zero segments with exact endpoints, grouped into components:
    the pass of :func:`_zero_pass`, then every endpoint name's coordinates."""
    ends, components = _zero_pass(field)
    points = _points(field, {name for end in ends for name in end})
    segments = tuple(ZeroSegment(points[x], points[y]) for x, y in ends)
    return ZeroSetComplex(segments=segments, components=components)


# ---------------------------------------------------------------------------
# Homotopy lifting


@dataclass(frozen=True)
class LiftsEnumerated:
    """All admissible per-component origin assignments, lexicographically.

    In the quotient model the chart of one origin contains no other origin,
    so a continuous origin assignment is constant along every connected
    zero component; under the constancy rule it is constant across the
    whole zero set.
    """

    assignments: tuple[tuple[tuple[int, int], ...], ...]  # ((component, origin), ...)


@dataclass(frozen=True)
class NoLift:
    """Conflict certificate: one component meets incompatible boundary origins.

    ``component`` indexes the zero-set component carrying the conflict;
    None marks the global-constancy rule, which treats any origin-valued
    map as constant across the whole zero set, as one component.  Either
    way the assignment must be constant where the conflict sits, so the
    incompatible boundary origins leave no lift.
    """

    component: Optional[int]
    constraints: tuple[tuple[Fraction, int], ...]


@dataclass(frozen=True)
class NonUniqueExistence:
    """Ball-model outcome: lifts exist and are wildly non-unique.

    The origin set has pseudometric diameter zero, so every pointwise
    origin assignment on the zero set yields a continuous lift: the k^c
    component-constant assignments over ``component_count`` = c
    components, and arbitrary pointwise assignments as well.
    """

    component_count: int


LiftCertificate = Union[LiftsEnumerated, NoLift, NonUniqueExistence]


def attempt_homotopy_lift(
    field: HomotopyField,
    bottom_assignment: dict[Fraction, int],
    cfg: SpaceConfig,
    paper_constancy: bool = False,
) -> LiftCertificate:
    """Decide whether the boundary origin assignment extends over the field.

    The regular part of any lift is forced; only the origin choices on the
    zero set are in question.  The assignment must be defined exactly on
    the zero times of the bottom edge.  ``paper_constancy`` applies the
    constancy rule in the pseudometric model only; the quotient model
    decides by its chart rule, and its outcome is the same either way.
    More than MAX_LIFTS assignments raise NonHausError before any is built.
    """
    bottom = field.bottom_path()
    zts = zero_times(bottom)
    assignment = {Fraction(t): int(i) for t, i in bottom_assignment.items()}
    if set(assignment) != set(zts):
        raise NonHausError(f"assignment domain {times_str(sorted(assignment))} "
                           f"!= zero times {times_str(zts)}")
    for origin in assignment.values():
        if not 1 <= origin <= cfg.k:
            raise NonHausError(f"origin {origin} not in 1..{cfg.k}")
    _, components = _zero_pass(field)
    if cfg.model is TopologyModel.QUOTIENT:
        groups = [(comp.index, (comp,), tuple((s, assignment[s]) for s in comp.bottom_touches))
                  for comp in components]
    elif paper_constancy:
        groups = [(None, components, tuple(sorted(assignment.items())))] if components else []
    else:
        return NonUniqueExistence(component_count=len(components))
    # each group of components takes one origin: its single constrained one, or any
    choices = []
    for index, comps, constraints in groups:
        constrained = sorted({origin for _, origin in constraints})
        if len(constrained) > 1:
            return NoLift(component=index, constraints=constraints)
        choices.append((comps, constrained or range(1, cfg.k + 1)))
    free = sum(len(origins) > 1 for _, origins in choices)
    if cfg.k ** free > MAX_LIFTS:
        raise NonHausError(f"{cfg.k}^{free} assignments exceed the limit of {MAX_LIFTS}")
    assignments = tuple(
        tuple((comp.index, origin) for (comps, _), origin in zip(choices, combo) for comp in comps)
        for combo in itertools.product(*(origins for _, origins in choices))
    )
    return LiftsEnumerated(assignments=assignments)


@dataclass(frozen=True)
class HomotopyLiftRecord:
    """Self-contained certificate: inputs plus the lifting outcome."""

    field: HomotopyField
    assignment: tuple[tuple[Fraction, int], ...]
    model: str
    paper_constancy: bool
    result: LiftCertificate


def homotopy_lift_record(
    field: HomotopyField,
    bottom_assignment: dict[Fraction, int],
    cfg: SpaceConfig,
    paper_constancy: bool = False,
) -> HomotopyLiftRecord:
    result = attempt_homotopy_lift(field, bottom_assignment, cfg, paper_constancy)
    return HomotopyLiftRecord(
        field=field,
        assignment=tuple(sorted((Fraction(t), int(i)) for t, i in bottom_assignment.items())),
        model=cfg.model.value,
        paper_constancy=paper_constancy,
        result=result,
    )


def recheck_homotopy_record(record: HomotopyLiftRecord, k: int) -> list[str]:
    """Re-run the component computation and compare with the recorded outcome.

    The only re-check that runs :func:`attempt_homotopy_lift`.  It is on no
    report's path, as no report carries a homotopy record; contraction
    stages are re-checked through it.  A recomputed ``NoLift`` always names
    two distinct origins, so equality covers the conflict too.
    """
    cfg = SpaceConfig(k, TopologyModel(record.model))
    try:
        result = attempt_homotopy_lift(
            record.field, dict(record.assignment), cfg, record.paper_constancy
        )
    except NonHausError as exc:
        return [f"recorded inputs are rejected: {exc}"]
    if result != record.result:
        return ["recomputed lifting outcome differs from the recorded one"]
    return []
