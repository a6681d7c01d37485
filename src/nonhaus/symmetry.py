"""Deck transformations and loop classification over the glued origins.

A deck transformation commutes with the projection.  The projection is
injective off the origins, so a deck transformation fixes every regular
point and can only permute the origins; every permutation works, giving a
group of order k!.  :func:`deck_rigidity` encodes the rejection rule for
candidates that move a regular point.

Loops are classified by their crossing word: one letter per sign-changing
passage through coordinate 0, carrying the origin label of the passage.
In the chart model, a downward and an upward crossing can only be merged
by a homotopy whose zero-set component is labeled by one common origin,
so adjacent same-origin letters cancel and nothing else does.  In the
ball model any origin relabeling is free, so every loop class is empty.
:func:`contract_loop` realizes empty classes by an explicit staged
homotopy, each stage accepted by the homotopy-lifting engine.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional

from .errors import NonHausError
from .lifting import (
    HomotopyField,
    HomotopyLiftRecord,
    LiftCertificate,
    NoLift,
    PLPath,
    attempt_homotopy_lift,
    dump_sha256,
    recheck_homotopy_record,
    times_str,
    zero_times,
)
from .space import CanonicalPoint, Origin, SpaceConfig, TopologyModel


@dataclass(frozen=True)
class DeckElement:
    """A permutation of the origin indices 1..k, given by its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(map(int, self.images)))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise NonHausError(f"{self.images} is not a permutation of 1..{len(self.images)}")

    @property
    def k(self) -> int:
        return len(self.images)

    def apply(self, i: int) -> int:
        if not 1 <= i <= self.k:
            raise NonHausError(f"origin {i} not in 1..{self.k}")
        return self.images[i - 1]

    def compose(self, other: "DeckElement") -> "DeckElement":
        """self after other: (self * other)(i) = self(other(i))."""
        if self.k != other.k:
            raise NonHausError("cannot compose permutations of different degree")
        return DeckElement(tuple(self.apply(other.apply(i)) for i in range(1, self.k + 1)))

    def inverse(self) -> "DeckElement":
        inv = [0] * self.k
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return DeckElement(tuple(inv))

    @classmethod
    def identity(cls, k: int) -> "DeckElement":
        return cls(tuple(range(1, k + 1)))


def deck_apply(g: DeckElement, p: CanonicalPoint) -> CanonicalPoint:
    """Permute origins, fix regular points (they are label-free).

    Origins all project to the accumulation point and ``pseudo_dist`` reads
    only coordinates, so g commutes with the projection, is an isometry, and
    is undone by ``g.inverse()``.
    """
    if isinstance(p, Origin):
        return Origin(g.apply(p.index))
    return p


@dataclass(frozen=True)
class DeckGroupTable:
    """All k! deck elements with their composition table.

    ``table[i][j]`` indexes elements[i] * elements[j]: row i is the left
    action of elements[i] on the indices, column j the right action of
    elements[j].  :func:`deck_group` composes whole rows; the table is proved
    only by :func:`recheck_deck_group`, which derives every column again and
    requires k! distinct elements.  ``homomorphism_ok`` and ``faithful_ok``
    are written ``True`` by construction and kept on the wire.
    """

    k: int
    elements: tuple[DeckElement, ...]
    table: tuple[tuple[int, ...], ...]
    homomorphism_ok: bool
    faithful_ok: bool
    noncommuting_pair: Optional[tuple[int, int]]


# the k for which the k! x k! table is built and re-checked
_TABLE_KS = range(2, 7)


def deck_group(k: int) -> DeckGroupTable:
    """All k! origin permutations and their composition table, checked by no one here.

    For an adjacent transposition s = (a a+1), s * h swaps the values a and
    a+1 in the images of h, which gives the row of s by lookup; a search
    from the identity fills the other rows by row(s * g) = row(s) o row(g).
    The flags are set by construction, and the table is proved by
    :func:`recheck_deck_group`, which ``audit`` and ``deck`` run.
    """
    if k not in _TABLE_KS:
        raise NonHausError(f"group table supported for 2 <= k <= 6, got {k}")
    perms = list(itertools.permutations(range(1, k + 1)))
    index = {p: i for i, p in enumerate(perms)}
    swaps = [(*range(a), a + 1, a, *range(a + 2, k + 1)) for a in range(1, k)]
    gens = [tuple(index[tuple(map(swap.__getitem__, p))] for p in perms) for swap in swaps]
    n = len(perms)
    rows: list = [tuple(range(n))] + [None] * (n - 1)  # permutations() yields the identity first
    queue = [0]
    for g in queue:  # the list grows as the search reaches new rows
        for s in gens:
            if rows[s[g]] is None:
                rows[s[g]] = itemgetter(*rows[g])(s)
                queue.append(s[g])
    table = tuple(rows)
    noncommuting = next(((i, j) for i, row in enumerate(table) for j, t in enumerate(row)
                         if t != table[j][i]), None)
    return DeckGroupTable(
        k=k,
        elements=tuple(map(DeckElement, perms)),
        table=table,
        homomorphism_ok=True,
        faithful_ok=True,
        noncommuting_pair=noncommuting,
    )


def recheck_deck_group(tbl: DeckGroupTable) -> list[str]:
    """Derive every column again and name the first wrong cell in row-major order.

    For an adjacent transposition s = (a a+1), g * s swaps the positions a
    and a+1 of the images of g, which gives the column of s by lookup; a
    search from the identity fills all k! columns by col(g * s) = col(s) o col(g).
    """
    # k comes from the report, so it is checked before factorial sees it
    if type(tbl.k) is not int or tbl.k not in _TABLE_KS:
        return [f"k={tbl.k!r} is outside the tabulated range 2..6"]
    n = math.factorial(tbl.k)
    images = [g.images for g in tbl.elements]
    if len(images) != n or len(set(images)) != n or any(g.k != tbl.k for g in tbl.elements):
        return [f"expected {n} distinct elements of degree {tbl.k}"]
    table = tbl.table
    shape = f"composition table is not {n} rows of {n} indices in 0..{n - 1}"
    # zip(*table) stops at the shortest row, so the shape is checked first
    if len(table) != n or any(len(row) != n for row in table):
        return [shape]
    where = {g: i for i, g in enumerate(images)}
    flips = [itemgetter(*range(a), a + 1, a, *range(a + 2, tbl.k)) for a in range(tbl.k - 1)]
    right = [tuple(map(where.__getitem__, map(flip, images))) for flip in flips]
    ident = where[tuple(range(1, tbl.k + 1))]
    cols = {ident: tuple(range(n))}
    frontier = deque([ident])
    while len(cols) < n:  # the search must reach every column
        g = frontier.popleft()
        for s in right:
            if s[g] not in cols:
                cols[s[g]] = itemgetter(*cols[g])(s)
                frontier.append(s[g])
    wrong = [(next(i for i, (c, d) in enumerate(zip(column, cols[j])) if c != d), j)
             for j, column in enumerate(zip(*table)) if column != cols[j]]
    if wrong:
        # every derived index lies in 0..n-1, so a cell out of range is
        # always a wrong cell, and the range is named before any one cell
        if not 0 <= min(map(min, table)) <= max(map(max, table)) < n:
            return [shape]
        i, j = min(wrong)
        return [f"composition table wrong at ({i}, {j})"]
    failures: list[str] = []
    pair = tbl.noncommuting_pair
    if tbl.k == 2:
        if pair is not None:
            failures.append(f"noncommuting pair {pair!r} recorded for the abelian group of k=2")
    elif not (type(pair) is tuple and len(pair) == 2
              and all(type(x) is int and 0 <= x < n for x in pair)
              and table[pair[0]][pair[1]] != table[pair[1]][pair[0]]):
        failures.append(f"noncommuting pair {pair!r} is not two indices whose products differ")
    if not (tbl.homomorphism_ok and tbl.faithful_ok):
        failures.append("recorded verification flags are not all set")
    return failures


@dataclass(frozen=True)
class RigidityVerdict:
    """Outcome of the deck-candidate rejection rule.

    A candidate that moves a regular point cannot commute with the
    projection: the recorded witness is the pair of distinct projected
    coordinates.  Pure origin permutations are accepted: the projection is
    injective on the regular locus, so a deck transformation fixes every
    regular point and is uniquely determined by its action on the origins.
    """

    accepted: bool
    permutation: DeckElement
    moved_witness: Optional[tuple[Fraction, Fraction]]


def deck_rigidity(
    permutation: DeckElement,
    moved_regular: tuple[tuple[Fraction, Fraction], ...] = (),
) -> RigidityVerdict:
    """Accept a candidate (origin permutation, regular part) iff the regular part is identity.

    ``moved_regular`` lists claimed moves x -> y of regular points; the
    first genuine move is rejected with the projected coordinates as witness.
    """
    moves = ((Fraction(x), Fraction(y)) for x, y in moved_regular)
    moved = next(((x, y) for x, y in moves if x != y), None)
    return RigidityVerdict(accepted=moved is None, permutation=permutation, moved_witness=moved)


# ---------------------------------------------------------------------------
# Loops, crossing words, contraction


@dataclass(frozen=True)
class LabeledLoop:
    """PL coordinate loop with an origin label at every zero time."""

    path: PLPath
    labels: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        labels = tuple(sorted((Fraction(t), int(i)) for t, i in self.labels))
        object.__setattr__(self, "labels", labels)
        c0, c1 = self.path.breakpoints[0][1], self.path.breakpoints[-1][1]
        if c0 == 0 or c0 != c1:
            raise ValueError("loop must start and end at one nonzero coordinate")
        zts = zero_times(self.path)
        have = [t for t, _ in labels]
        if have != zts:
            missing = sorted(set(zts) - set(have))
            raise NonHausError(
                f"labels {times_str(have)} do not match zero times {times_str(zts)}"
                + (f"; missing {times_str(missing)}" if missing else "")
            )

    def label_map(self) -> dict[Fraction, int]:
        return dict(self.labels)

    @property
    def basepoint(self) -> Fraction:
        return self.path.breakpoints[0][1]


def probe_loop(first: int, second: int) -> LabeledLoop:
    """Standard probe: down through one origin at t=1/4, up through another at t=3/4."""
    path = PLPath(
        (
            (Fraction(0), Fraction(1)),
            (Fraction(1, 4), Fraction(0)),
            (Fraction(1, 2), Fraction(-1)),
            (Fraction(3, 4), Fraction(0)),
            (Fraction(1), Fraction(1)),
        )
    )
    return LabeledLoop(path=path, labels=((Fraction(1, 4), first), (Fraction(3, 4), second)))


@dataclass(frozen=True)
class Word:
    """Crossing word: (origin index, direction) letters, +1 downward, -1 upward."""

    letters: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True, eq=True)
class ReducedWord(Word):
    """A word with no adjacent same-origin opposite-direction pair."""

    def __post_init__(self) -> None:
        for (i, s), (j, r) in zip(self.letters, self.letters[1:]):
            if i == j and s == -r:
                raise ValueError(f"adjacent cancelling pair at origin {i}")


def crossing_word(loop: LabeledLoop) -> Word:
    """One letter per sign-changing zero passage; touches emit no letter."""
    labels = loop.label_map()
    pts = loop.path.breakpoints
    letters = []
    for idx, (t, x) in enumerate(pts):
        if x != 0:
            continue
        before, after = pts[idx - 1][1], pts[idx + 1][1]
        if before > 0 > after:
            letters.append((labels[t], 1))
        elif before < 0 < after:
            letters.append((labels[t], -1))
    return Word(tuple(letters))


def reduce_word(w: Word) -> ReducedWord:
    """Cancel adjacent same-origin opposite-direction pairs until none remain.

    The stack pass yields the normal form; any cancellation order gives the
    same result (free reduction is confluent).
    """
    stack: list[tuple[int, int]] = []
    for letter in w.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return ReducedWord(tuple(stack))


def loop_class(loop: LabeledLoop, cfg: SpaceConfig) -> ReducedWord:
    """Loop class under the model: crossing word reduced (chart) or empty (ball);
    ``LabeledLoop`` has already matched the labels to the zero times."""
    if cfg.model is TopologyModel.PSEUDOMETRIC:
        return ReducedWord(())
    return reduce_word(crossing_word(loop))


@dataclass(frozen=True)
class ContractionStage:
    """One homotopy stage: a field, its boundary assignment, and the acceptance."""

    stage_kind: str  # "remove-touch" | "remove-crossing-pair" | "straighten"
    field: HomotopyField
    assignment: tuple[tuple[Fraction, int], ...]
    certificate: LiftCertificate
    removed: tuple[Fraction, ...]
    top: PLPath
    top_labels: tuple[tuple[Fraction, int], ...]


@dataclass(frozen=True)
class ContractionCertificate:
    """Chain of accepted stages from the loop to the constant loop."""

    loop: LabeledLoop
    model: str
    stages: tuple[ContractionStage, ...]
    basepoint: Fraction


def _stage_field(path: PLPath, new_values: dict[Fraction, Fraction]) -> HomotopyField:
    """Linear-in-t field from the path (bottom) to the edited path (top)."""
    s_breaks = tuple(t for t, _ in path.breakpoints)
    bottom = {t: x for t, x in path.breakpoints}
    top = dict(bottom)
    top.update(new_values)
    values = tuple((bottom[s], top[s]) for s in s_breaks)
    return HomotopyField(s_breaks=s_breaks, t_breaks=(Fraction(0), Fraction(1)), values=values)


def _flanks(path: PLPath, t: Fraction) -> tuple[int, Fraction, Fraction]:
    """Index of the breakpoint at t and the coordinates of its two neighbours."""
    pts = path.breakpoints
    idx = next(i for i, (bt, _) in enumerate(pts) if bt == t)
    return idx, pts[idx - 1][1], pts[idx + 1][1]


def _remove_excursion(path: PLPath, ia: int, ib: int) -> dict[Fraction, Fraction]:
    """Straighten the stretch of breakpoints ia..ib between its nonzero flanks."""
    pts = path.breakpoints
    p, cp = pts[ia - 1]
    q, cq = pts[ib + 1]
    out = {}
    for t, _ in pts[ia : ib + 1]:
        out[t] = cp + (cq - cp) * (t - p) / (q - p)
    return out


def contract_loop(loop: LabeledLoop, cfg: SpaceConfig) -> ContractionCertificate:
    """Stage-by-stage contraction of a null-class loop to its basepoint.

    Touch passages are pushed off zero first (their zero component touches
    the boundary at a single time, so any label is admissible); crossing
    pairs are then removed one cancellation at a time, each stage's zero
    component touching exactly the two boundary times of the pair.  In the
    chart model the pair must carry one common origin, mirroring the word
    reduction; in the ball model any adjacent pair may be merged.  A final
    straight-line stage with empty zero set reaches the constant loop.  Every
    stage is accepted once the class is empty; :func:`recheck_contraction` proves it.
    """
    word = loop_class(loop, cfg)
    if len(word) != 0:
        raise NonHausError(f"loop class {word.letters} is nonempty in {cfg.model.value}")
    stages: list[ContractionStage] = []
    path, labels, base = loop.path, loop.label_map(), loop.basepoint
    kind = ""
    while kind != "straighten":
        zts = zero_times(path)
        flanks = {t: _flanks(path, t) for t in zts}
        touches = [t for t in zts if flanks[t][1] * flanks[t][2] > 0]
        if not zts:
            kind, removed = "straighten", ()
            new_values = {t: base for t, _ in path.breakpoints}
        elif touches:
            kind, removed = "remove-touch", (touches[0],)
            _, before, after = flanks[touches[0]]
            new_values = {touches[0]: (1 if before > 0 else -1) * min(abs(before), abs(after)) / 2}
        else:
            pairs = zip(zts, zts[1:])
            if cfg.model is TopologyModel.QUOTIENT:
                pairs = (pair for pair in pairs if labels[pair[0]] == labels[pair[1]])
            removed = next(pairs)
            kind = "remove-crossing-pair"
            new_values = _remove_excursion(path, flanks[removed[0]][0], flanks[removed[1]][0])
        field = _stage_field(path, new_values)
        assignment = {t: labels[t] for t in zts}
        certificate = attempt_homotopy_lift(field, assignment, cfg, paper_constancy=False)
        path = field.top_path()
        labels = {t: i for t, i in labels.items() if t not in removed}
        stages.append(
            ContractionStage(
                stage_kind=kind,
                field=field,
                assignment=tuple(sorted(assignment.items())),
                certificate=certificate,
                removed=removed,
                top=path,
                top_labels=tuple(sorted(labels.items())),
            )
        )
    return ContractionCertificate(
        loop=loop, model=cfg.model.value, stages=tuple(stages), basepoint=base
    )


def recheck_contraction(cert: ContractionCertificate, k: int) -> list[str]:
    """Re-check each stage through :func:`recheck_homotopy_record`, then the chain.

    Stage messages are prefixed ``stage {n}: ``.  The chain checks are this
    function's own: each bottom edge continues the previous top path, every
    stage is accepted, and the last top path is constant at the basepoint.
    """
    failures: list[str] = []
    current = cert.loop.path
    for n, stage in enumerate(cert.stages):
        if stage.field.bottom_path() != current:
            failures.append(f"stage {n}: bottom edge does not chain from the previous stage")
        record = HomotopyLiftRecord(field_sha256=dump_sha256(stage.field),
                                    assignment=stage.assignment, model=cert.model,
                                    paper_constancy=False, result=stage.certificate)
        failures += [f"stage {n}: {msg}" for msg in recheck_homotopy_record(record, stage.field, k)]
        if isinstance(stage.certificate, NoLift):
            failures.append(f"stage {n}: stage is not accepted")
        if stage.top != stage.field.top_path():
            failures.append(f"stage {n}: recorded top path mismatch")
        current = stage.top
    if any(x != cert.basepoint for _, x in current.breakpoints):
        failures.append("final stage does not reach the constant loop at the basepoint")
    return failures
