"""Claims-audit table: every headline property of the construction, per model.

The table is declared once, in ``CLAIMS``.  Each row states a claim about
the glued line or its projection and gives a verdict under both topology
models.  Machine-checked verdicts carry a reference to an embedded
certificate that can be re-derived from scratch; rows about frameworks
outside the modelled scope (loop-space groupoids, stack atlases) are
static and carry a citation note only.

``run_audit`` builds the certificates and attaches the declared table.
``recheck_report`` diffs a report's table against the declared one,
re-derives every certificate, and requires each certificate to prove the
verdict of every cell that cites it.  That verdict is read from the
certificate's own fields by the claim's rules, which call none of the
functions that produced the certificate.  Several cells may cite one
certificate: both membership rows cite ``membership:{model}``,
``pi1-trivial`` and ``contractible`` share their proofs, and the deck
table proves both the symmetry row and the subgroup row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Any, Callable, Optional, Union

from .errors import NonHausError
from .lifting import (
    HomotopyLiftRecord,
    MonodromyObstruction,
    NoLift,
    NonUniqueExistence,
    homotopy_lift_record,
    make_merging_field,
    monodromy_verdict,
    recheck_homotopy_record,
    recheck_monodromy,
)
from .projection import (
    EvenCoverFailure,
    OriginJoinPath,
    SectionWitness,
    even_cover_certificate,
    preimage_connected_certificate,
    recheck_even_cover,
    recheck_origin_join,
    recheck_section_witness,
    section_witness,
)
from .space import (
    Ball,
    CanonicalPoint,
    MembershipRecord,
    Origin,
    OriginChart,
    Regular,
    SeparationVerdict,
    SpaceConfig,
    TopologyModel,
    basic_open,
    open_contains,
    opens_intersect,
    pseudo_dist,
    separation_report,
)
from .symmetry import (
    _TABLE_KS,
    DeckGroupTable,
    LabeledLoop,
    ReducedWord,
    deck_group,
    loop_class,
    probe_loop,
    recheck_deck_group,
)

SCHEMA_VERSION = "nonhaus-report/3"

MODELS = (TopologyModel.QUOTIENT, TopologyModel.PSEUDOMETRIC)

HOLDS = "holds"
FAILS = "fails"
HOLDS_NON_UNIQUELY = "holds-non-uniquely"
NOT_CHECKED = "not-machine-checked"


@dataclass(frozen=True)
class ClaimRecord:
    """One audited claim with per-model verdicts and certificate references."""

    claim_id: str
    statement: str
    verdicts: tuple[tuple[str, str], ...]
    certificate_refs: tuple[tuple[str, Optional[str]], ...]

    def verdict(self, model: str) -> str:
        return dict(self.verdicts)[model]

    def certificate_ref(self, model: str) -> Optional[str]:
        return dict(self.certificate_refs)[model]


@dataclass(frozen=True)
class ReportDocument:
    """Full audit output; serialization round-trips losslessly."""

    schema_version: str
    k: int
    model: str
    claims: tuple[ClaimRecord, ...]
    certificates: tuple[tuple[str, Certificate], ...]

    def certificate(self, ref: str) -> Certificate:
        return dict(self.certificates)[ref]


@dataclass(frozen=True)
class MembershipAudit:
    """Several membership records supporting the two membership rows of one model.

    In the quotient model the chart around one origin contains no other
    origin and collapses onto the coordinate interval; in the pseudometric
    model every ball around an origin contains all origins, since their
    pairwise distance is zero.
    """

    records: tuple[MembershipRecord, ...]


@dataclass(frozen=True)
class ConnectedPreimageRecord:
    """Joining paths showing the window preimage cannot split into sheets."""

    k: int
    model: str
    eps: Fraction
    paths: tuple[OriginJoinPath, ...]


@dataclass(frozen=True)
class LoopClassRecord:
    """Classification of one probe loop under both models (the model split).

    The probe runs down through origin 1 and up through origin 2; its class
    is the reduced crossing word in the chart model and empty in the ball
    model.
    """

    loop: LabeledLoop
    quotient_class: ReducedWord
    pseudometric_class: ReducedWord

    def word(self, model: TopologyModel) -> ReducedWord:
        return self.quotient_class if model is TopologyModel.QUOTIENT else self.pseudometric_class


@dataclass(frozen=True)
class ShrinkContractionRecord:
    """Exact pseudometric moduli of the coordinate-scaling contraction.

    The map scales every coordinate by (1 - u) and sends everything to one
    origin at u = 1.  On samples, distance to the start scales exactly
    like |u - v| * |coordinate| and distances between points shrink by the
    factor (1 - u); both identities are exact, so the contraction is
    continuous for the pseudometric, where origin choices cost nothing.
    """

    samples: tuple[CanonicalPoint, ...]
    params: tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# The declared claims table

# A claim's rules map each certificate kind that can decide it to a reader
# (certificate, cell config) -> the verdict the certificate's own fields prove
# in the cell's model, or None.
Rules = dict[type, Callable[[Any, SpaceConfig], Optional[str]]]

# Radii at which the checker samples basic opens around origins.
_RADII = (
    (Fraction(1), Fraction(1)),
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(5), Fraction(2, 7)),
)


def _shows(kind: type, verdict: str) -> Rules:
    """A kind whose passing re-check alone proves the verdict."""
    return {kind: lambda cert, cfg: verdict}


def _separation(axiom: str) -> Rules:
    def read(v: SeparationVerdict, cfg: SpaceConfig) -> Optional[str]:
        if v.holds:
            # the origin pair is the only pair that can fail; a T2 witness proves T1 too
            origins = all(isinstance(p, Origin) for p in v.pair)
            return HOLDS if origins and v.axiom in (axiom, "T2") else None
        # a negative verdict proves its own axiom only: a rule alone shows that
        # T2 fails, and T1 fails only if no open around origin i avoids origin j
        around_i = (basic_open(Origin(v.rule.i), eps, cfg) for pair in _RADII for eps in pair)
        inseparable = all(open_contains(o, Origin(v.rule.j)) for o in around_i)
        return FAILS if v.axiom == axiom and (axiom == "T2" or inseparable) else None

    return {SeparationVerdict: read}


def _membership(if_excluded: str, if_all_contained: str) -> Rules:
    """Verdicts proved by an open excluding another origin, or by opens each containing all."""

    def read(audit: MembershipAudit, cfg: SpaceConfig) -> Optional[str]:
        listed = [{p.index: inside for p, inside in r.entries if isinstance(p, Origin)}
                  for r in audit.records]
        if any(False in inside.values() for inside in listed):
            return if_excluded
        if listed and all(set(inside) == set(range(1, cfg.k + 1)) for inside in listed):
            return if_all_contained
        return None

    return {MembershipAudit: read}


_LIFT_VERDICTS = {NoLift: FAILS, NonUniqueExistence: HOLDS_NON_UNIQUELY}
_LIFT_OUTCOME: Rules = {HomotopyLiftRecord: lambda rec, cfg: _LIFT_VERDICTS.get(type(rec.result))}
_PATH_LIFTS_FAIL = _shows(MonodromyObstruction, FAILS)
# a loop that is not null-homotopic in the cell's model
_LOOP_NOT_TRIVIAL: Rules = {
    LoopClassRecord: lambda rec, cfg: FAILS if len(rec.word(cfg.model)) else None
}


def _shrink_proves(rec: ShrinkContractionRecord, cfg: SpaceConfig) -> Optional[str]:
    """Pseudometric contractibility, if the samples hold origins 1..k and a regular
    point and the params hold both ends u = 0 and u = 1."""
    spans = ({Origin(i) for i in range(1, cfg.k + 1)} <= set(rec.samples)
             and any(isinstance(p, Regular) for p in rec.samples)
             and {0, 1} <= set(rec.params))
    return HOLDS if spans and cfg.model is TopologyModel.PSEUDOMETRIC else None


# a space that contracts has every loop null-homotopic, so one record proves both rows
_CONTRACTS: Rules = {**_LOOP_NOT_TRIVIAL, ShrinkContractionRecord: _shrink_proves}


# (claim id, statement, (quotient verdict, ref), (pseudometric verdict, ref), rules)
CLAIMS = (
    ("separation-t1", "any two distinct points each lie in a basic open avoiding the other",
     (HOLDS, "separation-t1:quotient"), (FAILS, "separation-t1:pseudometric"), _separation("T1")),
    ("separation-hausdorff", "any two distinct points have disjoint basic opens",
     (FAILS, "separation-hausdorff:quotient"), (FAILS, "separation-hausdorff:pseudometric"),
     _separation("T2")),
    ("locally-euclidean-at-origins",
     "each origin has a basic open collapsing bijectively onto a coordinate interval",
     (HOLDS, "membership:quotient"), (FAILS, "membership:pseudometric"),
     _membership(if_excluded=HOLDS, if_all_contained=FAILS)),
    ("origin-filter-coincidence", "every basic open containing one origin contains all the others",
     (FAILS, "membership:quotient"), (HOLDS, "membership:pseudometric"),
     _membership(if_excluded=FAILS, if_all_contained=HOLDS)),
    ("pi1-trivial", "every loop is null-homotopic",
     (FAILS, "pi1-probe"), (HOLDS, "contractible:pseudometric"), _CONTRACTS),
    ("contractible", "the whole space contracts to a point",
     (FAILS, "pi1-probe"), (HOLDS, "contractible:pseudometric"), _CONTRACTS),
    ("even-covering", "some window around the accumulation point is evenly covered",
     (FAILS, "even-covering:quotient"), (FAILS, "even-covering:pseudometric"),
     _shows(EvenCoverFailure, FAILS)),
    ("branched-cover", "the projection splits small windows into disjoint local sheets",
     (FAILS, "branched-cover:quotient"), (FAILS, "branched-cover:pseudometric"),
     _shows(ConnectedPreimageRecord, FAILS)),
    ("etale-separated",
     "distinct germs of sections over the accumulation point are distinguishable",
     (FAILS, "etale-separated:any"), (FAILS, "etale-separated:any"), _shows(SectionWitness, FAILS)),
    ("unique-path-lifting", "a path and a start point determine at most one lift",
     (FAILS, "path-lifting:quotient"), (FAILS, "path-lifting:pseudometric"), _PATH_LIFTS_FAIL),
    ("homotopy-lifting", "a homotopy extends any lift of its initial path",
     (FAILS, "homotopy-lifting:quotient"),
     (HOLDS_NON_UNIQUELY, "homotopy-lifting:pseudometric"), _LIFT_OUTCOME),
    ("homotopy-lifting-origin-constancy",
     "homotopy lifting under the rule that origin-valued maps are constant",
     (FAILS, "homotopy-lifting:quotient"), (FAILS, "homotopy-lifting-constancy:pseudometric"),
     _LIFT_OUTCOME),
    ("monodromy-defined", "loops act on the fibre through lift endpoints",
     (FAILS, "path-lifting:quotient"), (FAILS, "path-lifting:pseudometric"), _PATH_LIFTS_FAIL),
    ("deck-group-symmetric",
     "deck transformations realize every origin permutation (order {order})",
     (HOLDS, "deck-group:any"), (HOLDS, "deck-group:any"), _shows(DeckGroupTable, HOLDS)),
    ("semicovering", "the projection is a local homeomorphism with unique continuous lifting",
     (FAILS, "path-lifting:quotient"), (FAILS, "path-lifting:pseudometric"), _PATH_LIFTS_FAIL),
    # the base curve component is simply connected, so its loop group is trivial
    # and has one subgroup: the classical correspondence offers a single cover,
    # which cannot account for a deck group of more than one element
    ("subgroup-correspondence", "the projection arises from a subgroup of the base loop group",
     (FAILS, "deck-group:any"), (FAILS, "deck-group:any"),
     {DeckGroupTable: lambda table, cfg: FAILS if len(table.elements) > 1 else None}),
    ("groupoid-covering",
     "a covering functor of loop groupoids induces the projection "
     "(static row: the loop-space topology on the groupoid is not modelled)",
     (NOT_CHECKED, None), (NOT_CHECKED, None), {}),
    ("stacky-cover",
     "the projection is presented by a separated stack atlas "
     "(static row: stack atlases are not modelled)",
     (NOT_CHECKED, None), (NOT_CHECKED, None), {}),
)


def claim_table(k: int) -> tuple[ClaimRecord, ...]:
    """The declared claims table for origin count k; the deck row names k!."""
    order = math.factorial(k)
    return tuple(
        ClaimRecord(
            claim_id=claim_id,
            statement=statement.format(order=order),
            verdicts=(("quotient", q[0]), ("pseudometric", p[0])),
            certificate_refs=(("quotient", q[1]), ("pseudometric", p[1])),
        )
        for claim_id, statement, q, p, _ in CLAIMS
    )


def _scale(p: CanonicalPoint, u: Fraction) -> CanonicalPoint:
    if u == 1:
        return Origin(1)
    if isinstance(p, Origin):
        return p
    return Regular((1 - u) * p.x)


def shrink_contraction_record(k: int) -> ShrinkContractionRecord:
    """The scaling contraction's samples and parameters.

    The producer runs no check of its own.  The contraction is established
    by ``_recheck_shrink``, which ``recheck_report`` runs on every report.
    """
    samples: tuple[CanonicalPoint, ...] = tuple(Origin(i) for i in range(1, k + 1)) + (
        Regular(1),
        Regular(-1),
        Regular(Fraction(3, 7)),
    )
    return ShrinkContractionRecord(
        samples=samples,
        params=(Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)),
    )


def _chart_membership(k: int) -> MembershipAudit:
    chart = OriginChart(1, Fraction(1))
    entries = [(Origin(1), True)] + [(Origin(i), False) for i in range(2, k + 1)]
    entries += [(Regular(Fraction(1, 2)), True), (Regular(Fraction(-1, 2)), True), (Regular(2), False)]
    return MembershipAudit(records=(MembershipRecord(open=chart, entries=tuple(entries)),))


def _ball_membership(k: int) -> MembershipAudit:
    entries = tuple((Origin(i), True) for i in range(1, k + 1))
    return MembershipAudit(records=tuple(
        MembershipRecord(open=Ball(Origin(1), eps), entries=entries)
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 7))
    ))


def run_audit(cfg: SpaceConfig, eps: Fraction = Fraction(1), x0: Fraction = Fraction(1)) -> ReportDocument:
    """Build every certificate the claims table cites, for origin count cfg.k.

    Certificates are built under both models so the table itself records
    every model split; ``cfg.model`` is echoed as the requested model.
    """
    if cfg.k not in _TABLE_KS:
        # the deck table row needs the full group
        raise NonHausError(f"audit supports 2 <= k <= 6, got {cfg.k}")
    eps, x0 = Fraction(eps), Fraction(x0)
    k = cfg.k
    quotient = SpaceConfig(k, TopologyModel.QUOTIENT)
    pseudo = SpaceConfig(k, TopologyModel.PSEUDOMETRIC)
    field = make_merging_field()
    assignment = {Fraction(1, 4): 1, Fraction(3, 4): 2}
    certs: dict[str, Any] = {}
    for model_cfg, membership in ((quotient, _chart_membership(k)), (pseudo, _ball_membership(k))):
        m = model_cfg.model.value
        sep = {v.axiom: v for v in separation_report(model_cfg)}
        certs[f"separation-t1:{m}"] = sep["T1"]
        certs[f"separation-hausdorff:{m}"] = sep["T2"]
        certs[f"membership:{m}"] = membership
        certs[f"even-covering:{m}"] = even_cover_certificate(eps, model_cfg)
        certs[f"branched-cover:{m}"] = ConnectedPreimageRecord(
            k=k, model=m, eps=eps, paths=tuple(preimage_connected_certificate(eps, model_cfg))
        )
        certs[f"path-lifting:{m}"] = monodromy_verdict(x0, model_cfg)
        certs[f"homotopy-lifting:{m}"] = homotopy_lift_record(field, assignment, model_cfg, False)

    probe = probe_loop(1, 2)
    certs["pi1-probe"] = LoopClassRecord(
        loop=probe,
        quotient_class=loop_class(probe, quotient),
        pseudometric_class=loop_class(probe, pseudo),
    )
    certs["contractible:pseudometric"] = shrink_contraction_record(k)
    certs["etale-separated:any"] = section_witness(eps, 1, 2, quotient)
    certs["homotopy-lifting-constancy:pseudometric"] = homotopy_lift_record(
        field, assignment, pseudo, True
    )
    certs["deck-group:any"] = deck_group(k)
    return ReportDocument(
        schema_version=SCHEMA_VERSION,
        k=k,
        model=cfg.model.value,
        claims=claim_table(k),
        certificates=tuple(sorted(certs.items())),
    )


# ---------------------------------------------------------------------------
# Re-checking


def _recheck_separation(v: SeparationVerdict, k: int) -> list[str]:
    failures = []
    if v.holds:
        if v.opens is None:
            return [f"{v.axiom}: positive verdict without opens"]
        o1, o2 = v.opens
        p, q = v.pair
        if not (open_contains(o1, p) and not open_contains(o1, q)):
            failures.append(f"{v.axiom}: first open fails its containment pattern")
        if not (open_contains(o2, q) and not open_contains(o2, p)):
            failures.append(f"{v.axiom}: second open fails its containment pattern")
        if v.axiom == "T2" and opens_intersect(o1, o2):
            failures.append("T2: witness opens intersect")
        return failures
    if v.rule is None:
        return [f"{v.axiom}: negative verdict without a rule"]
    if v.rule.i == v.rule.j or not (1 <= v.rule.i <= k and 1 <= v.rule.j <= k):
        return [f"{v.axiom}: rule needs two distinct origins in 1..{k}"]
    return []  # the rule's common point, min(e1, e2)/2, lies in both opens at any radii


def _recheck_loop_class(rec: LoopClassRecord, k: int) -> list[str]:
    return [f"{m.value} loop class does not reproduce"
            for m in MODELS if loop_class(rec.loop, SpaceConfig(k, m)) != rec.word(m)]


def _recheck_shrink(rec: ShrinkContractionRecord) -> list[str]:
    """Check the shrink factor on every pair of samples and every parameter, exactly.

    Scaling by u shrinks the distance from sample p to every sample q by the
    factor (1 - u).  Each scaled point and unscaled distance is computed once.
    The record's other identity needs no test: under ``_scale``, p scaled by
    u and by v lie |(1-u)x - (1-v)x| = |u-v| |x| apart for every rational
    sample and parameter.  Nor do the ends: ``_scale`` is the identity at
    u = 0 and the constant origin 1 at u = 1.
    """
    samples, params = rec.samples, rec.params
    scaled = [[_scale(p, u) for u in params] for p in samples]
    dist = [[pseudo_dist(p, q) for q in samples] for p in samples]
    failures = []
    for p, row, dist_p in zip(samples, scaled, dist):
        for b, (u, pu) in enumerate(zip(params, row)):
            factor = 1 - u
            for q, q_row, d in zip(samples, scaled, dist_p):
                if pseudo_dist(pu, q_row[b]) != factor * d:
                    failures.append(f"shrink factor fails at ({p}, {q}), u={u}")
    return failures


# certificate type -> re-derivation of the certificate from its own fields and
# the report's k
_RECHECKS: dict[type, Callable[[Any, int], list[str]]] = {
    SeparationVerdict: _recheck_separation,
    MembershipAudit: lambda c, k: [] if all(r.recheck() for r in c.records)
    else ["membership mismatch"],
    LoopClassRecord: _recheck_loop_class,
    ShrinkContractionRecord: lambda c, k: _recheck_shrink(c),
    EvenCoverFailure: lambda c, k: recheck_even_cover(c),
    ConnectedPreimageRecord: lambda c, k: recheck_origin_join(
        list(c.paths), SpaceConfig(c.k, TopologyModel(c.model)), c.eps
    ),
    SectionWitness: lambda c, k: recheck_section_witness(c),
    MonodromyObstruction: lambda c, k: recheck_monodromy(c),
    HomotopyLiftRecord: recheck_homotopy_record,
    DeckGroupTable: lambda c, k: recheck_deck_group(c),
}
# the kinds a report may carry: exactly those with a re-check
Certificate = Union[tuple(_RECHECKS)]


def recheck_report(doc: ReportDocument) -> list[str]:
    """Check a report against the declared table; returns human-readable failures.

    The schema version must be this module's and the echoed model one of
    ``MODELS``; the claims must equal ``claim_table(doc.k)``; the
    certificates must be exactly the refs that ``CLAIMS`` cites, each once
    and in sorted order; every certificate must re-derive, and each checked
    cell's verdict must be the one its certificate proves in that cell's
    model.  A certificate cited by several cells is re-checked once and must
    prove each of their verdicts.
    """
    models = [m.value for m in MODELS]
    failures = []
    if doc.schema_version != SCHEMA_VERSION:
        failures.append(f"schema_version {doc.schema_version!r} is not {SCHEMA_VERSION!r}")
    if doc.model not in models:
        failures.append(f"model {doc.model!r} is not one of {', '.join(models)}")
    if doc.k not in _TABLE_KS:
        return failures + [f"k={doc.k} is outside the audited range 2..6"]
    declared = claim_table(doc.k)
    failures += [
        f"claim {n}: row {got.claim_id if got else '(none)'} differs from the declared "
        f"row {want.claim_id if want else '(none)'}"
        for n, (got, want) in enumerate(zip_longest(doc.claims, declared), 1) if got != want
    ]
    cells = [(claim_id, m.value, verdict, ref, rules)
             for claim_id, _, q, p, rules in CLAIMS for m, (verdict, ref) in zip(MODELS, (q, p))]
    cited = sorted({cell[3] for cell in cells if cell[3] is not None})
    refs = (ref for ref, _ in doc.certificates)
    failures += [
        f"certificate {n}: ref {got or '(none)'} differs from the cited ref {want or '(none)'}"
        for n, (got, want) in enumerate(zip_longest(refs, cited), 1) if got != want
    ][:1]  # the first difference; an inserted or missing ref shifts every later one
    sound: dict[str, Any] = {}
    for ref, cert in doc.certificates:
        sub = _RECHECKS[type(cert)](cert, doc.k)
        failures.extend(f"{ref}: {msg}" for msg in sub)
        if not sub:
            sound[ref] = cert
    for claim_id, model, verdict, ref, rules in cells:
        cert = sound.get(ref)
        if cert is None:
            continue  # a static cell, or a certificate already reported above
        # a certificate that records its own k or model proves nothing outside them
        in_scope = getattr(cert, "k", doc.k) == doc.k and getattr(cert, "model", model) == model
        read = rules.get(type(cert)) if in_scope else None
        proved = read(cert, SpaceConfig(doc.k, TopologyModel(model))) if read else None
        if proved != verdict:
            failures.append(f"{claim_id} ({model}): the table says {verdict} but {ref} "
                            f"proves {proved or 'nothing'}")
    return failures
