"""Claims-audit table: every headline property of the construction, per model.

Each row states a claim about the glued line or its projection and gives
a verdict under both topology models.  Machine-checked verdicts carry a
reference to an embedded certificate that can be re-derived from scratch;
rows about frameworks outside the modelled scope (loop-space groupoids,
stack atlases) are static and carry a citation note only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Optional

from . import serialize
from .errors import OriginCountOutOfRange, RecheckFailure
from .lifting import (
    HomotopyLiftRecord,
    MonodromyObstruction,
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
    coord,
    open_contains,
    opens_intersect,
    pseudo_dist,
    separation_report,
)
from .symmetry import (
    ContractionCertificate,
    DeckGroupTable,
    LabeledLoop,
    ReducedWord,
    contract_loop,
    deck_group,
    loop_class,
    probe_loop,
    recheck_contraction,
    recheck_deck_group,
)

SCHEMA_VERSION = "nonhaus-report/1"

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
    certificates: tuple[tuple[str, Any], ...]

    def certificate(self, ref: str) -> Any:
        return dict(self.certificates)[ref]


@dataclass(frozen=True)
class MembershipAudit:
    """Several membership records supporting one verdict."""

    records: tuple[MembershipRecord, ...]
    note: str


@dataclass(frozen=True)
class ConnectedPreimageRecord:
    """Joining paths showing the window preimage cannot split into sheets."""

    k: int
    model: str
    eps: Fraction
    paths: tuple[OriginJoinPath, ...]


@dataclass(frozen=True)
class LoopClassRecord:
    """Classification of one probe loop under both models (the model split)."""

    loop: LabeledLoop
    quotient_class: ReducedWord
    pseudometric_class: ReducedWord
    note: str


@dataclass(frozen=True)
class ShrinkContractionRecord:
    """Exact pseudometric moduli of the coordinate-scaling contraction.

    The map scales every coordinate by (1 - u) and sends everything to one
    origin at u = 1.  On samples, distance to the start scales exactly
    like |u - v| * |coordinate| and distances between points shrink by the
    factor (1 - u); both identities are exact, so the contraction is
    continuous for the pseudometric.
    """

    samples: tuple[CanonicalPoint, ...]
    params: tuple[Fraction, ...]
    ok: bool
    note: str


@dataclass(frozen=True)
class SubgroupGapRecord:
    """Deck order k! against the single subgroup of a trivial loop group."""

    k: int
    deck_order: int
    trivial_subgroup_count: int
    deck_ref: str
    note: str


def _scale(p: CanonicalPoint, u: Fraction) -> CanonicalPoint:
    if u == 1:
        return Origin(1)
    if isinstance(p, Origin):
        return p
    return Regular((1 - u) * p.x)


def shrink_contraction_record(k: int) -> ShrinkContractionRecord:
    samples: tuple[CanonicalPoint, ...] = tuple(Origin(i) for i in range(1, k + 1)) + (
        Regular(1),
        Regular(-1),
        Regular(Fraction(3, 7)),
    )
    params = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    record = ShrinkContractionRecord(
        samples=samples,
        params=params,
        ok=True,
        note="coordinate scaling is a pseudometric contraction to one origin; "
        "origin choices cost nothing in this model",
    )
    return replace(record, ok=not _recheck_shrink(record))


def _chart_membership(k: int) -> MembershipAudit:
    chart = OriginChart(1, Fraction(1))
    entries = [(Origin(1), True)] + [(Origin(i), False) for i in range(2, k + 1)]
    entries += [(Regular(Fraction(1, 2)), True), (Regular(Fraction(-1, 2)), True), (Regular(2), False)]
    return MembershipAudit(
        records=(MembershipRecord(open=chart, entries=tuple(entries), note=""),),
        note="the chart around one origin contains no other origin and collapses "
        "onto the coordinate interval",
    )


def _ball_membership(k: int) -> MembershipAudit:
    records = []
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 7)):
        entries = tuple((Origin(i), True) for i in range(1, k + 1))
        records.append(
            MembershipRecord(
                open=Ball(Origin(1), eps),
                entries=entries,
                note=f"radius {eps}",
            )
        )
    return MembershipAudit(
        records=tuple(records),
        note="every ball around an origin contains all origins: their pairwise "
        "pseudometric distance is zero",
    )


def run_audit(cfg: SpaceConfig, eps: Fraction = Fraction(1), x0: Fraction = Fraction(1)) -> ReportDocument:
    """Assemble the full claims table for origin count cfg.k.

    Verdicts are computed under both models so the table itself records
    every model split; ``cfg.model`` is echoed as the requested model.
    """
    if not 2 <= cfg.k <= 6:
        # the deck table row needs the full group
        raise OriginCountOutOfRange(f"audit supports 2 <= k <= 6, got {cfg.k}")
    eps, x0 = Fraction(eps), Fraction(x0)
    k = cfg.k
    quotient = SpaceConfig(k, TopologyModel.QUOTIENT)
    pseudo = SpaceConfig(k, TopologyModel.PSEUDOMETRIC)
    certs: dict[str, Any] = {}
    claims: list[ClaimRecord] = []

    def row(
        claim_id: str,
        statement: str,
        verdict_q: str,
        verdict_p: str,
        ref_q: Optional[str],
        ref_p: Optional[str],
    ) -> None:
        claims.append(
            ClaimRecord(
                claim_id=claim_id,
                statement=statement,
                verdicts=(("quotient", verdict_q), ("pseudometric", verdict_p)),
                certificate_refs=(("quotient", ref_q), ("pseudometric", ref_p)),
            )
        )

    sep_q = {v.axiom: v for v in separation_report(quotient)}
    sep_p = {v.axiom: v for v in separation_report(pseudo)}

    certs["separation-t1:quotient"] = sep_q["T1"]
    certs["separation-t1:pseudometric"] = sep_p["T1"]
    row(
        "separation-t1",
        "any two distinct points each lie in a basic open avoiding the other",
        HOLDS if sep_q["T1"].holds else FAILS,
        HOLDS if sep_p["T1"].holds else FAILS,
        "separation-t1:quotient",
        "separation-t1:pseudometric",
    )

    certs["separation-hausdorff:quotient"] = sep_q["T2"]
    certs["separation-hausdorff:pseudometric"] = sep_p["T2"]
    row(
        "separation-hausdorff",
        "any two distinct points have disjoint basic opens",
        HOLDS if sep_q["T2"].holds else FAILS,
        HOLDS if sep_p["T2"].holds else FAILS,
        "separation-hausdorff:quotient",
        "separation-hausdorff:pseudometric",
    )

    certs["locally-euclidean:quotient"] = _chart_membership(k)
    certs["locally-euclidean:pseudometric"] = _ball_membership(k)
    row(
        "locally-euclidean-at-origins",
        "each origin has a basic open collapsing bijectively onto a coordinate interval",
        HOLDS,
        FAILS,
        "locally-euclidean:quotient",
        "locally-euclidean:pseudometric",
    )

    certs["origin-filter:quotient"] = _chart_membership(k)
    certs["origin-filter:pseudometric"] = _ball_membership(k)
    row(
        "origin-filter-coincidence",
        "every basic open containing one origin contains all the others",
        FAILS,
        HOLDS,
        "origin-filter:quotient",
        "origin-filter:pseudometric",
    )

    probe = probe_loop(1, 2)
    certs["pi1-probe"] = LoopClassRecord(
        loop=probe,
        quotient_class=loop_class(probe, quotient),
        pseudometric_class=loop_class(probe, pseudo),
        note="down through origin 1, up through origin 2; the class is the "
        "reduced crossing word in the chart model and empty in the ball model",
    )
    certs["pi1-contraction:pseudometric"] = contract_loop(probe, pseudo)
    pi1_q_trivial = len(loop_class(probe, quotient)) == 0
    row(
        "pi1-trivial",
        "every loop is null-homotopic",
        HOLDS if pi1_q_trivial else FAILS,
        HOLDS,
        "pi1-probe",
        "pi1-contraction:pseudometric",
    )

    certs["contractible:pseudometric"] = shrink_contraction_record(k)
    row(
        "contractible",
        "the whole space contracts to a point",
        FAILS,
        HOLDS,
        "pi1-probe",
        "contractible:pseudometric",
    )

    certs["even-covering:quotient"] = even_cover_certificate(eps, quotient)
    certs["even-covering:pseudometric"] = even_cover_certificate(eps, pseudo)
    row(
        "even-covering",
        "some window around the accumulation point is evenly covered",
        FAILS,
        FAILS,
        "even-covering:quotient",
        "even-covering:pseudometric",
    )

    certs["branched-cover:quotient"] = ConnectedPreimageRecord(
        k=k, model="quotient", eps=eps, paths=tuple(preimage_connected_certificate(eps, quotient))
    )
    certs["branched-cover:pseudometric"] = ConnectedPreimageRecord(
        k=k, model="pseudometric", eps=eps, paths=tuple(preimage_connected_certificate(eps, pseudo))
    )
    row(
        "branched-cover",
        "the projection splits small windows into disjoint local sheets",
        FAILS,
        FAILS,
        "branched-cover:quotient",
        "branched-cover:pseudometric",
    )

    certs["etale-separated:any"] = section_witness(eps, 1, 2, quotient)
    row(
        "etale-separated",
        "distinct germs of sections over the accumulation point are distinguishable",
        FAILS,
        FAILS,
        "etale-separated:any",
        "etale-separated:any",
    )

    certs["path-lifting:quotient"] = monodromy_verdict(x0, quotient)
    certs["path-lifting:pseudometric"] = monodromy_verdict(x0, pseudo)
    row(
        "unique-path-lifting",
        "a path and a start point determine at most one lift",
        FAILS,
        FAILS,
        "path-lifting:quotient",
        "path-lifting:pseudometric",
    )

    field = make_merging_field()
    assignment = {Fraction(1, 4): 1, Fraction(3, 4): 2}
    certs["homotopy-lifting:quotient"] = homotopy_lift_record(field, assignment, quotient, False)
    certs["homotopy-lifting:pseudometric"] = homotopy_lift_record(field, assignment, pseudo, False)
    hl_p = certs["homotopy-lifting:pseudometric"].result
    row(
        "homotopy-lifting",
        "a homotopy extends any lift of its initial path",
        FAILS,
        HOLDS_NON_UNIQUELY if isinstance(hl_p, NonUniqueExistence) else FAILS,
        "homotopy-lifting:quotient",
        "homotopy-lifting:pseudometric",
    )

    certs["homotopy-lifting-constancy:pseudometric"] = homotopy_lift_record(
        field, assignment, pseudo, True
    )
    row(
        "homotopy-lifting-origin-constancy",
        "homotopy lifting under the rule that origin-valued maps are constant",
        FAILS,
        FAILS,
        "homotopy-lifting:quotient",
        "homotopy-lifting-constancy:pseudometric",
    )

    row(
        "monodromy-defined",
        "loops act on the fibre through lift endpoints",
        FAILS,
        FAILS,
        "path-lifting:quotient",
        "path-lifting:pseudometric",
    )

    certs["deck-group:any"] = deck_group(k)
    row(
        "deck-group-symmetric",
        f"deck transformations realize every origin permutation (order {math.factorial(k)})",
        HOLDS,
        HOLDS,
        "deck-group:any",
        "deck-group:any",
    )

    row(
        "semicovering",
        "the projection is a local homeomorphism with unique continuous lifting",
        FAILS,
        FAILS,
        "path-lifting:quotient",
        "path-lifting:pseudometric",
    )

    certs["subgroup-correspondence:any"] = SubgroupGapRecord(
        k=k,
        deck_order=math.factorial(k),
        trivial_subgroup_count=1,
        deck_ref="deck-group:any",
        note="the base curve component is simply connected, so the classical "
        "correspondence offers a single trivial cover; it cannot account for a "
        f"deck group of order {math.factorial(k)}",
    )
    row(
        "subgroup-correspondence",
        "the projection arises from a subgroup of the base loop group",
        FAILS,
        FAILS,
        "subgroup-correspondence:any",
        "subgroup-correspondence:any",
    )

    row(
        "groupoid-covering",
        "a covering functor of loop groupoids induces the projection "
        "(static row: the loop-space topology on the groupoid is not modelled)",
        NOT_CHECKED,
        NOT_CHECKED,
        None,
        None,
    )

    row(
        "stacky-cover",
        "the projection is presented by a separated stack atlas "
        "(static row: stack atlases are not modelled)",
        NOT_CHECKED,
        NOT_CHECKED,
        None,
        None,
    )

    return ReportDocument(
        schema_version=SCHEMA_VERSION,
        k=k,
        model=cfg.model.value,
        claims=tuple(claims),
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
    radii = (
        (Fraction(1), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(5), Fraction(2, 7)),
    )
    for model in MODELS:
        cfg = SpaceConfig(k, model)
        for e1, e2 in radii:
            pt = v.rule.common_point(e1, e2)
            oi = basic_open(Origin(v.rule.i), e1, cfg)
            oj = basic_open(Origin(v.rule.j), e2, cfg)
            if not (open_contains(oi, pt) and open_contains(oj, pt)):
                failures.append(
                    f"{v.axiom}: rule point {pt} escapes an open at radii ({e1}, {e2})"
                )
    return failures


def _recheck_loop_class(rec: LoopClassRecord, k: int) -> list[str]:
    failures = []
    if loop_class(rec.loop, SpaceConfig(k, TopologyModel.QUOTIENT)) != rec.quotient_class:
        failures.append("quotient loop class does not reproduce")
    if loop_class(rec.loop, SpaceConfig(k, TopologyModel.PSEUDOMETRIC)) != rec.pseudometric_class:
        failures.append("pseudometric loop class does not reproduce")
    return failures


def _recheck_shrink(rec: ShrinkContractionRecord) -> list[str]:
    failures = []
    for p in rec.samples:
        for u in rec.params:
            for v in rec.params:
                if pseudo_dist(_scale(p, u), _scale(p, v)) != abs(u - v) * abs(coord(p)):
                    failures.append(f"scaling modulus fails at {p}, ({u}, {v})")
            for q in rec.samples:
                if pseudo_dist(_scale(p, u), _scale(q, u)) != (1 - u) * pseudo_dist(p, q):
                    failures.append(f"shrink factor fails at ({p}, {q}), u={u}")
        if _scale(p, Fraction(0)) != p or _scale(p, Fraction(1)) != Origin(1):
            failures.append(f"endpoints of the contraction fail at {p}")
    if not rec.ok:
        failures.append("record is marked not ok")
    return failures


def recheck_report(doc: ReportDocument) -> list[str]:
    """Re-derive every embedded certificate; returns human-readable failures."""
    failures: list[str] = []
    certmap = dict(doc.certificates)
    for claim in doc.claims:
        for model, verdict in claim.verdicts:
            ref = claim.certificate_ref(model)
            if verdict in (HOLDS, FAILS, HOLDS_NON_UNIQUELY):
                if ref is None:
                    failures.append(f"{claim.claim_id}: checked verdict without certificate")
                elif ref not in certmap:
                    failures.append(f"{claim.claim_id}: dangling certificate reference {ref}")
            elif ref is not None:
                failures.append(f"{claim.claim_id}: static row carries a certificate")
    for ref, cert in doc.certificates:
        sub: list[str]
        if isinstance(cert, SeparationVerdict):
            sub = _recheck_separation(cert, doc.k)
        elif isinstance(cert, MembershipAudit):
            sub = [] if all(r.recheck() for r in cert.records) else ["membership mismatch"]
        elif isinstance(cert, LoopClassRecord):
            sub = _recheck_loop_class(cert, doc.k)
        elif isinstance(cert, ContractionCertificate):
            sub = recheck_contraction(cert, doc.k)
        elif isinstance(cert, ShrinkContractionRecord):
            sub = _recheck_shrink(cert)
        elif isinstance(cert, EvenCoverFailure):
            sub = recheck_even_cover(cert)
        elif isinstance(cert, ConnectedPreimageRecord):
            sub = recheck_origin_join(
                list(cert.paths), SpaceConfig(cert.k, TopologyModel(cert.model))
            )
        elif isinstance(cert, SectionWitness):
            sub = recheck_section_witness(cert)
        elif isinstance(cert, MonodromyObstruction):
            sub = recheck_monodromy(cert)
        elif isinstance(cert, HomotopyLiftRecord):
            sub = recheck_homotopy_record(cert, doc.k)
        elif isinstance(cert, DeckGroupTable):
            sub = recheck_deck_group(cert)
        elif isinstance(cert, SubgroupGapRecord):
            sub = []
            if cert.deck_order != math.factorial(cert.k):
                sub.append("deck order is not k!")
            if cert.deck_ref not in certmap:
                sub.append("dangling deck reference")
        else:
            sub = [f"no re-check for certificate kind {type(cert).__name__}"]
        failures.extend(f"{ref}: {msg}" for msg in sub)
    return failures


def ensure_report_valid(doc: ReportDocument) -> None:
    failures = recheck_report(doc)
    if failures:
        raise RecheckFailure("; ".join(failures))


# ---------------------------------------------------------------------------
# Serialization of the document types

serialize.register(
    ClaimRecord,
    ReportDocument,
    MembershipAudit,
    ConnectedPreimageRecord,
    LoopClassRecord,
    ShrinkContractionRecord,
    SubgroupGapRecord,
)
