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
functions that produced the certificate.  Each fact is stored once and
cited by every cell it proves: the quotient model's three chart cells cite
``separated-charts:quotient``, the pseudometric model's six universal
cells cite ``indistinguishable-origins:pseudometric`` (their rules name
their lemmas), the deck table proves the symmetry and subgroup rows, and a
failure that does not depend on the model is one ``:any`` record.

Each value is stored once (``nonhaus-report/9``): re-checks take k from the
report and rules take the model from the cell they prove, so no record restates
them or a value its other fields give.  No record carries a model, and only the
deck table, which the ``deck`` subcommand reads alone, keeps its own k.  The
even-covering, branched-cover and etale-separated cells cite the Hausdorff
failure, and the homotopy-lifting cells the pi1 probe and the indistinguishable
origins, through rules that name their lemmas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Any, Callable, Optional, Union

from .errors import NonHausError
from .lifting import MonodromyObstruction, monodromy_verdict, recheck_monodromy
from .space import (
    Origin,
    OriginChart,
    SeparationVerdict,
    SpaceConfig,
    TopologyModel,
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

SCHEMA_VERSION = "nonhaus-report/9"

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
class LoopClassRecord:
    """The class of one probe loop in the quotient model.

    The probe runs down through origin 1 and up through origin 2; its class
    is the reduced crossing word of the chart model, which is not empty.
    """

    loop: LabeledLoop
    quotient_class: ReducedWord


@dataclass(frozen=True)
class IndistinguishableOrigins:
    """The k origins lie at pseudometric distance 0 from each other.

    The pseudometric model's basic opens are the balls of ``pseudo_dist``,
    which reads points only through their coordinate, and every origin sits
    over 0.  The claim rules draw the model's universal verdicts from this
    one fact, each naming its lemma; its re-check covers the report's k.
    """


@dataclass(frozen=True)
class SeparatedCharts:
    """Each origin's chart (the origin and every nonzero |x| < eps, a basic open of
    the quotient model) holds no other origin; re-checked for every pair of the report's 1..k."""

    eps: Fraction


# ---------------------------------------------------------------------------
# The declared claims table

# A claim's rules map each certificate kind that can decide it to a reader
# (certificate, cell config) -> the verdict the certificate's own fields prove
# in the cell's model, or None.
Rules = dict[type, Callable[[Any, SpaceConfig], Optional[str]]]


def _shows(kind: type, verdict: str) -> Rules:
    """A kind whose passing re-check alone proves the verdict."""

    def shown(cert: Any, cfg: SpaceConfig) -> str:
        return verdict

    return {kind: shown}


def _t2_fails(v: SeparationVerdict, cfg: SpaceConfig) -> Optional[str]:
    """A negative T2 verdict's rule gives the origins' opens a common point at any radii,
    in both models; a positive verdict, or one of another axiom, proves nothing."""
    return FAILS if v.axiom == "T2" and not v.holds else None


def _not_evenly_covered(v: SeparationVerdict, cfg: SpaceConfig) -> Optional[str]:
    """Lemma: two origins with no disjoint opens lie in one member of any disjoint open
    family that covers a window's preimage; that member holds two points over 0, so it
    maps injectively onto no window.  The T2 failure holds at any radii, so at every window."""
    return _t2_fails(v, cfg)


def _no_local_sheets(v: SeparationVerdict, cfg: SpaceConfig) -> Optional[str]:
    """Lemma: local sheets are disjoint opens covering a window's preimage, each holding at
    most one point over 0.  Two origins with no disjoint opens can lie neither in two
    different sheets nor in one.  The T2 failure holds at any radii, so at every window."""
    return _t2_fails(v, cfg)


def _germs_inseparable(v: SeparationVerdict, cfg: SpaceConfig) -> Optional[str]:
    """Lemma: the sections x -> x off 0, taking origin i or origin j at 0, are continuous,
    as every open around an origin holds all small nonzero points.  They agree off 0 and
    differ at 0, so their distinct germs over 0 have no disjoint neighbourhoods."""
    return _t2_fails(v, cfg)


def _charts(if_separated: str, if_indistinguishable: str) -> Rules:
    def separated(cert: SeparatedCharts, cfg: SpaceConfig) -> Optional[str]:
        """Lemma: each origin's chart avoids every other origin, so T1 holds (pairs with a
        regular point separate by coordinate intervals); a chart holds one point over each
        x in (-eps, eps), a bijection; chart 1 avoids origin 2, so the origin filters differ.
        Charts are basic opens of the quotient model only."""
        return if_separated if cfg.model is TopologyModel.QUOTIENT else None

    def indistinguishable(cert: IndistinguishableOrigins, cfg: SpaceConfig) -> Optional[str]:
        """Lemma: a ball holding one origin holds every origin, at distance 0 from it: no
        open around one origin avoids another (T1 fails), and every basic open at an origin
        holds all k origins (one filter) over coordinate 0, so none collapses injectively."""
        return if_indistinguishable if cfg.model is TopologyModel.PSEUDOMETRIC else None

    return {SeparatedCharts: separated, IndistinguishableOrigins: indistinguishable}


_PATH_LIFTS_FAIL = _shows(MonodromyObstruction, FAILS)


def _contracts(cert: IndistinguishableOrigins, cfg: SpaceConfig) -> Optional[str]:
    """Lemma: the Kolmogorov quotient, which identifies points at distance 0, is
    the line with its usual metric, and a space's map onto its Kolmogorov quotient
    is a homotopy equivalence; so the pseudometric space contracts and every loop is
    null-homotopic."""
    return HOLDS if cfg.model is TopologyModel.PSEUDOMETRIC else None


def _probe_not_null(rec: LoopClassRecord, cfg: SpaceConfig) -> Optional[str]:
    """A loop whose reduced quotient word is not empty is not null-homotopic in
    the quotient model, so that space is not contractible either.  Quotient model only."""
    return FAILS if cfg.model is TopologyModel.QUOTIENT and len(rec.quotient_class) > 0 else None


def _deck_group_nontrivial(table: DeckGroupTable, cfg: SpaceConfig) -> Optional[str]:
    """The base curve component is simply connected, so its loop group is
    trivial and has one subgroup: the classical correspondence offers a single
    cover, which cannot account for a deck group of more than one element."""
    return FAILS if len(table.elements) > 1 else None


_CONTRACTS: Rules = {
    LoopClassRecord: _probe_not_null,
    IndistinguishableOrigins: _contracts,
}


def _null_homotopy_unliftable(rec: LoopClassRecord, cfg: SpaceConfig) -> Optional[str]:
    """Lemma: the base line is contractible, so the probe's projection is null-homotopic
    rel its regular basepoint.  A lift of that null-homotopy from the probe would contract
    the probe, but the probe's reduced quotient word is not empty.  (Homotopy lifting makes
    p_* injective on pi1: Hatcher, Algebraic Topology, Prop. 1.31.)  Quotient model only."""
    return _probe_not_null(rec, cfg)


def _every_lift_extends(cert: IndistinguishableOrigins, cfg: SpaceConfig) -> Optional[str]:
    """Lemma: balls of ``pseudo_dist`` are preimages of coordinate intervals, so a map into
    the space is continuous when its coordinate is.  Any origin may then sit at any zero of
    a homotopy, so every lift extends, in k >= 2 ways.  Pseudometric model only."""
    return HOLDS_NON_UNIQUELY if cfg.model is TopologyModel.PSEUDOMETRIC else None


def _constancy_unliftable(rec: LoopClassRecord, cfg: SpaceConfig) -> Optional[str]:
    """Lemma: the constant homotopy of the probe's base loop has zero set {zero times} x I.
    The constancy rule puts one origin on all of it, but the probe carries two distinct
    labels there, so its lift does not extend.  The quotient model decides by its chart
    rule, not the constancy rule, so there the lemma of the homotopy-lifting cell applies."""
    if cfg.model is TopologyModel.QUOTIENT:
        return _null_homotopy_unliftable(rec, cfg)
    return FAILS if len({origin for _, origin in rec.loop.labels}) > 1 else None


_ORIGINS_REF = "indistinguishable-origins:pseudometric"
_CHARTS_REF = "separated-charts:quotient"
_HAUSDORFF_REF = "separation-hausdorff:any"

# (claim id, statement, (quotient verdict, ref), (pseudometric verdict, ref), rules)
CLAIMS = (
    ("separation-t1", "any two distinct points each lie in a basic open avoiding the other",
     (HOLDS, _CHARTS_REF), (FAILS, _ORIGINS_REF), _charts(HOLDS, FAILS)),
    ("separation-hausdorff", "any two distinct points have disjoint basic opens",
     (FAILS, _HAUSDORFF_REF), (FAILS, _HAUSDORFF_REF), {SeparationVerdict: _t2_fails}),
    ("locally-euclidean-at-origins",
     "each origin has a basic open collapsing bijectively onto a coordinate interval",
     (HOLDS, _CHARTS_REF), (FAILS, _ORIGINS_REF), _charts(HOLDS, FAILS)),
    ("origin-filter-coincidence", "every basic open containing one origin contains all the others",
     (FAILS, _CHARTS_REF), (HOLDS, _ORIGINS_REF), _charts(FAILS, HOLDS)),
    ("pi1-trivial", "every loop is null-homotopic",
     (FAILS, "pi1-probe"), (HOLDS, _ORIGINS_REF), _CONTRACTS),
    ("contractible", "the whole space contracts to a point",
     (FAILS, "pi1-probe"), (HOLDS, _ORIGINS_REF), _CONTRACTS),
    ("even-covering", "some window around the accumulation point is evenly covered",
     (FAILS, _HAUSDORFF_REF), (FAILS, _HAUSDORFF_REF), {SeparationVerdict: _not_evenly_covered}),
    ("branched-cover", "the projection splits small windows into disjoint local sheets",
     (FAILS, _HAUSDORFF_REF), (FAILS, _HAUSDORFF_REF), {SeparationVerdict: _no_local_sheets}),
    ("etale-separated",
     "distinct germs of sections over the accumulation point are distinguishable",
     (FAILS, _HAUSDORFF_REF), (FAILS, _HAUSDORFF_REF), {SeparationVerdict: _germs_inseparable}),
    ("unique-path-lifting", "a path and a start point determine at most one lift",
     (FAILS, "path-lifting:any"), (FAILS, "path-lifting:any"), _PATH_LIFTS_FAIL),
    ("homotopy-lifting", "a homotopy extends any lift of its initial path",
     (FAILS, "pi1-probe"), (HOLDS_NON_UNIQUELY, _ORIGINS_REF),
     {LoopClassRecord: _null_homotopy_unliftable, IndistinguishableOrigins: _every_lift_extends}),
    ("homotopy-lifting-origin-constancy",
     "homotopy lifting under the rule that origin-valued maps are constant",
     (FAILS, "pi1-probe"), (FAILS, "pi1-probe"), {LoopClassRecord: _constancy_unliftable}),
    ("monodromy-defined", "loops act on the fibre through lift endpoints",
     (FAILS, "path-lifting:any"), (FAILS, "path-lifting:any"), _PATH_LIFTS_FAIL),
    ("deck-group-symmetric",
     "deck transformations realize every origin permutation (order {order})",
     (HOLDS, "deck-group:any"), (HOLDS, "deck-group:any"), _shows(DeckGroupTable, HOLDS)),
    ("semicovering", "the projection is a local homeomorphism with unique continuous lifting",
     (FAILS, "path-lifting:any"), (FAILS, "path-lifting:any"), _PATH_LIFTS_FAIL),
    ("subgroup-correspondence", "the projection arises from a subgroup of the base loop group",
     (FAILS, "deck-group:any"), (FAILS, "deck-group:any"),
     {DeckGroupTable: _deck_group_nontrivial}),
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


def run_audit(cfg: SpaceConfig, eps: Fraction = Fraction(1), x0: Fraction = Fraction(1)) -> ReportDocument:
    """Build every certificate the claims table cites, for origin count cfg.k.

    Certificates are built under both models so the table itself records
    every model split; ``cfg.model`` is echoed as the requested model.
    """
    if cfg.k not in _TABLE_KS:
        # the deck table row needs the full group
        raise NonHausError(f"audit supports 2 <= k <= 6, got {cfg.k}")
    eps, x0 = Fraction(eps), Fraction(x0)
    if eps <= 0:
        raise NonHausError(f"chart radius must be positive, got {eps}")
    k = cfg.k
    quotient = SpaceConfig(k, TopologyModel.QUOTIENT)
    probe = probe_loop(1, 2)
    certs: dict[str, Any] = {
        _HAUSDORFF_REF: {v.axiom: v for v in separation_report(quotient)}["T2"],
        "path-lifting:any": monodromy_verdict(x0, quotient),
        _CHARTS_REF: SeparatedCharts(eps=eps),
        "pi1-probe": LoopClassRecord(loop=probe, quotient_class=loop_class(probe, quotient)),
        _ORIGINS_REF: IndistinguishableOrigins(),
        "deck-group:any": deck_group(k),
    }
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
        if v.rule is not None:
            return [f"{v.axiom}: positive verdict with a rule"]
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
    if v.opens is not None:
        return [f"{v.axiom}: negative verdict with opens"]
    if v.rule.i == v.rule.j or not (1 <= v.rule.i <= k and 1 <= v.rule.j <= k):
        return [f"{v.axiom}: rule needs two distinct origins in 1..{k}"]
    if v.pair != (Origin(v.rule.i), Origin(v.rule.j)):
        return [f"{v.axiom}: pair is not the rule's origins {v.rule.i} and {v.rule.j}"]
    return []  # the rule's common point, min(e1, e2)/2, lies in both opens at any radii


def _recheck_loop_class(rec: LoopClassRecord, k: int) -> list[str]:
    labels = [origin for _, origin in rec.loop.labels]
    if not all(1 <= origin <= k for origin in labels):
        return [f"loop labels {labels} are not origins of 1..{k}"]
    if loop_class(rec.loop, SpaceConfig(k, TopologyModel.QUOTIENT)) != rec.quotient_class:
        return ["quotient loop class does not reproduce"]
    return []


def _recheck_indistinguishable_origins(cert: IndistinguishableOrigins, k: int) -> list[str]:
    """Distance 0 between every two of the report's k origins."""
    return [f"origins {i} and {j} lie at distance {d}"
            for i in range(1, k + 1) for j in range(i + 1, k + 1)
            if (d := pseudo_dist(Origin(i), Origin(j))) != 0]


def _recheck_separated_charts(cert: SeparatedCharts, k: int) -> list[str]:
    """Chart i holds origin j exactly when i = j, for every i and j of the report's 1..k;
    a chart needs a positive radius."""
    if cert.eps <= 0:
        return [f"radius {cert.eps}: no chart of the quotient model"]
    return [f"chart {i} {'holds' if i != j else 'misses'} origin {j}"
            for i in range(1, k + 1) for j in range(1, k + 1)
            if open_contains(OriginChart(i, cert.eps), Origin(j)) != (i == j)]


def _recheck_deck_table(table: DeckGroupTable, k: int) -> list[str]:
    """The table keeps its own k for the ``deck`` subcommand; in a report it is the report's."""
    return recheck_deck_group(table) or (
        [f"table of k={table.k} in a report of k={k}"] if table.k != k else [])


# certificate type -> re-derivation of the certificate from its own fields and
# the report's k
_RECHECKS: dict[type, Callable[[Any, int], list[str]]] = {
    SeparationVerdict: _recheck_separation,
    SeparatedCharts: _recheck_separated_charts,
    LoopClassRecord: _recheck_loop_class,
    IndistinguishableOrigins: _recheck_indistinguishable_origins,
    MonodromyObstruction: recheck_monodromy,
    DeckGroupTable: _recheck_deck_table,
}
# the kinds a report may carry: exactly those with a re-check
Certificate = Union[tuple(_RECHECKS)]


def schema_failures(version: str) -> list[str]:
    """The failure of a report of schema ``version``, unless that is ``SCHEMA_VERSION``."""
    return [] if version == SCHEMA_VERSION else [
        f"schema_version {version!r} is not {SCHEMA_VERSION!r}"]


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
    failures = schema_failures(doc.schema_version)
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
        read = rules.get(type(cert))
        proved = read(cert, SpaceConfig(doc.k, TopologyModel(model))) if read else None
        if proved != verdict:
            failures.append(f"{claim_id} ({model}): the table says {verdict} but {ref} "
                            f"proves {proved or 'nothing'}")
    return failures
