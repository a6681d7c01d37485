"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here: exact equality for all rational machinery,
1e-6 for the thickened coverage grid, 1e-9 relative for thickened norms.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from conftest import brute_force_lifts, double_dip_path, triple_dip_path
from nonhaus import serialize
from nonhaus.audit import FAILS, HOLDS, run_audit
from nonhaus.embedding import EmbeddingSpec, embed_point, embedding_checks
from nonhaus.figures import SvgScene, render_figure
from nonhaus.lifting import (
    LiftsEnumerated,
    NoLift,
    NonUniqueExistence,
    attempt_homotopy_lift,
    bounce_path,
    enumerate_lifts,
    extract_zero_set,
    homotopy_lift_record,
    make_merging_field,
    monodromy_verdict,
    verify_lift_continuity,
)
from nonhaus.projection import even_cover_certificate, recheck_even_cover
from nonhaus.space import (
    LabeledRep,
    Origin,
    Regular,
    SpaceConfig,
    TopologyModel,
    basic_open,
    canonicalize,
    labeled_dist,
    open_contains,
    pseudo_dist,
    separable,
    separation_report,
)
from nonhaus.symmetry import (
    DeckElement,
    contract_loop,
    deck_apply,
    deck_group,
    deck_rigidity,
    loop_class,
    probe_loop,
    recheck_contraction,
)
from nonhaus.thickened import thick_audit, thick_lift_count

QUOTIENT = TopologyModel.QUOTIENT
PSEUDO = TopologyModel.PSEUDOMETRIC


def passed(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_01_lift_count():
    start = time.perf_counter()
    for k in (2, 3, 5):
        lifts = enumerate_lifts(bounce_path(1), Regular(1), SpaceConfig(k))
        assert len(lifts) == k
        midpoints = [lift.point_at(Fraction(1, 2)) for lift in lifts]
        assert len(set(midpoints)) == k
        for model in (QUOTIENT, PSEUDO):
            cfg = SpaceConfig(k, model)
            for lift in lifts:
                assert verify_lift_continuity(lift, cfg).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    passed(1, "lift count equals the number of origins")


def test_02_lift_count_law():
    for k in (2, 3):
        cfg = SpaceConfig(k)
        for path, m in ((double_dip_path(), 2), (triple_dip_path(), 3)):
            start = Regular(path.breakpoints[0][1])
            lifts = enumerate_lifts(path, start, cfg)
            oracle = brute_force_lifts(path, start, cfg)
            assert len(lifts) == k**m
            assert [l.values for l in lifts] == [l.values for l in oracle]
    passed(2, "lift counts follow the k^m law and match the brute-force oracle")


def test_03_deck_group():
    rng = random.Random(3)
    samples = [Regular(Fraction(rng.randint(1, 2000), rng.randint(1, 1000)) * rng.choice((1, -1)))
               for _ in range(1000)]
    from nonhaus.projection import project

    for k in (2, 3, 4):
        table = deck_group(k)
        assert len(table.elements) == math.factorial(k)
        assert table.homomorphism_ok and table.faithful_ok
        for g in table.elements:
            for p in samples:
                assert project(deck_apply(g, p)) == project(p)
            for i in range(1, k + 1):
                assert project(deck_apply(g, Origin(i))) == project(Origin(i))
    passed(3, "deck group is the full origin-permutation group")


def test_04_deck_rigidity():
    bad_candidates = [
        ((Fraction(1), Fraction(2)),),
        ((Fraction(1, 2), Fraction(1, 3)),),
        ((Fraction(-5), Fraction(5)),),
    ]
    for moves in bad_candidates:
        verdict = deck_rigidity(DeckElement((2, 1)), moved_regular=moves)
        assert not verdict.accepted
        x, y = verdict.moved_witness
        assert x != y  # the projected coordinates differ: the recorded witness
    for k in (2, 3, 4):
        for images in itertools.permutations(range(1, k + 1)):
            assert deck_rigidity(DeckElement(images)).accepted
    passed(4, "non-identity regular parts rejected, pure permutations accepted")


def test_05_even_cover_failure():
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
        for k in (2, 5):
            for model in (QUOTIENT, PSEUDO):
                cfg = SpaceConfig(k, model)
                cert = even_cover_certificate(eps, cfg)
                assert len(cert.fibre) == k
                assert len(cert.witnesses) == k * (k - 1) // 2
                assert recheck_even_cover(cert) == []
                for w in cert.witnesses:
                    assert open_contains(w.open_i, w.common)
                    assert open_contains(w.open_j, w.common)
    passed(5, "even-covering failure certificates pass their exact re-check")


def test_06_homotopy_lifting_failure():
    field = make_merging_field()
    conflict = {Fraction(1, 4): 1, Fraction(3, 4): 2}
    consistent = {Fraction(1, 4): 1, Fraction(3, 4): 1}
    q2 = SpaceConfig(2, QUOTIENT)
    p2 = SpaceConfig(2, PSEUDO)

    result = attempt_homotopy_lift(field, conflict, q2)
    assert isinstance(result, NoLift)

    # exhaustive oracle over per-component assignments
    complex_ = extract_zero_set(field)
    def satisfying(assignment):
        count = 0
        for combo in itertools.product(range(1, q2.k + 1), repeat=len(complex_.components)):
            if all(
                combo[comp.index] == assignment[s]
                for comp in complex_.components
                for s in comp.bottom_touches
            ):
                count += 1
        return count

    assert satisfying(conflict) == 0
    assert satisfying(consistent) == 1

    found = attempt_homotopy_lift(field, consistent, q2)
    assert isinstance(found, LiftsEnumerated) and len(found.assignments) == 1

    assert isinstance(attempt_homotopy_lift(field, conflict, p2), NonUniqueExistence)
    constancy = attempt_homotopy_lift(field, conflict, p2, paper_constancy=True)
    assert isinstance(constancy, NoLift)
    passed(6, "merging field refuses the mixed assignment exactly as certified")


def test_07_pseudometric():
    rng = random.Random(7)
    k = 4

    def pt():
        num = rng.randint(-999, 999)
        return Origin(rng.randint(1, k)) if num == 0 else Regular(Fraction(num, rng.randint(1, 999)))

    for _ in range(10_000):
        p, q, r = pt(), pt(), pt()
        assert pseudo_dist(p, r) <= pseudo_dist(p, q) + pseudo_dist(q, r)
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            assert pseudo_dist(Origin(i), Origin(j)) == 0
    for _ in range(10_000):
        x = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        y = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        xi, yi = rng.randint(1, k), rng.randint(1, k)
        xis = range(1, k + 1) if x != 0 else [xi]
        yis = range(1, k + 1) if y != 0 else [yi]
        best = min(
            labeled_dist(LabeledRep(x, i), LabeledRep(y, j), k) for i in xis for j in yis
        )
        assert best == pseudo_dist(
            canonicalize(LabeledRep(x, xi), k), canonicalize(LabeledRep(y, yi), k)
        )
    passed(7, "pseudometric: exact triangle inequality, zero set, label minimum")


def test_08_separation_audit():
    q2 = SpaceConfig(2, QUOTIENT)
    p2 = SpaceConfig(2, PSEUDO)
    verdicts_q = {v.axiom: v for v in separation_report(q2)}
    assert verdicts_q["T1"].holds
    assert not verdicts_q["T2"].holds
    assert verdicts_q["T2"].pair == (Origin(1), Origin(2))
    verdicts_p = {v.axiom: v for v in separation_report(p2)}
    assert not verdicts_p["T0"].holds

    rng = random.Random(8)
    for cfg in (q2, p2):
        verdict = separable(Origin(1), Origin(2), cfg)
        assert not verdict.holds
        for _ in range(100):
            e1 = Fraction(rng.randint(1, 999), rng.randint(1, 999))
            e2 = Fraction(rng.randint(1, 999), rng.randint(1, 999))
            common = verdict.rule.common_point(e1, e2)
            assert open_contains(basic_open(Origin(1), e1, cfg), common)
            assert open_contains(basic_open(Origin(2), e2, cfg), common)
    passed(8, "separation verdicts split by model with verified witnesses")


def test_09_loop_classification():
    q2 = SpaceConfig(2, QUOTIENT)
    p2 = SpaceConfig(2, PSEUDO)

    same = probe_loop(1, 1)
    assert len(loop_class(same, q2)) == 0
    cert = contract_loop(same, q2)
    for stage in cert.stages:
        result = attempt_homotopy_lift(stage.field, dict(stage.assignment), q2, False)
        assert not isinstance(result, NoLift)
        assert result == stage.certificate
    assert recheck_contraction(cert, 2) == []

    mixed = probe_loop(1, 2)
    assert len(loop_class(mixed, q2)) == 2
    assert len(loop_class(mixed, p2)) == 0

    doc = run_audit(q2)
    pi1 = next(c for c in doc.claims if c.claim_id == "pi1-trivial")
    assert pi1.verdict("quotient") == FAILS
    assert pi1.verdict("pseudometric") == HOLDS
    passed(9, "loop classes split by model and contractions verify stage-by-stage")


def test_10_monodromy():
    for k in (2, 5):
        cert = monodromy_verdict(1, SpaceConfig(k))
        assert len(cert.lifts) == k >= 2
        assert len({lift.start for lift in cert.lifts}) == 1
        assert len({lift.values for lift in cert.lifts}) == k
    passed(10, "monodromy obstruction carries k distinct lifts from one start")


def test_11_embedding():
    rng = random.Random(11)
    for _ in range(10_000):
        num = rng.randint(-999, 999) or 1
        x = Fraction(num, rng.randint(1, 999))
        assert embed_point(x).norm_sq() * (1 + x * x) == x * x
    report = embedding_checks(1000)
    assert report.injective_ok
    for n in range(1, 1001):
        for s in (1, -1):
            assert embed_point(Fraction(s, n)).norm_sq() <= Fraction(1, n * n)
    passed(11, "embedding identity, injectivity, and accumulation bound are exact")


def test_12_thickened():
    start = time.perf_counter()
    for k, path, m in (
        (2, bounce_path(1), 1),
        (3, bounce_path(1), 1),
        (2, double_dip_path(), 2),
        (3, triple_dip_path(), 3),
    ):
        assert thick_lift_count(path, Fraction(1, 4), SpaceConfig(k)) == k**m

    main = thick_audit(32, EmbeddingSpec.MAIN_CURVE, tolerance=1e-6)
    assert main.coverage < 1
    w = main.lower_half_witness
    assert w is not None and w.v < 0

    spiral = thick_audit(32, EmbeddingSpec.SPIRAL, tolerance=1e-6)
    assert spiral.coverage >= 0.95

    probe = main.probes[0]
    assert probe.origin == 1 and probe.t == Fraction(1, 2)
    gap = math.hypot(
        probe.limit_pos[0] - probe.limit_neg[0], probe.limit_pos[1] - probe.limit_neg[1]
    )
    assert gap > 0.5

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    passed(12, "thickened variant keeps the pathologies and its audited gaps")


def test_13_serialization_determinism():
    q2 = SpaceConfig(2, QUOTIENT)
    p2 = SpaceConfig(2, PSEUDO)
    field = make_merging_field()
    conflict = {Fraction(1, 4): 1, Fraction(3, 4): 2}
    certificates = [
        separable(Origin(1), Origin(2), q2),
        separation_report(p2)[0],
        even_cover_certificate(1, q2),
        monodromy_verdict(1, p2),
        homotopy_lift_record(field, conflict, q2, False),
        homotopy_lift_record(field, conflict, p2, False),
        homotopy_lift_record(field, conflict, p2, True),
        deck_group(3),
        deck_rigidity(DeckElement((2, 1)), ((Fraction(1), Fraction(2)),)),
        contract_loop(probe_loop(1, 1), q2),
        contract_loop(probe_loop(1, 2), p2),
        thick_audit(16, EmbeddingSpec.MAIN_CURVE),
        run_audit(q2),
    ]
    for cert in certificates:
        text = serialize.dumps(cert)
        assert serialize.loads(text, type(cert)) == cert

    assert serialize.dumps(run_audit(q2)) == serialize.dumps(run_audit(q2))
    scene = SvgScene(k=3, lifts=True)
    assert render_figure(scene) == render_figure(scene)
    passed(13, "JSON round-trips losslessly; JSON and SVG are byte-identical")
