import dataclasses
import json
from fractions import Fraction

import pytest

from nonhaus import audit, cli, serialize
from nonhaus.audit import (
    CLAIMS,
    FAILS,
    HOLDS,
    HOLDS_NON_UNIQUELY,
    NOT_CHECKED,
    IndistinguishableOrigins,
    SeparatedCharts,
    _recheck_indistinguishable_origins,
    _recheck_separation,
    recheck_report,
    run_audit,
)
from nonhaus.errors import NonHausError
from nonhaus.lifting import homotopy_lift_record, make_merging_field
from nonhaus.space import (
    Ball,
    InseparabilityRule,
    Origin,
    OriginChart,
    SeparationVerdict,
    SpaceConfig,
    TopologyModel,
    separation_report,
)
from nonhaus.symmetry import (
    ContractionCertificate,
    ReducedWord,
    contract_loop,
    deck_group,
    loop_class,
    probe_loop,
    recheck_contraction,
)

Q2 = SpaceConfig(2, TopologyModel.QUOTIENT)
P2 = SpaceConfig(2, TopologyModel.PSEUDOMETRIC)


@pytest.fixture(scope="module")
def report():
    return run_audit(Q2)


class TestAuditTable:
    def test_quotient_expectations(self, report):
        expect = {
            "separation-t1": HOLDS,
            "separation-hausdorff": FAILS,
            "locally-euclidean-at-origins": HOLDS,
            "origin-filter-coincidence": FAILS,
            "pi1-trivial": FAILS,
            "contractible": FAILS,
            "even-covering": FAILS,
            "branched-cover": FAILS,
            "etale-separated": FAILS,
            "unique-path-lifting": FAILS,
            "homotopy-lifting": FAILS,
            "homotopy-lifting-origin-constancy": FAILS,
            "monodromy-defined": FAILS,
            "deck-group-symmetric": HOLDS,
            "semicovering": FAILS,
            "subgroup-correspondence": FAILS,
            "groupoid-covering": NOT_CHECKED,
            "stacky-cover": NOT_CHECKED,
        }
        got = {c.claim_id: c.verdict("quotient") for c in report.claims}
        assert got == expect

    def test_pseudometric_expectations(self, report):
        expect = {
            "separation-t1": FAILS,
            "separation-hausdorff": FAILS,
            "locally-euclidean-at-origins": FAILS,
            "origin-filter-coincidence": HOLDS,
            "pi1-trivial": HOLDS,
            "contractible": HOLDS,
            "even-covering": FAILS,
            "branched-cover": FAILS,
            "etale-separated": FAILS,
            "unique-path-lifting": FAILS,
            "homotopy-lifting": HOLDS_NON_UNIQUELY,
            "homotopy-lifting-origin-constancy": FAILS,
            "monodromy-defined": FAILS,
            "deck-group-symmetric": HOLDS,
            "semicovering": FAILS,
            "subgroup-correspondence": FAILS,
            "groupoid-covering": NOT_CHECKED,
            "stacky-cover": NOT_CHECKED,
        }
        got = {c.claim_id: c.verdict("pseudometric") for c in report.claims}
        assert got == expect

    def test_model_split_recorded(self, report):
        pi1 = next(c for c in report.claims if c.claim_id == "pi1-trivial")
        assert pi1.verdict("quotient") == FAILS
        assert pi1.verdict("pseudometric") == HOLDS
        probe = report.certificate("pi1-probe")
        assert len(probe.quotient_class) == 2
        assert len(loop_class(probe.loop, P2)) == 0

    def test_checked_rows_reference_certificates(self, report):
        certmap = dict(report.certificates)
        for claim in report.claims:
            for model, verdict in claim.verdicts:
                ref = claim.certificate_ref(model)
                if verdict in (HOLDS, FAILS, HOLDS_NON_UNIQUELY):
                    assert ref is not None
                    assert ref in certmap
                else:
                    assert ref is None

    def test_deck_order_row(self):
        doc = run_audit(SpaceConfig(3, TopologyModel.QUOTIENT))
        table = doc.certificate("deck-group:any")
        assert len(table.elements) == 6
        row = next(c for c in doc.claims if c.claim_id == "deck-group-symmetric")
        assert "order 6" in row.statement

    def test_recheck_green(self, report):
        assert recheck_report(report) == []

    def test_k_validated(self):
        with pytest.raises(NonHausError, match="audit supports 2 <= k <= 6, got 7"):
            run_audit(SpaceConfig(7))

    def test_eps_validated(self):
        # the chart radius is refused before any certificate is built
        for eps in (0, -1):
            with pytest.raises(NonHausError, match=f"chart radius must be positive, got {eps}"):
                run_audit(Q2, eps=Fraction(eps))

    def test_pseudometric_run_matches(self):
        doc = run_audit(P2)
        assert doc.model == "pseudometric"
        assert {c.claim_id for c in doc.claims} == {
            c.claim_id for c in run_audit(Q2).claims
        }


def _flip_even_covering(doc):
    claim = next(c for c in doc["claims"] if c["claim_id"] == "even-covering")
    claim["verdicts"] = [[model, HOLDS] for model, _ in claim["verdicts"]]


def _drop_semicovering(doc):
    doc["claims"] = [c for c in doc["claims"] if c["claim_id"] != "semicovering"]


def _reverse_claims(doc):
    doc["claims"].reverse()


def _swap_probe_and_origins(doc):
    certs = dict(doc["certificates"])
    certs["pi1-probe"], certs[_ORIGINS_REF] = certs[_ORIGINS_REF], certs["pi1-probe"]
    doc["certificates"] = [[ref, certs[ref]] for ref, _ in doc["certificates"]]


def _negative_quotient_t1(doc):
    # the negative T2 verdict relabelled T1, in place of the charts
    _replace_certificate(doc, _CHARTS_REF, {**_certificate(doc, _HAUSDORFF_REF), "axiom": "T1"})


def _cut_deck_table(doc):
    dict(doc["certificates"])["deck-group:any"]["table"] = [[0]]


def _negative_deck_k(doc):
    dict(doc["certificates"])["deck-group:any"]["k"] = -1


def _abelian_noncommuting_pair(doc):
    dict(doc["certificates"])["deck-group:any"]["noncommuting_pair"] = [5, 9]


_ORIGINS_REF = "indistinguishable-origins:pseudometric"
_CHARTS_REF = "separated-charts:quotient"
_HAUSDORFF_REF = "separation-hausdorff:any"
# the three quotient cells that cite the separated charts, in table order
_CHART_CELLS = (("separation-t1", HOLDS), ("locally-euclidean-at-origins", HOLDS),
                ("origin-filter-coincidence", FAILS))
# the six pseudometric cells that cite the indistinguishable origins, in table order
_ORIGIN_CELLS = (("separation-t1", FAILS), ("locally-euclidean-at-origins", FAILS),
                 ("origin-filter-coincidence", HOLDS), ("pi1-trivial", HOLDS),
                 ("contractible", HOLDS), ("homotopy-lifting", HOLDS_NON_UNIQUELY))
# the five cells that cite the pi1 probe, in table order
_PROBE_CELLS = (("pi1-trivial", "quotient"), ("contractible", "quotient"),
                ("homotopy-lifting", "quotient"), ("homotopy-lifting-origin-constancy", "quotient"),
                ("homotopy-lifting-origin-constancy", "pseudometric"))
# the four rows that fail in both models by the one T2 failure, in table order
_T2_ROWS = ("separation-hausdorff", "even-covering", "branched-cover", "etale-separated")


def _origins_deleted(doc):
    doc["certificates"] = [c for c in doc["certificates"] if c[0] != _ORIGINS_REF]


def _subgroup_cites_probe(doc):
    claim = next(c for c in doc["claims"] if c["claim_id"] == "subgroup-correspondence")
    claim["certificate_refs"] = [[model, "pi1-probe"] for model, _ in claim["certificate_refs"]]


def _monodromy_lifts(doc):
    return dict(doc["certificates"])["path-lifting:any"]["lifts"]


def _repeated_lift(doc):
    lifts = _monodromy_lifts(doc)
    lifts[1] = lifts[0]


def _swapped_lifts(doc):
    lifts = _monodromy_lifts(doc)
    lifts[0], lifts[1] = lifts[1], lifts[0]


def _moved_lift_start(doc):
    _monodromy_lifts(doc)[1]["values"][0] = {"kind": "regular", "x": "2/1"}


def _foreign_schema_version(doc):
    doc["schema_version"] = "nonhaus-report/99"


def _v8_homotopy_record(doc):
    """A report of the earlier schema, with a homotopy record that no kind of this one decodes."""
    doc["schema_version"] = "nonhaus-report/8"
    record = homotopy_lift_record(make_merging_field(), {Fraction(1, 4): 1, Fraction(3, 4): 2},
                                  SpaceConfig(2, TopologyModel.QUOTIENT))
    doc["certificates"] = sorted(
        doc["certificates"] + [["homotopy-lifting:quotient", json.loads(serialize.dumps(record))]],
        key=lambda c: c[0])


def _unknown_model(doc):
    doc["model"] = "banana"


def _capitalised_model(doc):
    doc["model"] = "Quotient"


def _certificate(doc, ref):
    return dict(doc["certificates"])[ref]


def _replace_certificate(doc, ref, cert):
    doc["certificates"] = [[r, cert if r == ref else c] for r, c in doc["certificates"]]


_ORIGIN_1 = {"kind": "origin", "index": 1}


def _t0_verdict_in_t1_cell(doc):
    _replace_certificate(doc, _CHARTS_REF, {
        "kind": "separation-verdict", "axiom": "T0", "holds": True, "rule": None,
        "pair": [_ORIGIN_1, {"kind": "origin", "index": 2}],
        "opens": [{"kind": "origin-chart", "index": i, "eps": "1/1"} for i in (1, 2)]})


def _origin_regular_pair_in_t1_cell(doc):
    _replace_certificate(doc, _CHARTS_REF, {
        "kind": "separation-verdict", "axiom": "T1", "holds": True, "rule": None,
        "pair": [_ORIGIN_1, {"kind": "regular", "x": "1/2"}],
        "opens": [{"kind": "origin-chart", "index": 1, "eps": "1/4"},
                  {"kind": "regular-interval", "a": "1/4", "b": "3/4"}]})


def _charts_of_radius(eps):
    def tamper(doc):
        _certificate(doc, _CHARTS_REF)["eps"] = eps
    return tamper


def _charts_swapped_for_origins(doc):
    charts, origins = _certificate(doc, _CHARTS_REF), _certificate(doc, _ORIGINS_REF)
    _replace_certificate(doc, _CHARTS_REF, origins)
    _replace_certificate(doc, _ORIGINS_REF, charts)


def _probe_replaced_by(ref):
    def tamper(doc):
        _replace_certificate(doc, "pi1-probe", _certificate(doc, ref))
    return tamper


def _hausdorff_rule_naming(field, index):
    def tamper(doc):
        _certificate(doc, _HAUSDORFF_REF)["rule"][field] = index
    return tamper


def _probe_through_origin(index):
    # the label and the letter of the first crossing agree, so only the range is wrong
    def tamper(doc):
        probe = _certificate(doc, "pi1-probe")
        probe["loop"]["labels"][0][1] = index
        probe["quotient_class"]["letters"][0][0] = index
    return tamper


def _probe_through_one_origin(doc):
    # the loop goes down and back up through origin 1, which is null-homotopic
    probe = _certificate(doc, "pi1-probe")
    probe["loop"]["labels"] = [["1/4", 1], ["3/4", 1]]
    probe["quotient_class"]["letters"] = []


def _path_lifting_swapped_for_hausdorff(doc):
    _replace_certificate(doc, "path-lifting:any", _certificate(doc, _HAUSDORFF_REF))


def _negative_verdict_of_regular_pair(doc):
    _certificate(doc, _HAUSDORFF_REF)["pair"] = [
        {"kind": "regular", "x": "1/1"}, {"kind": "regular", "x": "2/1"}]


def _negative_verdict_with_origin_7(doc):
    _certificate(doc, _HAUSDORFF_REF)["pair"][1]["index"] = 7


def _lift_over_other_path(doc):
    _monodromy_lifts(doc)[1]["base"]["breakpoints"][1][0] = "1/4"


def _lift_through_origin_k_plus_1(doc):
    _monodromy_lifts(doc)[1]["values"][1]["index"] = 4


def _deck_table_of_k_7(doc):
    _certificate(doc, "deck-group:any")["k"] = 7


def _sound_deck_table_of_k_3(doc):
    _replace_certificate(doc, "deck-group:any", serialize.encode(deck_group(3)))


def _uncited_probe_copy(doc):
    doc["certificates"].append(["uncited:any", _certificate(doc, "pi1-probe")])


def _deck_table_twice(doc):
    n = [ref for ref, _ in doc["certificates"]].index("deck-group:any")
    doc["certificates"].insert(n, doc["certificates"][n])


def _negative_verdicts_relabelled(doc):
    _certificate(doc, _HAUSDORFF_REF)["axiom"] = "T1"


def _negative_verdict_with_opens(doc):
    _certificate(doc, _HAUSDORFF_REF)["opens"] = [
        {"kind": "origin-chart", "index": i, "eps": "1/1"} for i in (1, 2)]


def _positive_verdict_with_rule(doc):
    _negative_verdict_with_opens(doc)
    _certificate(doc, _HAUSDORFF_REF)["holds"] = True


def _identity_twice(doc):
    cert = _certificate(doc, "deck-group:any")
    cert["elements"] = [cert["elements"][0]] * 2
    cert["table"] = [[0, 0], [0, 0]]


def _swapped_row_cells(row, a, b):
    """Swap two cells of one row of the deck table: the row stays a permutation."""
    def tamper(doc):
        cells = _certificate(doc, "deck-group:any")["table"][row]
        cells[a], cells[b] = cells[b], cells[a]
    return tamper


_FAILED = "certificate re-check failed: "
_PROVES_NOTHING = "{}: the table says {} but {} proves nothing"
_CHARTS_PROVE_NOTHING = _FAILED + "; ".join(
    _PROVES_NOTHING.format(f"{claim} (quotient)", verdict, _CHARTS_REF)
    for claim, verdict in _CHART_CELLS)
_NOT_QUOTIENT_CHARTS = _FAILED + _CHARTS_REF + ": radius {}: no chart of the quotient model"
_PROBE_PROVES_NOTHING = _FAILED + "; ".join(
    _PROVES_NOTHING.format(f"{claim} ({model})", "fails", "pi1-probe")
    for claim, model in _PROBE_CELLS)

# (id, k, tamper, what stderr names); a name starting with _FAILED is the exact line
_TAMPERS = [
    ("flipped-verdicts", 2, _flip_even_covering, "even-covering"),
    ("dropped-row", 2, _drop_semicovering, "semicovering"),
    ("reversed-rows", 2, _reverse_claims, "separation-t1"),
    # each swapped record re-checks, and proves only what its rules read in the other's cells
    ("swapped-certificate", 2, _swap_probe_and_origins, _FAILED + "; ".join(
        f"{claim} ({model}): the table says {verdict} but {ref} proves {proved}"
        for claim, model, verdict, ref, proved in (
            ("separation-t1", "pseudometric", FAILS, _ORIGINS_REF, "nothing"),
            ("locally-euclidean-at-origins", "pseudometric", FAILS, _ORIGINS_REF, "nothing"),
            ("origin-filter-coincidence", "pseudometric", HOLDS, _ORIGINS_REF, "nothing"),
            ("pi1-trivial", "quotient", FAILS, "pi1-probe", "nothing"),
            ("pi1-trivial", "pseudometric", HOLDS, _ORIGINS_REF, "nothing"),
            ("contractible", "quotient", FAILS, "pi1-probe", "nothing"),
            ("contractible", "pseudometric", HOLDS, _ORIGINS_REF, "nothing"),
            ("homotopy-lifting", "quotient", FAILS, "pi1-probe", "nothing"),
            ("homotopy-lifting", "pseudometric", HOLDS_NON_UNIQUELY, _ORIGINS_REF, "nothing"),
            ("homotopy-lifting-origin-constancy", "quotient", FAILS, "pi1-probe", "nothing"),
            ("homotopy-lifting-origin-constancy", "pseudometric", FAILS, "pi1-probe",
             "nothing")))),
    ("negative-t1", 2, _negative_quotient_t1, _CHARTS_PROVE_NOTHING),
    ("cut-deck-table", 2, _cut_deck_table, "deck-group:any"),
    ("negative-deck-k", 2, _negative_deck_k, "deck-group:any"),
    ("abelian-noncommuting-pair", 2, _abelian_noncommuting_pair, "deck-group:any"),
    ("foreign-schema-version", 2, _foreign_schema_version, "schema_version 'nonhaus-report/99'"),
    # the version is read before any certificate is decoded
    ("v8-homotopy-record", 2, _v8_homotopy_record,
     _FAILED + "schema_version 'nonhaus-report/8' is not 'nonhaus-report/9'"),
    ("unknown-model", 2, _unknown_model, "model 'banana'"),
    ("capitalised-model", 2, _capitalised_model, "model 'Quotient'"),
    # the one certificate of the pseudometric model's universal cells
    ("origins-deleted", 2, _origins_deleted,
     _FAILED + f"certificate 2: ref path-lifting:any differs from the cited ref {_ORIGINS_REF}"),
    ("subgroup-deck-ref-to-probe", 2, _subgroup_cites_probe,
     _FAILED + "claim 16: row subgroup-correspondence differs from the declared row "
     "subgroup-correspondence"),
    # the lifts come in the order enumerate_lifts emits, so none repeats
    ("repeated-lift", 2, _repeated_lift,
     _FAILED + "path-lifting:any: lift 1 does not follow lift 0 in origin order"),
    ("monodromy-lifts-swapped", 2, _swapped_lifts,
     _FAILED + "path-lifting:any: lift 1 does not follow lift 0 in origin order"),
    ("moved-lift-start", 2, _moved_lift_start,
     "path-lifting:any: lifts do not share a start point"),
    # the three quotient chart cells cite the one record of separated charts
    ("t0-verdict-in-t1-cell", 3, _t0_verdict_in_t1_cell, _CHARTS_PROVE_NOTHING),
    ("origin-regular-pair-in-t1-cell", 3, _origin_regular_pair_in_t1_cell, _CHARTS_PROVE_NOTHING),
    ("charts-of-radius-0", 2, _charts_of_radius("0/1"), _NOT_QUOTIENT_CHARTS.format(0)),
    ("charts-of-negative-radius", 2, _charts_of_radius("-1/1"), _NOT_QUOTIENT_CHARTS.format(-1)),
    # each lemma reader answers only the cells of its own model
    ("charts-swapped-for-origins", 2, _charts_swapped_for_origins, _FAILED + "; ".join(
        _PROVES_NOTHING.format(f"{claim} ({model})", verdict, ref)
        for claim, model, verdict, ref in (
            ("separation-t1", "quotient", HOLDS, _CHARTS_REF),
            ("separation-t1", "pseudometric", FAILS, _ORIGINS_REF),
            ("locally-euclidean-at-origins", "quotient", HOLDS, _CHARTS_REF),
            ("locally-euclidean-at-origins", "pseudometric", FAILS, _ORIGINS_REF),
            ("origin-filter-coincidence", "quotient", FAILS, _CHARTS_REF),
            ("origin-filter-coincidence", "pseudometric", HOLDS, _ORIGINS_REF),
            ("pi1-trivial", "pseudometric", HOLDS, _ORIGINS_REF),
            ("contractible", "pseudometric", HOLDS, _ORIGINS_REF),
            ("homotopy-lifting", "pseudometric", HOLDS_NON_UNIQUELY, _ORIGINS_REF)))),
    ("probe-replaced-by-origins", 2, _probe_replaced_by(_ORIGINS_REF), _PROBE_PROVES_NOTHING),
    ("probe-replaced-by-charts", 2, _probe_replaced_by(_CHARTS_REF), _PROBE_PROVES_NOTHING),
    # a loop through one origin re-checks, with an empty class, and proves none of the five
    ("probe-through-one-origin", 2, _probe_through_one_origin, _PROBE_PROVES_NOTHING),
    # every origin a certificate names is one of the report's 1..k
    ("t2-rule-of-origin-9", 2, _hausdorff_rule_naming("i", 9),
     _FAILED + f"{_HAUSDORFF_REF}: T2: rule needs two distinct origins in 1..2"),
    ("t2-rule-of-origin-0", 2, _hausdorff_rule_naming("i", 0),
     _FAILED + f"{_HAUSDORFF_REF}: T2: rule needs two distinct origins in 1..2"),
    ("t2-rule-of-one-origin", 2, _hausdorff_rule_naming("i", 2),
     _FAILED + f"{_HAUSDORFF_REF}: T2: rule needs two distinct origins in 1..2"),
    ("t2-rule-of-origin-k-plus-1", 3, _hausdorff_rule_naming("j", 4),
     _FAILED + f"{_HAUSDORFF_REF}: T2: rule needs two distinct origins in 1..3"),
    ("probe-through-origin-9", 2, _probe_through_origin(9),
     _FAILED + "pi1-probe: loop labels [9, 2] are not origins of 1..2"),
    ("probe-through-origin-0", 3, _probe_through_origin(0),
     _FAILED + "pi1-probe: loop labels [0, 2] are not origins of 1..3"),
    # a record that both models cite proves only its own claims
    ("path-lifting-swapped-for-t2", 2, _path_lifting_swapped_for_hausdorff,
     _FAILED + "; ".join(
         _PROVES_NOTHING.format(f"{claim} ({model})", "fails", "path-lifting:any")
         for claim in ("unique-path-lifting", "monodromy-defined", "semicovering")
         for model in ("quotient", "pseudometric"))),
    ("lift-over-other-path", 3, _lift_over_other_path,
     _FAILED + "path-lifting:any: lift 1 is over a different path"),
    ("lift-through-origin-k-plus-1", 3, _lift_through_origin_k_plus_1,
     _FAILED + "path-lifting:any: lift 1 fails verification; "
     "path-lifting:any: lift 2 does not follow lift 1 in origin order"),
    ("deck-table-of-k-7", 3, _deck_table_of_k_7,
     _FAILED + "deck-group:any: k=7 is outside the tabulated range 2..6"),
    # the deck table is the one record that keeps its own k, and it must be the report's
    ("sound-deck-table-of-k-3", 2, _sound_deck_table_of_k_3,
     _FAILED + "deck-group:any: table of k=3 in a report of k=2"),
    # the certificates are exactly the cited refs, each once, in sorted order
    ("uncited-probe-copy", 2, _uncited_probe_copy,
     _FAILED + "certificate 7: ref uncited:any differs from the cited ref (none)"),
    ("deck-table-twice", 2, _deck_table_twice,
     _FAILED + f"certificate 2: ref deck-group:any differs from the cited ref {_ORIGINS_REF}"),
    # a negative verdict proves T2 only, and the rows that follow from it fail by it
    ("negative-verdicts-relabelled", 2, _negative_verdicts_relabelled, _FAILED + "; ".join(
        _PROVES_NOTHING.format(f"{claim} ({model})", "fails", _HAUSDORFF_REF)
        for claim in _T2_ROWS for model in ("quotient", "pseudometric"))),
    # a negative verdict carries a rule and no opens, a positive one opens and no rule
    ("negative-verdict-with-opens", 2, _negative_verdict_with_opens,
     _FAILED + f"{_HAUSDORFF_REF}: T2: negative verdict with opens"),
    ("positive-verdict-with-rule", 2, _positive_verdict_with_rule,
     _FAILED + f"{_HAUSDORFF_REF}: T2: positive verdict with a rule"),
    # a negative verdict's pair is its rule's origins
    ("negative-verdict-of-regular-pair", 2, _negative_verdict_of_regular_pair,
     _FAILED + f"{_HAUSDORFF_REF}: T2: pair is not the rule's origins 1 and 2"),
    ("negative-verdict-with-origin-7", 2, _negative_verdict_with_origin_7,
     _FAILED + f"{_HAUSDORFF_REF}: T2: pair is not the rule's origins 1 and 2"),
    ("identity-twice", 2, _identity_twice,
     _FAILED + "deck-group:any: expected 2 distinct elements of degree 2"),
    ("k4-row-cells-swapped", 4, _swapped_row_cells(5, 19, 7),
     _FAILED + "deck-group:any: composition table wrong at (5, 7)"),
    ("k5-row-cells-swapped", 5, _swapped_row_cells(119, 0, 118),
     _FAILED + "deck-group:any: composition table wrong at (119, 0)"),
]


class TestRecheckFailures:
    @pytest.mark.parametrize("k, tamper, named", [t[1:] for t in _TAMPERS],
                             ids=[t[0] for t in _TAMPERS])
    def test_tampered_report_exits_3(self, tmp_path, capsys, k, tamper, named):
        path = tmp_path / "report.json"
        assert cli.main(["audit", "--k", str(k), "--json", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        tamper(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["audit", "--check", str(path)]) == 3
        err = capsys.readouterr().err
        if named.startswith(_FAILED):
            assert err == named + "\n"
        else:
            assert err.startswith(_FAILED) and named in err

    def test_other_model_echo_passes(self, tmp_path, capsys):
        # the model field echoes the request; the certificates cover both models
        path = tmp_path / "report.json"
        assert cli.main(["audit", "--k", "2", "--json", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["model"] = "pseudometric"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["audit", "--check", str(path)]) == 0
        assert capsys.readouterr().out.startswith("report ok:")

    def test_commuting_pair_exits_3(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert cli.main(["audit", "--k", "3", "--json", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        # element 0 is the identity, which commutes with element 1
        dict(doc["certificates"])["deck-group:any"]["noncommuting_pair"] = [0, 1]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["audit", "--check", str(path)]) == 3
        assert capsys.readouterr().err == (
            "certificate re-check failed: deck-group:any: noncommuting pair (0, 1) "
            "is not two indices whose products differ\n"
        )

    def test_tampered_loop_class(self, report):
        probe = report.certificate("pi1-probe")
        for letters in ((), ((2, 1), (1, -1))):  # the pseudometric class, and the reversed word
            bad_probe = dataclasses.replace(probe, quotient_class=ReducedWord(letters))
            failures = recheck_report(_with_certificate(report, "pi1-probe", bad_probe))
            assert failures == ["pi1-probe: quotient loop class does not reproduce"]

    def test_tampered_even_cover(self, report):
        # a sound positive T1 verdict in place of the T2 failure proves no even-cover failure
        separated = SeparationVerdict("T1", True, _ORIGINS, opens=(_chart(1), _chart(2)))
        failures = recheck_report(_with_certificate(report, _HAUSDORFF_REF, separated))
        assert [f for f in failures if f.startswith("even-covering")] == [
            _PROVES_NOTHING.format(f"even-covering ({model})", FAILS, _HAUSDORFF_REF)
            for model in ("quotient", "pseudometric")]

    def test_dangling_reference(self, report):
        certs = tuple((ref, c) for ref, c in report.certificates if ref != "pi1-probe")
        bad = dataclasses.replace(report, certificates=certs)
        assert recheck_report(bad) == [
            "certificate 4: ref separated-charts:quotient differs from the cited ref pi1-probe"]

    def test_certificates_in_another_order(self, report):
        bad = dataclasses.replace(report, certificates=report.certificates[::-1])
        assert recheck_report(bad) == [
            f"certificate 1: ref {_HAUSDORFF_REF} differs from the cited ref deck-group:any"]

    def test_indistinguishable_origins_prove_the_universal_cells(self, report):
        cert = report.certificate(_ORIGINS_REF)
        assert cert == IndistinguishableOrigins()
        rules = {c[0]: c[-1] for c in CLAIMS}
        for claim_id, verdict in _ORIGIN_CELLS:
            assert rules[claim_id][IndistinguishableOrigins](cert, P2) == verdict
        cells = [(claim.claim_id, claim.verdict("pseudometric")) for claim in report.claims
                 if claim.certificate_ref("pseudometric") == _ORIGINS_REF]
        assert tuple(cells) == _ORIGIN_CELLS

    def test_membership_cited_once_per_model(self, report):
        # each model's chart cells cite one certificate
        refs = {claim.claim_id: claim.certificate_refs for claim in report.claims}
        assert {refs[claim] for claim, _ in _CHART_CELLS} == {
            (("quotient", _CHARTS_REF), ("pseudometric", _ORIGINS_REF))}
        assert report.certificate(_CHARTS_REF) == SeparatedCharts(Fraction(1))
        # a failure that does not depend on the model is one record that both models cite
        for claim in (*_T2_ROWS, "unique-path-lifting", "monodromy-defined", "semicovering"):
            assert len(set(dict(refs[claim]).values())) == 1
        assert len(report.certificates) == 6

    def test_probe_and_origins_cited_by_exactly_their_cells(self, report):
        def citing(cited):
            return tuple((claim.claim_id, model) for claim in report.claims
                         for model, ref in claim.certificate_refs if ref == cited)

        assert citing("pi1-probe") == _PROBE_CELLS
        assert citing(_ORIGINS_REF) == tuple((claim, "pseudometric") for claim, _ in _ORIGIN_CELLS)

    def test_contraction_stage_with_origin_9(self):
        # the report carries no contraction; the library certificate still re-checks alone
        doc = json.loads(serialize.dumps(contract_loop(probe_loop(1, 2), P2)))
        doc["stages"][0]["assignment"][-1][1] = 9
        cert = serialize.loads(json.dumps(doc), ContractionCertificate)
        assert recheck_contraction(cert, 2) == [
            "stage 0: recorded inputs are rejected: origin 9 not in 1..2"]


_ORIGINS = (Origin(1), Origin(2))
_SUBGROUP_ROW_DIFFERS = ("claim 16: row subgroup-correspondence differs from the declared row "
                         "subgroup-correspondence")


def _with_certificate(doc, ref, cert):
    """doc with certificate ref replaced by cert, or dropped if cert is None."""
    certs = tuple((r, cert if r == ref else c) for r, c in doc.certificates)
    return dataclasses.replace(doc, certificates=tuple((r, c) for r, c in certs if c is not None))


def _identity_only(doc):
    table = doc.certificate("deck-group:any")
    return _with_certificate(doc, "deck-group:any", dataclasses.replace(
        table, elements=table.elements[:1], table=((0,),)))


def _without_deck_table(doc):
    return _with_certificate(doc, "deck-group:any", None)


def _deck_table_of_k_3(doc):
    return _with_certificate(doc, "deck-group:any", deck_group(3))


def _subgroup_citing(doc, ref):
    claims = tuple(
        dataclasses.replace(c, certificate_refs=tuple((m, ref) for m, _ in c.certificate_refs))
        if c.claim_id == "subgroup-correspondence" else c for c in doc.claims)
    return dataclasses.replace(doc, claims=claims)


def _chart(i):
    return OriginChart(i, Fraction(1))


class TestRecheckBranches:
    """Each failure a tampered certificate can reach, named exactly."""

    @pytest.mark.parametrize(
        "verdict, failures",
        [
            (SeparationVerdict("T1", True, _ORIGINS),
             ["T1: positive verdict without opens"]),
            (SeparationVerdict("T1", True, _ORIGINS, opens=(_chart(2), _chart(2))),
             ["T1: first open fails its containment pattern"]),
            (SeparationVerdict("T1", True, _ORIGINS, opens=(_chart(1), _chart(1))),
             ["T1: second open fails its containment pattern"]),
            # a ball around an origin holds both origins
            (SeparationVerdict("T1", True, _ORIGINS, opens=(Ball(Origin(1), 1), _chart(2))),
             ["T1: first open fails its containment pattern"]),
            (SeparationVerdict("T1", True, _ORIGINS, opens=(_chart(1), Ball(Origin(2), 1))),
             ["T1: second open fails its containment pattern"]),
            # each chart holds its own origin only, but both hold the small regular points
            (SeparationVerdict("T2", True, _ORIGINS, opens=(_chart(1), _chart(2))),
             ["T2: witness opens intersect"]),
            (SeparationVerdict("T2", False, _ORIGINS),
             ["T2: negative verdict without a rule"]),
            (SeparationVerdict("T2", False, _ORIGINS, rule=InseparabilityRule(1, 1)),
             ["T2: rule needs two distinct origins in 1..2"]),
            (SeparationVerdict("T2", False, _ORIGINS, rule=InseparabilityRule(1, 3)),
             ["T2: rule needs two distinct origins in 1..2"]),
            (SeparationVerdict("T2", False, _ORIGINS, rule=InseparabilityRule(0, 2)),
             ["T2: rule needs two distinct origins in 1..2"]),
            (SeparationVerdict("T2", False, _ORIGINS, rule=InseparabilityRule(2, 1)),
             ["T2: pair is not the rule's origins 2 and 1"]),
            (SeparationVerdict("T2", False, _ORIGINS, opens=(_chart(1), _chart(2)),
                               rule=InseparabilityRule(1, 2)),
             ["T2: negative verdict with opens"]),
            (SeparationVerdict("T1", True, _ORIGINS, opens=(_chart(1), _chart(2)),
                               rule=InseparabilityRule(1, 2)),
             ["T1: positive verdict with a rule"]),
        ],
        ids=["no-opens", "first-pattern", "second-pattern", "first-holds-both",
             "second-holds-both", "t2-opens-intersect", "no-rule",
             "equal-rule-indices", "rule-index-above-k", "rule-index-0", "pair-not-rule-pair",
             "negative-with-opens", "positive-with-rule"],
    )
    def test_separation(self, verdict, failures):
        assert _recheck_separation(verdict, 2) == failures

    @pytest.mark.parametrize("verdict, proved", [
        (SeparationVerdict("T2", False, _ORIGINS, rule=InseparabilityRule(1, 2)), FAILS),
        (SeparationVerdict("T2", True, _ORIGINS, opens=(_chart(1), _chart(2))), None),
        (SeparationVerdict("T1", False, _ORIGINS, rule=InseparabilityRule(1, 2)), None)],
        ids=["negative-t2", "positive-t2", "negative-t1"])
    def test_even_covering_rule(self, verdict, proved):
        rules = next(c[-1] for c in CLAIMS if c[0] == "even-covering")
        for cfg in (Q2, P2):
            assert rules[SeparationVerdict](verdict, cfg) == proved

    def test_hausdorff_failure_proves_four_rows(self, report):
        # the four rows, in both models, are the cells that cite the T2 failure
        citing = [(claim.claim_id, model) for claim in report.claims
                  for model, ref in claim.certificate_refs if ref == _HAUSDORFF_REF]
        assert citing == [(claim, m.value) for claim in _T2_ROWS for m in audit.MODELS]
        relabelled = dataclasses.replace(report.certificate(_HAUSDORFF_REF), axiom="T1")
        # relabelled T1, the record proves none of the eight cells
        assert recheck_report(_with_certificate(report, _HAUSDORFF_REF, relabelled)) == [
            _PROVES_NOTHING.format(f"{claim} ({model})", FAILS, _HAUSDORFF_REF)
            for claim in _T2_ROWS for model in ("quotient", "pseudometric")]

    def test_separation_accepts_the_produced_verdicts(self, report):
        assert _recheck_separation(report.certificate(_HAUSDORFF_REF), 2) == []
        for cfg in (Q2, P2):
            for verdict in separation_report(cfg):
                assert _recheck_separation(verdict, 2) == []

    @pytest.mark.parametrize(
        "tamper, failures",
        [(_identity_only, ["deck-group:any: expected 2 distinct elements of degree 2"]),
         (_without_deck_table, [f"certificate 1: ref {_ORIGINS_REF} "
                                "differs from the cited ref deck-group:any"]),
         (lambda doc: _identity_only(_subgroup_citing(doc, "pi1-probe")),
          [_SUBGROUP_ROW_DIFFERS, "deck-group:any: expected 2 distinct elements of degree 2"]),
         (lambda doc: _subgroup_citing(doc, "pi1-probe"), [_SUBGROUP_ROW_DIFFERS]),
         (_deck_table_of_k_3, ["deck-group:any: table of k=3 in a report of k=2"])],
        ids=["deck-order", "dangling-deck-ref", "both", "deck-ref-to-probe",
             "deck-ref-to-other-k"],
    )
    def test_subgroup_gap(self, report, tamper, failures):
        assert recheck_report(tamper(report)) == failures

    @pytest.mark.parametrize("k", (2, 3, 5))
    def test_subgroup_rule_reads_the_deck_order(self, k):
        rules = next(c[-1] for c in CLAIMS if c[0] == "subgroup-correspondence")
        cfg = SpaceConfig(k, TopologyModel.QUOTIENT)
        table = deck_group(k)
        assert rules[type(table)](table, cfg) == FAILS
        # a trivial deck group is the one cover the single subgroup offers
        trivial = dataclasses.replace(table, elements=table.elements[:1], table=((0,),))
        assert rules[type(table)](trivial, cfg) is None

    @pytest.mark.parametrize("k", [-1, 0, 1, 7, 120])
    def test_report_k_outside_the_audited_range(self, report, k):
        bad = dataclasses.replace(report, k=k)
        assert recheck_report(bad) == [f"k={k} is outside the audited range 2..6"]


class TestIndistinguishableOrigins:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_recheck_accepts_the_built_certificate(self, k):
        cert = run_audit(SpaceConfig(k)).certificate(_ORIGINS_REF)
        assert cert == IndistinguishableOrigins()
        assert _recheck_indistinguishable_origins(cert, k) == []

    def test_recheck_names_a_positive_distance(self, monkeypatch):
        # the trusted distance is the one fact the certificate rests on
        monkeypatch.setattr(audit, "pseudo_dist", lambda p, q: Fraction(p.index + q.index, 7))
        cert = IndistinguishableOrigins()
        assert _recheck_indistinguishable_origins(cert, 3) == [
            "origins 1 and 2 lie at distance 3/7", "origins 1 and 3 lie at distance 4/7",
            "origins 2 and 3 lie at distance 5/7"]


class TestSeparatedCharts:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_every_origin_pair_is_checked(self, monkeypatch, k):
        doc = run_audit(SpaceConfig(k))
        contains = audit.open_contains
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                # only chart i's answer for origin j is flipped
                monkeypatch.setattr(audit, "open_contains", lambda o, q, i=i, j=j: contains(
                    o, q) != (isinstance(o, OriginChart) and (o.index, q) == (i, Origin(j))))
                wrong = "holds" if i != j else "misses"
                assert recheck_report(doc) == [f"{_CHARTS_REF}: chart {i} {wrong} origin {j}"]


class TestNoRestatedValue:
    """Each record takes k from the report and its model from the cell that cites it;
    only the deck table, which the deck subcommand reads alone, keeps its own k, and a
    fact another record proves has no record of its own."""

    # field -> the kinds of certificate object that may carry it
    ONLY_IN = {"k": {"deck-group-table"}, "model": set()}
    # fields another field of the same record already gives
    NEVER = {("monodromy-obstruction", "path")}
    # kinds whose fact another record proves: even-covering, branched-cover and
    # etale-separated follow from the Hausdorff failure, and the homotopy-lifting rows
    # from the pi1 probe and the indistinguishable origins
    NO_KINDS = {"even-cover-failure", "pair-witness", "connected-preimage-record",
                "origin-join-path", "section-witness", "homotopy-lift-record",
                "homotopy-field", "no-lift", "non-unique-existence", "lifts-enumerated"}

    @pytest.mark.parametrize("k", range(2, 7))
    def test_report_fields(self, k):
        sites = set()

        def walk(node):
            if isinstance(node, dict):
                sites.update((node["kind"], key) for key in node)
                node = list(node.values())
            if isinstance(node, list):
                for value in node:
                    walk(value)

        walk(serialize.encode(run_audit(SpaceConfig(k)))["certificates"])
        for field, kinds in self.ONLY_IN.items():
            assert {kind for kind, key in sites if key == field} == kinds
        assert not sites & self.NEVER
        assert not {kind for kind, _ in sites} & self.NO_KINDS

    # certificate -> {claim id: (quotient answer, pseudometric answer)} for every reader
    # of its kind: a swapped certificate hands a cell's reader a record of another kind,
    # so a reader answers only in the model its lemma holds in
    @pytest.mark.parametrize("cert, answers", [
        (SeparatedCharts(Fraction(1)), {claim: (v, None) for claim, v in _CHART_CELLS}),
        (IndistinguishableOrigins(), {claim: (None, v) for claim, v in _ORIGIN_CELLS}),
        (run_audit(Q2).certificate("pi1-probe"), {
            "pi1-trivial": (FAILS, None), "contractible": (FAILS, None),
            "homotopy-lifting": (FAILS, None),
            "homotopy-lifting-origin-constancy": (FAILS, FAILS)})],
        ids=["charts", "origins", "probe"])
    def test_lemma_readers_answer_their_model_only(self, cert, answers):
        readers = {claim_id: rules[type(cert)] for claim_id, *_, rules in CLAIMS
                   if type(cert) in rules}
        assert set(readers) == set(answers)
        for claim_id, read in readers.items():
            assert (read(cert, Q2), read(cert, P2)) == answers[claim_id], claim_id

    def test_constancy_reader_reads_the_labels_in_the_pseudometric_model(self):
        read = next(rules for claim_id, *_, rules in CLAIMS
                    if claim_id == "homotopy-lifting-origin-constancy")[audit.LoopClassRecord]
        two = run_audit(Q2).certificate("pi1-probe")
        one = audit.LoopClassRecord(loop=probe_loop(1, 1), quotient_class=ReducedWord(()))
        assert [read(rec, cfg) for rec in (two, one) for cfg in (Q2, P2)] == [
            FAILS, FAILS, None, None]
        # in the quotient model the class decides, not the labels
        assert read(dataclasses.replace(two, quotient_class=ReducedWord(())), Q2) is None
        assert read(dataclasses.replace(one, quotient_class=two.quotient_class), P2) is None
