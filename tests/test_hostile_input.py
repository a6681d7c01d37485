"""Malformed input exits 2 with one ``error:`` line on stderr, never a traceback."""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nonhaus import lifting, serialize, thickened
from nonhaus.cli import main
from nonhaus.embedding import EmbeddingSpec
from nonhaus.lifting import make_merging_field
from nonhaus.space import Ball, Origin


def rejected(capsys, *argv: str) -> str:
    """Run the CLI, require exit 2 and a single error line; return that line."""
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    lines = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(lines) == 1, err
    return lines[0]


@pytest.fixture
def report(tmp_path, capsys) -> dict:
    path = tmp_path / "report.json"
    assert main(["audit", "--k", "2", "--json", "--out", str(path)]) == 0
    capsys.readouterr()
    return json.loads(path.read_text())


def check_report(capsys, tmp_path, data: dict) -> str:
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    return rejected(capsys, "audit", "--check", str(path))


class TestTruncatedReports:
    def test_missing_field_names_class_and_field(self, capsys, tmp_path, report):
        del report["schema_version"]
        line = check_report(capsys, tmp_path, report)
        assert "ReportDocument" in line and "schema_version" in line

    def test_claims_not_a_list(self, capsys, tmp_path, report):
        report["claims"] = 5
        line = check_report(capsys, tmp_path, report)
        assert "ReportDocument.claims" in line

    def test_nested_field_of_wrong_shape(self, capsys, tmp_path, report):
        report["claims"][0]["verdicts"] = {"quotient": "holds"}
        line = check_report(capsys, tmp_path, report)
        assert "ClaimRecord.verdicts" in line

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert "nested too deeply" in rejected(capsys, "audit", "--check", str(path))

    def test_decoder_raises_value_error(self):
        with pytest.raises(ValueError, match="Origin: missing field 'index'"):
            serialize.decode({"kind": "origin"}, Origin)
        with pytest.raises(ValueError, match="Ball.center"):
            serialize.decode({"kind": "ball", "center": 5, "eps": "1/1"}, Ball)


class TestZeroDenominators:
    def test_parse_frac(self):
        with pytest.raises(ValueError, match="zero denominator"):
            serialize.parse_frac("1/0")

    def test_plpath_line(self, capsys, tmp_path):
        path = tmp_path / "p.plpath"
        path.write_text("plpath v1\n0/1 1/1\n1/0 0/1\n1/1 1/1\n")
        assert "zero denominator" in rejected(capsys, "lift", "--path", str(path))

    def test_plfield_line(self, capsys, tmp_path):
        text = serialize.write_field(make_merging_field()).replace("1/4", "1/0", 1)
        path = tmp_path / "f.plfield"
        path.write_text(text)
        assert "zero denominator" in rejected(capsys, "homotopy", "--field", str(path))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["audit", "--eps", "1/0"], "argument --eps: invalid parse_frac value: '1/0'"),
            (["audit", "--x0", "1/0"], "argument --x0: invalid parse_frac value: '1/0'"),
            (["lift", "--x0", "1/0"], "argument --x0: invalid parse_frac value: '1/0'"),
            (["render", "--x0", "1/0"], "unrecognized arguments: --x0 1/0"),
            (["homotopy", "--assign", "1/0=1,3/4=2"], "error: zero denominator in '1/0'"),
        ],
        ids=["audit-eps", "audit-x0", "lift-x0", "render-x0", "homotopy-assign"],
    )
    def test_cli_rationals(self, capsys, argv, message):
        assert message in rejected(capsys, *argv)


@pytest.mark.parametrize(
    "assign, message",
    [
        ("1/4=1,1/4=2,3/4=2", "time 1/4 is given more than once"),
        ("2/8=1,1/4=2,3/4=2", "time 1/4 is given more than once"),
        ("1/4=1,3/4=2,", "expected 'time=origin', got ''"),
        ("1/4=1,,3/4=2", "expected 'time=origin', got ''"),
        ("1/4=1=2,3/4=2", "expected 'time=origin', got '1/4=1=2'"),
        ("1/4=x,3/4=2", "origin 'x' is not an integer"),
        ("=1,3/4=2", "time '' is not a rational"),
        ("zero denominator=1", "time 'zero denominator' is not a rational"),
    ],
    ids=["repeated", "repeated-other-spelling", "trailing-comma", "empty-part", "two-signs",
         "origin-not-an-integer", "time-not-a-rational", "time-naming-zero-denominator"],
)
def test_assignment_rejected(capsys, assign, message):
    assert rejected(capsys, "homotopy", "--assign", assign) == f"error: --assign: {message}"


@pytest.mark.parametrize("assign", ["{}=1", "{}/3=1", "1/4={}"], ids=["time", "time-ratio", "origin"])
def test_assignment_past_the_digit_limit(capsys, assign):
    # int's own refusal, under the flag's name; the numeral is not echoed
    numeral = "1" * 4301
    with pytest.raises(ValueError) as limit:
        int(numeral)
    line = rejected(capsys, "homotopy", "--assign", assign.format(numeral))
    assert line == f"error: --assign: {limit.value}"


@pytest.mark.parametrize(
    "subcommand, text, message",
    [
        ("lift", "plpath v1\n0/1 1/1\n\n1/2 0/1 1/2\n1/1 1/1\n",
         "plpath line 4: expected two rationals 't x', got 3"),
        ("lift", "plpath v1\n0/1 1/1\n1/2\n1/1 1/1\n",
         "plpath line 3: expected two rationals 't x', got 1"),
        ("homotopy", "plfield v1\n2 2 1\n0 1\n0 1\n1 1\n1 1\n",
         "plfield line 2: expected the grid sizes 'ns nt', got 3"),
        ("homotopy", "plfield v1\n\n2\n0 1\n0 1\n1 1\n1 1\n",
         "plfield line 3: expected the grid sizes 'ns nt', got 1"),
    ],
    ids=["plpath-three", "plpath-one", "plfield-dims-three", "plfield-dims-one"],
)
def test_text_format_line_named(capsys, tmp_path, subcommand, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    flag = "--path" if subcommand == "lift" else "--field"
    assert rejected(capsys, subcommand, flag, str(path)) == f"error: {message}"


def _deck(doc: dict) -> dict:
    return dict(doc["certificates"])["deck-group:any"]


def _charts(doc: dict) -> dict:
    return dict(doc["certificates"])["separated-charts:quotient"]


class TestStrictScalars:
    """Each scalar slot takes only its own JSON type; nothing is coerced."""

    @pytest.mark.parametrize(
        "tamper, named",
        [
            (lambda d: _deck(d).update(homomorphism_ok="no"), "DeckGroupTable.homomorphism_ok"),
            (lambda d: _deck(d).update(k=2.9), "DeckGroupTable.k"),
            (lambda d: _deck(d).update(k="2"), "DeckGroupTable.k"),
            (lambda d: d.update(k="2"), "ReportDocument.k"),
            (lambda d: _deck(d)["table"][0].__setitem__(0, 0.7), "DeckGroupTable.table"),
            (lambda d: _deck(d)["table"][1].__setitem__(1, True), "DeckGroupTable.table"),
            (lambda d: _charts(d).update(eps=1), "SeparatedCharts.eps"),
            (lambda d: _charts(d).update(eps=1.0), "SeparatedCharts.eps"),
            (lambda d: _charts(d).update(eps=True), "SeparatedCharts.eps"),
        ],
        ids=["bool-as-string", "float-k", "string-k", "string-top-level-k", "float-cell",
             "bool-cell", "int-rational", "float-rational", "bool-rational"],
    )
    def test_tampered_report(self, capsys, tmp_path, report, tamper, named):
        tamper(report)
        assert named in check_report(capsys, tmp_path, report)

    @pytest.mark.parametrize("index", [True, 1.0, 2.5, "2", None])
    def test_int_slot(self, index):
        with pytest.raises(ValueError, match="Origin.index: expected int"):
            serialize.decode({"kind": "origin", "index": index}, Origin)

    @pytest.mark.parametrize("holds", [0, 1, "true", None])
    def test_bool_slot(self, holds):
        with pytest.raises(ValueError, match="VerdictRow.holds: expected bool"):
            serialize.decode({"kind": "verdict-row", "claim": "c", "holds": holds, "note": "n"},
                             thickened.VerdictRow)

    @pytest.mark.parametrize("claim", [5, True, None, ["c"]])
    def test_str_slot(self, claim):
        with pytest.raises(ValueError, match="VerdictRow.claim: expected str"):
            serialize.decode({"kind": "verdict-row", "claim": claim, "holds": True, "note": "n"},
                             thickened.VerdictRow)

    @pytest.mark.parametrize("r", [True, "1.5", None])
    def test_float_slot(self, r):
        with pytest.raises(ValueError, match="GridWitness.r: expected float"):
            serialize.decode({"kind": "grid-witness", "r": r, "theta": 0.5, "u": 0.0, "v": 0.0},
                             thickened.GridWitness)

    @pytest.mark.parametrize("value", [1, 0.5, True, None])
    def test_bare_fraction(self, value):
        # a rational slot takes only the "n/d" string, not the dropped object form
        with pytest.raises(ValueError, match='expected Fraction, got {"kind": "fraction"'):
            serialize.decode({"kind": "fraction", "value": value}, Fraction)

    def test_float_slot_takes_an_int(self):
        w = serialize.decode({"kind": "grid-witness", "r": 1, "theta": 0.5, "u": 0.0, "v": 0.0},
                             thickened.GridWitness)
        assert type(w.r) is float and w.r == 1.0


class TestCertificateSlot:
    """A report certificate is of a kind with a re-check, or the report is malformed."""

    @pytest.mark.parametrize(
        "value, message",
        [({"kind": "origin", "index": 1}, "expected "),
         ({"kind": "pl-path", "breakpoints": [["0/1", "1/1"], ["1/1", "1/1"]]}, "expected "),
         ({"kind": "fraction", "value": "1/2"}, "expected ")],
        ids=["origin", "pl-path", "bare-fraction"],
    )
    def test_kind_without_recheck_is_malformed(self, capsys, tmp_path, report, value, message):
        report["certificates"][0][1] = value
        line = check_report(capsys, tmp_path, report)
        assert line.startswith("error: ReportDocument.certificates: " + message)

    def test_other_certificate_kind_fails_recheck(self, capsys, tmp_path, report):
        certs = dict(report["certificates"])
        report["certificates"] = [[ref, certs["pi1-probe"] if ref == "deck-group:any" else cert]
                                  for ref, cert in report["certificates"]]
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(report))
        assert main(["audit", "--check", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("certificate re-check failed:") and "deck-group:any" in err


def test_plfield_extra_rows_rejected(capsys, tmp_path):
    path = tmp_path / "f.plfield"
    path.write_text(serialize.write_field(make_merging_field()) + "0/1 1/8\n")
    assert "value rows" in rejected(capsys, "homotopy", "--field", str(path))


_GOLDEN_K2 = str(Path(__file__).parent / "golden" / "audit-k2-quotient.json")


@pytest.mark.parametrize(
    "flags, named",
    [(["--k", "2"], "--k"), (["--k", "3"], "--k"), (["--model", "quotient"], "--model"),
     (["--x0", "1"], "--x0"), (["--eps", "1/3"], "--eps"), (["--json"], "--json"),
     (["--k", "2", "--json", "--eps", "1"], "--k, --eps, --json")],
    ids=["k-default", "k", "model-default", "x0-default", "eps", "json", "three"],
)
def test_check_rejects_build_flags(capsys, tmp_path, flags, named):
    # --check re-checks the stored report as it is; a build flag would be ignored
    out = tmp_path / "out.txt"
    line = rejected(capsys, "audit", "--check", _GOLDEN_K2, *flags, "--out", str(out))
    assert line == f"error: audit --check takes no {named}"
    assert not out.exists()


def test_check_takes_out(capsys, tmp_path):
    out = tmp_path / "out.txt"
    assert main(["audit", "--check", _GOLDEN_K2, "--out", str(out)]) == 0
    assert out.read_text() == "report ok: 18 claims, 6 certificates re-checked\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-6"])
def test_thick_tolerance_rejected(capsys, value):
    assert "tolerance" in rejected(capsys, "thick", "--grid-n", "8", f"--tolerance={value}")


@pytest.mark.parametrize("value, echo", [("-0.0", "0.0"), ("0", "0.0"), ("0.0", "0.0"),
                                         ("1e-6", "1e-06"), ("0.25", "0.25")])
def test_thick_tolerance_echo(capsys, tmp_path, value, echo):
    # -0.0 passes the >= 0 check; it is echoed as 0.0 and covers what 0.0 covers
    assert main(["thick", "--grid-n", "8", f"--tolerance={value}"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == f"thickened audit (embedding=main, grid=8, tolerance={echo})"
    out = tmp_path / "t.json"
    assert main(["thick", "--grid-n", "8", f"--tolerance={value}", "--json", "--out", str(out)]) == 0
    assert f'"tolerance": {echo},' in out.read_text()
    assert thickened.thick_audit(8, EmbeddingSpec.MAIN_CURVE, float(value)).covered == (
        thickened.thick_audit(8, EmbeddingSpec.MAIN_CURVE, float(echo)).covered)


def test_lift_count_over_limit_rejected(capsys, tmp_path):
    # 21 breakpoints of alternating sign: 20 zero times, 2^20 lifts at k = 2
    path = tmp_path / "p.plpath"
    path.write_text("plpath v1\n" + "".join(f"{i}/20 {(-1) ** i}/1\n" for i in range(21)))
    assert "limit of 4096" in rejected(capsys, "lift", "--path", str(path), "--k", "2")


def test_lift_count_at_limit_written(tmp_path):
    out = tmp_path / "lifts.json"
    assert main(["lift", "--k", "4096", "--json", "--out", str(out)]) == 0
    lifts = json.loads(out.read_text())
    assert [lift["values"][1] for lift in lifts] == [
        {"index": i, "kind": "origin"} for i in range(1, 4097)]


def test_lift_count_over_limit_rejected_before_any_lift(capsys, monkeypatch):
    def built(*args):
        raise AssertionError("a lift was built")

    monkeypatch.setattr(lifting.LiftedPath, "__init__", built)
    line = rejected(capsys, "lift", "--k", "4097")
    assert line == "error: 4097^1 lifts exceed the limit of 4096"


def test_lift_without_free_zero_times_builds_no_origin(capsys, tmp_path, monkeypatch):
    # k^0 = 1 lift passes the limit at any k, so k origins must not be built
    def origin(index):
        raise AssertionError(f"origin {index} was built")

    monkeypatch.setattr(lifting, "Origin", origin)
    path = tmp_path / "p.plpath"
    path.write_text("plpath v1\n0/1 1/1\n1/1 2/1\n")
    assert main(["lift", "--path", str(path), "--k", "1000000000"]) == 0
    assert capsys.readouterr().out == (
        "1 lifts (k=1000000000, model=quotient)\nlift 0: no zero times\n")


def test_homotopy_assignments_over_limit_rejected(capsys, tmp_path):
    # two interior wells: two zero loops that meet no boundary, so 100^2 assignments
    rows = ["1 1 1 1 1"] * 7
    rows[2] = rows[4] = "1 1 -1 1 1"
    path = tmp_path / "wells.plfield"
    path.write_text("\n".join(["plfield v1", "7 5", "0 1/6 1/3 1/2 2/3 5/6 1",
                               "0 1/4 1/2 3/4 1", *rows]) + "\n")
    line = rejected(capsys, "homotopy", "--field", str(path), "--assign", "", "--k", "100")
    assert line == "error: 100^2 assignments exceed the limit of 4096"


@pytest.mark.parametrize("grid_n", ["4097", "1000000000"])
def test_thick_grid_over_limit_rejected(capsys, grid_n):
    assert "limit of 4096" in rejected(capsys, "thick", "--grid-n", grid_n)


def test_thick_grid_at_limit_passes_validation(monkeypatch):
    class GridReached(Exception):
        pass

    def reached(*args):
        raise GridReached

    monkeypatch.setattr(thickened, "_main_column", reached)
    with pytest.raises(GridReached):
        thickened.thick_audit(thickened.MAX_GRID_N, EmbeddingSpec.MAIN_CURVE)


def plfield_2x2(rows: str) -> str:
    return "plfield v1\n2 2\n0 1\n0 1\n" + rows.replace(" / ", "\n") + "\n"


@pytest.mark.parametrize(
    "rows, triangle",
    [("0 1 / 0 0", "(0, 0), (1, 0), (1, 1)"), ("0 0 / 1 0", "(0, 0), (1, 1), (0, 1)")],
    ids=["lower", "upper"],
)
def test_plateau_triangle_named(capsys, tmp_path, rows, triangle):
    path = tmp_path / "f.plfield"
    path.write_text(plfield_2x2(rows))
    line = rejected(capsys, "homotopy", "--field", str(path))
    assert line == f"error: triangle {triangle} is identically zero"


@pytest.mark.parametrize(
    "rows, assign", [("1 0 / 1 0", ""), ("0 1 / -1 0", "0=1")], ids=["top-edge", "diagonal"]
)
def test_zero_edge_without_plateau_accepted(capsys, tmp_path, rows, assign):
    path = tmp_path / "f.plfield"
    path.write_text(plfield_2x2(rows))
    code = main(["homotopy", "--field", str(path), "--assign", assign])
    assert code == 0, capsys.readouterr().err


def test_homotopy_json_past_the_digit_limit(capsys, tmp_path):
    # an exponent past int's digit limit is refused where the field is read,
    # in the text report as in JSON, though neither prints the value
    path = tmp_path / "f.plfield"
    path.write_text(plfield_2x2("1e5000 1 / 1 -1"))
    for output in ([], ["--json"]):
        line = rejected(capsys, "homotopy", "--field", str(path), "--assign", "", *output)
        assert line == ("error: Exceeds the limit (4300 digits) for a decimal's exponent "
                        "or digits: '1e5000'")


_EXPONENT_LIMIT = "error: Exceeds the limit (4300 digits) for a decimal's exponent or digits: "


class TestShortInputsBoundedWork:
    """A decimal whose exponent or digits pass int's digit limit is refused
    before Fraction builds its power of ten, so a short token costs milliseconds,
    not the seconds it took to be accepted (or refused only when printed)."""

    @staticmethod
    def quick_refusal(capsys, *argv: str) -> str:
        start = time.perf_counter()
        line = rejected(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        return line

    def test_lift_x0(self, capsys):
        line = self.quick_refusal(capsys, "lift", "--x0", "1e10000000")
        assert "argument --x0: invalid parse_frac value: '1e10000000'" in line

    def test_plpath_value(self, capsys, tmp_path):
        path = tmp_path / "p.plpath"
        path.write_text("plpath v1\n0/1 1/1\n1/2 -1e-10000000\n1/1 1/1\n")
        line = self.quick_refusal(capsys, "lift", "--path", str(path))
        assert line == _EXPONENT_LIMIT + "'-1e-10000000'"

    def test_report_eps(self, capsys, tmp_path, report):
        _charts(report).update(eps="1e3000000")
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(report))
        line = self.quick_refusal(capsys, "audit", "--check", str(path))
        assert line == ("error: ReportDocument.certificates: SeparatedCharts.eps: "
                        + _EXPONENT_LIMIT[len("error: "):] + "'1e3000000'")

    @pytest.mark.parametrize("token", ["1e4301", "1E+4301", "-1e-4301", "1e4_301", "1e0000099999",
                                       "0." + "1" * 4300, "1" * 4301 + ".", "1" * 4301 + "e0",
                                       "1e" + "9" * 5000],
                             ids=["exponent", "signed-exponent", "negative-exponent", "underscore",
                                  "leading-zeros", "fraction-digits", "whole-digits",
                                  "digits-with-exponent", "long-exponent"])
    def test_refused(self, token):
        with pytest.raises(ValueError) as refused:
            serialize.parse_frac(token)
        shown = repr(token) if len(token) <= 40 else repr(token[:36]) + "..."
        assert "error: " + str(refused.value) == _EXPONENT_LIMIT + shown

    @pytest.mark.parametrize("token", ["1e4300", "-1e-4300", "1e0004300", "0." + "1" * 4299,
                                       "1" * 4300 + "e-4300", "1e4_300", "1e", "1e--5", "1e5/3"],
                             ids=["exponent", "negative-exponent", "leading-zeros",
                                  "fraction-digits", "digits-with-exponent", "underscore",
                                  "no-exponent", "two-signs", "ratio"])
    def test_at_the_limit_read_as_fraction_reads_it(self, token):
        try:
            want = Fraction(token)
        except ValueError as exc:
            want = str(exc)
        try:
            got = serialize.parse_frac(token)
        except ValueError as exc:
            got = str(exc)
        assert got == want

    @pytest.mark.parametrize("token", ["1e--99999", "1e_99999", "1e+-99999", "1e9__9999",
                                       "1e99999_", "--1e99999", "1 e99999"])
    def test_invalid_past_the_limit_refused_as_fraction_refuses_it(self, token):
        # the guard measures only what Fraction's grammar reads as a decimal
        with pytest.raises(ValueError) as refused:
            serialize.parse_frac(token)
        assert str(refused.value) == f"Invalid literal for Fraction: {token!r}"


@pytest.mark.parametrize("numeral", ["1" + "0" * 4300, "-" + "9" * 4301, "0" + "1" * 4301],
                         ids=["strict", "negative", "leading-zero"])
@pytest.mark.parametrize("spelling", ["{}/3", "{}"], ids=["ratio", "bare"])
def test_field_numeral_past_the_digit_limit(capsys, tmp_path, numeral, spelling):
    # whichever reader takes the line, the error is int's own
    with pytest.raises(ValueError) as limit:
        int(numeral)
    path = tmp_path / "f.plfield"
    path.write_text(plfield_2x2(spelling.format(numeral) + " 1/1 / 1/1 1/1"))
    line = rejected(capsys, "homotopy", "--field", str(path), "--assign", "")
    assert line == f"error: {limit.value}"


_SMALL_RATIONALS = st.sampled_from(["0", "0", "0/5", "1", "-1", "1/2", "-2/3", "3", "-3", "5/4"])
_BOTTOM_VALUES = st.sampled_from(["0", "1", "1/2", "3"])
_BAD_TOKENS = st.sampled_from(["1/0", "x", "", "1/2/3", "nan", "1e400", "--1", "0x1"])


@st.composite
def plfield_texts(draw) -> tuple[str, str]:
    """A plfield text, often malformed, and an --assign value for it."""
    ns, nt = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    s_breaks = ["0"] + [f"{i}/{ns - 1}" for i in range(1, ns - 1)] + ["1"]
    t_breaks = ["0"] + [f"{i}/{nt - 1}" for i in range(1, nt - 1)] + ["1"]
    if draw(st.integers(0, 3)) == 0:  # all zero, so plateaus unless a replaced entry breaks them
        rows = [["0"] * nt for _ in range(ns)]
    else:  # a bottom edge of no negative value has its zero times at breaks
        rows = [[draw(_BOTTOM_VALUES)] + [draw(_SMALL_RATIONALS) for _ in range(nt - 1)]
                for _ in range(ns)]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, ns - 1)), draw(st.integers(0, nt - 1))
        rows[a][b] = draw(st.one_of(_SMALL_RATIONALS, _BAD_TOKENS))
    lines = ["plfield v1", f"{ns} {nt}", " ".join(s_breaks), " ".join(t_breaks)]
    lines += [" ".join(row) for row in rows]
    fault = draw(st.sampled_from(["none"] * 5 + ["extra row", "short row", "long row",
                                              "missing row", "bad dims", "bad header"]))
    if fault == "extra row":
        lines.append(" ".join(rows[0]))
    elif fault == "short row":
        lines[4] = " ".join(rows[0][:-1])
    elif fault == "long row":
        lines[4] += " 1"
    elif fault == "missing row":
        lines.pop()
    elif fault == "bad dims":
        lines[1] = draw(st.sampled_from([f"{ns}", f"{ns} {nt} 1", f"{ns + 1} {nt}", "a b", "-1 2"]))
    elif fault == "bad header":
        lines[0] = "plfield v2"
    bottom_zeros = [s for s, row in zip(s_breaks, rows) if row[0] == "0"]
    assign = ",".join(f"{s}={draw(st.integers(1, 2))}" for s in bottom_zeros)
    return "\n".join(lines) + "\n", draw(st.sampled_from([assign, assign, "", "1/4=1,3/4=2"]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plfield_texts(), st.sampled_from(["quotient", "pseudometric"]), st.booleans())
def test_fuzzed_plfield_never_escapes(capsys, tmp_path, case, model, constancy):
    text, assign = case
    path = tmp_path / "f.plfield"
    path.write_text(text)
    argv = ["homotopy", "--field", str(path), "--model", model, "--assign", assign]
    code = main(argv + ["--paper-constancy"] * constancy)
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code == 2:
        assert "Traceback" not in err
        assert len([ln for ln in err.splitlines() if ln.startswith("error:")]) == 1, err


@pytest.mark.parametrize("argv", [["render"], ["audit", "--json"]], ids=["render", "audit-json"])
def test_out_into_missing_directory_rejected(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out"
    assert str(target) in rejected(capsys, *argv, "--out", str(target))
    assert not target.parent.exists()


def escapes_nothing(capsys, argv: list[str]) -> None:
    """Run the CLI: exit 0, 2 or 3, and an exit 2 writes exactly one error line."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 2:
        assert len([ln for ln in err.splitlines() if ln.startswith("error:")]) == 1, err


_PATH_VALUES = st.sampled_from(["0", "0", "0/1", "1", "-1", "1/2", "-2/3", "3/1", "-5/4", "7",
                                "123456789012345678901234567890/7", "-98765432109876543210/3",
                                "9" * 5000])


@st.composite
def plpath_texts(draw) -> str:
    """A plpath text, often malformed: its zeros may form plateaus."""
    m = draw(st.integers(2, 7))
    times = ["0"] + [f"{i}/{m - 1}" for i in range(1, m - 1)] + ["1"]
    rows = [[t, draw(_PATH_VALUES)] for t in times]
    fault = draw(st.sampled_from(["none"] * 5 + ["bad token", "zero denominator", "no header",
                                              "one value", "three values", "swapped times"]))
    row = rows[draw(st.integers(0, m - 1))]
    if fault == "bad token":
        row[draw(st.integers(0, 1))] = draw(_BAD_TOKENS)
    elif fault == "zero denominator":
        row[draw(st.integers(0, 1))] = "1/0"
    elif fault == "one value":
        row.pop()
    elif fault == "three values":
        row.append(draw(_PATH_VALUES))
    elif fault == "swapped times":
        rows[0][0], rows[-1][0] = rows[-1][0], rows[0][0]
    lines = ([] if fault == "no header" else ["plpath v1"]) + [" ".join(r) for r in rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plpath_texts(), st.integers(2, 3), st.sampled_from(["quotient", "pseudometric"]))
def test_fuzzed_plpath_never_escapes(capsys, tmp_path, text, k, model):
    path = tmp_path / "p.plpath"
    path.write_text(text)
    escapes_nothing(capsys, ["lift", "--path", str(path), "--k", str(k), "--model", model])


_REPORT_K2 = json.loads((Path(__file__).parent / "golden" / "audit-k2-quotient.json").read_text())


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


_LEAVES = list(_leaf_paths(_REPORT_K2))


def _edited(value, edit: str):
    """A leaf retyped, incremented or flipped."""
    if edit == "retype":
        return 0 if isinstance(value, str) else str(value)
    if isinstance(value, bool) or value is None:
        return not value
    if isinstance(value, (int, float)):
        return value + 1 if edit == "increment" else -value
    num, sep, den = value.partition("/")
    if sep and num.lstrip("-").isdigit():
        return f"{int(num) + 1}/{den}" if edit == "increment" else f"{-int(num)}/{den}"
    return value + "x" if edit == "increment" else value[::-1]


# the single-leaf edits; tools/sweep.py applies every one of them to every leaf
_EDITS = ("retype", "increment", "flip", "delete")


def _tampered_report(leaf: tuple, edit: str, report: dict = _REPORT_K2) -> dict:
    """A report, by default the k=2 golden, with one leaf edited, or deleted."""
    doc = json.loads(json.dumps(report))
    parent = doc
    for key in leaf[:-1]:
        parent = parent[key]
    if edit == "delete":
        del parent[leaf[-1]]
    else:
        parent[leaf[-1]] = _edited(parent[leaf[-1]], edit)
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_LEAVES), st.sampled_from(_EDITS))
def test_fuzzed_report_leaf_never_escapes(capsys, tmp_path, leaf, edit):
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(_tampered_report(leaf, edit)))
    escapes_nothing(capsys, ["audit", "--check", str(path)])


def _report_with(ref: str, leaf: tuple, value) -> str:
    """The k=2 golden report as JSON text, with one leaf of one certificate replaced."""
    doc = json.loads(json.dumps(_REPORT_K2))
    node = dict(doc["certificates"])[ref]
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    return json.dumps(doc)


# the negative T2 verdict carries no opens and the re-check refuses any; a hostile one
# is refused by the decoder first
_HAUSDORFF = "separation-hausdorff:any"


def _ball(index: int, eps: str) -> dict:
    return {"kind": "ball", "center": {"kind": "origin", "index": index}, "eps": eps}


def _chart(index: int, eps: str) -> dict:
    return {"kind": "origin-chart", "index": index, "eps": eps}


_PLATEAU_PATH = "plpath v1\n0/1 1/1\n1/4 0/1\n1/2 0/1\n1/1 1/1\n"
_CHECK = ["audit", "--check", "{file}"]
_FIELD = ["homotopy", "--field", "{file}"]


# The exact line each domain check a subcommand reaches sends to stderr; "{file}"
# in argv names a file holding the case's text.  The plateau-triangle and
# assignment-limit lines are pinned by their own tests above.
@pytest.mark.parametrize(
    "argv, text, line",
    [
        (["audit", "--k", "7"], None, "error: audit supports 2 <= k <= 6, got 7"),
        (["deck", "--k", "7"], None, "error: group table supported for 2 <= k <= 6, got 7"),
        (["lift", "--k", "1"], None, "error: need at least 2 origins, got k=1"),
        (["render", "--k", "1"], None, "error: need at least 2 branches, got k=1"),
        (["render", "--k", "7"], None, "error: at most 6 branches can be drawn, got k=7"),
        (["audit", "--eps", "0"], None, "error: chart radius must be positive, got 0"),
        (["lift", "--x0", "0"], None, "error: basepoint must be positive, got 0"),
        (["lift", "--k", "4097"], None, "error: 4097^1 lifts exceed the limit of 4096"),
        (["lift", "--path", "{file}"], _PLATEAU_PATH, "error: coordinate stays 0 on [1/4, 1/2]"),
        (["lift", "--path", "{file}", "--x0", "3"], _PLATEAU_PATH,
         "nonhaus lift: error: argument --x0: not allowed with argument --path"),
        (["homotopy", "--assign", "1/4=3,3/4=1"], None, "error: origin 3 not in 1..2"),
        (["homotopy", "--assign", "1/4=1"], None,
         "error: assignment domain [1/4] != zero times [1/4, 3/4]"),
        (["thick", "--grid-n", "7"], None, "error: grid must be at least 8x8, got 7"),
        (["thick", "--grid-n", "4097"], None, "error: grid 4097 exceeds the limit of 4096"),
        (_CHECK, _report_with("path-lifting:any", ("lifts", 0, "values", 1, "index"), 0),
         "error: origin index must be >= 1, got 0"),
        (_CHECK, _report_with("path-lifting:any", ("lifts", 0, "values", 0, "x"), "0/1"),
         "error: regular points have nonzero coordinate"),
        (_CHECK, _report_with("pi1-probe", ("loop", "labels", 0, 0), "1/2"),
         "error: labels [1/2, 3/4] do not match zero times [1/4, 3/4]; missing [1/4]"),
        (_CHECK, _report_with("pi1-probe", ("loop", "path", "breakpoints", 2, 1), "0/1"),
         "error: coordinate stays 0 on [1/4, 1/2]"),
        (_CHECK, _report_with("deck-group:any", ("elements", 0, "images", 0), 2),
         "error: (2, 2) is not a permutation of 1..2"),
        (_CHECK, _report_with(_HAUSDORFF, ("opens",), [_ball(1, "-1/2"), _ball(2, "1/1")]),
         "error: ball radius must be positive, got -1/2"),
        (_CHECK, _report_with(_HAUSDORFF, ("opens",), [_chart(1, "-1/1"), _chart(2, "1/1")]),
         "error: chart radius must be positive, got -1"),
        (["lift", "--path", "{file}"], "0/1 1/1\n1/1 1/1\n", "error: expected header 'plpath v1'"),
        (_FIELD, "2 2\n0/1 1/1\n0/1 1/1\n1/1 1/1\n1/1 1/1\n",
         "error: expected header 'plfield v1'"),
        (["lift", "--path", "{file}"], "plpath v1\n0/1 1/1\n",
         "error: a path needs at least two breakpoints"),
        (_FIELD, "plfield v1\n2 2\n0/1 1/1\n",
         "error: expected a dimension line and two break lines"),
        (_FIELD, "plfield v1\n2 2\n0/1 1/2 1/1\n0/1 1/1\n1/1 1/1\n1/1 1/1\n",
         "error: grid dimensions do not match the break lines"),
        (_FIELD, "plfield v1\n2 2\n0/1 1/2\n0/1 1/1\n1/1 1/1\n1/1 1/1\n",
         "error: grid breaks must span [0, 1]"),
        (_FIELD, "plfield v1\n4 2\n0/1 1/2 1/4 1/1\n0/1 1/1\n" + "1/1 1/1\n" * 4,
         "error: grid breaks must be strictly increasing"),
        (_CHECK, _report_with(_HAUSDORFF, ("opens",), [_chart(0, "1/1"), _chart(2, "1/1")]),
         "error: origin index must be >= 1, got 0"),
        (_CHECK, _report_with("pi1-probe", ("loop", "path", "breakpoints", 4, 1), "2/1"),
         "error: ReportDocument.certificates: LoopClassRecord.loop: "
         "loop must start and end at one nonzero coordinate"),
        (_CHECK, _report_with("pi1-probe", ("quotient_class", "letters"), [[1, 1], [1, -1]]),
         "error: ReportDocument.certificates: LoopClassRecord.quotient_class: "
         "adjacent cancelling pair at origin 1"),
    ],
    ids=["audit-k", "deck-k", "lift-k", "render-k", "render-k-max", "audit-eps", "lift-x0",
         "lift-limit", "lift-plateau", "lift-path-and-x0", "homotopy-origin", "homotopy-domain",
         "thick-coarse", "thick-fine", "check-origin-index", "check-regular-zero",
         "check-labels", "check-plateau", "check-permutation", "check-ball-radius",
         "check-chart-radius", "path-no-header", "field-no-header", "path-one-line",
         "field-two-lines", "field-break-count", "field-break-span", "field-break-order",
         "check-chart-index", "check-open-loop", "check-cancelling-pair"],
)
def test_domain_error_line(capsys, tmp_path, argv, text, line):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    assert rejected(capsys, *(str(path) if a == "{file}" else a for a in argv)) == line
