"""Malformed input exits 2 with one ``error:`` line on stderr, never a traceback."""

from __future__ import annotations

import json

import pytest

from nonhaus import serialize
from nonhaus.cli import main
from nonhaus.lifting import make_merging_field


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
            serialize.decode({"kind": "origin"})
        with pytest.raises(ValueError, match="Ball.center"):
            serialize.decode({"kind": "ball", "center": 5, "eps": "1/1"})


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
        "argv",
        [
            ["audit", "--eps", "1/0"],
            ["audit", "--x0", "1/0"],
            ["lift", "--x0", "1/0"],
            ["render", "--x0", "1/0"],
            ["homotopy", "--assign", "1/0=1,3/4=2"],
        ],
        ids=["audit-eps", "audit-x0", "lift-x0", "render-x0", "homotopy-assign"],
    )
    def test_cli_rationals(self, capsys, argv):
        rejected(capsys, *argv)


def test_plfield_extra_rows_rejected(capsys, tmp_path):
    path = tmp_path / "f.plfield"
    path.write_text(serialize.write_field(make_merging_field()) + "0/1 1/8\n")
    assert "value rows" in rejected(capsys, "homotopy", "--field", str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-6"])
def test_thick_tolerance_rejected(capsys, value):
    assert "tolerance" in rejected(capsys, "thick", "--grid-n", "8", f"--tolerance={value}")


def test_lift_count_over_limit_rejected(capsys, tmp_path):
    # 21 breakpoints of alternating sign: 20 zero times, 2^20 lifts at k = 2
    path = tmp_path / "p.plpath"
    path.write_text("plpath v1\n" + "".join(f"{i}/20 {(-1) ** i}/1\n" for i in range(21)))
    assert "limit of 4096" in rejected(capsys, "lift", "--path", str(path), "--k", "2")
