import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from nonhaus import cli, serialize
from nonhaus.cli import main
from nonhaus.audit import ReportDocument
from nonhaus.lifting import (
    HomotopyField,
    HomotopyLiftRecord,
    LiftedPath,
    bounce_path,
    make_merging_field,
    recheck_homotopy_record,
)
from nonhaus.space import MetricSummary
from nonhaus.symmetry import deck_group

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLift:
    def test_three_lifts_json(self, capsys):
        code, out, _ = run_cli(capsys, "lift", "--k", "3", "--x0", "1", "--json")
        assert code == 0
        lifts = serialize.loads(out, tuple[LiftedPath, ...])
        assert len(lifts) == 3

    def test_invalid_k_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "lift", "--k", "1")
        assert code == 2
        assert "origins" in err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["lift", "--nope"]) == 2

    def test_path_file(self, capsys, tmp_path):
        f = tmp_path / "p.plpath"
        f.write_text(serialize.write_pl_path(bounce_path(Fraction(1, 2))))
        code, out, _ = run_cli(capsys, "lift", "--k", "2", "--path", str(f))
        assert code == 0
        assert out.startswith("2 lifts")

    def test_missing_path_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "lift", "--path", str(tmp_path / "nope"))
        assert code == 2

    def test_dump_path_round_trips(self, capsys, tmp_path):
        dump = tmp_path / "bounce.plpath"
        code, _, _ = run_cli(capsys, "lift", "--k", "2", "--dump-path", str(dump))
        assert code == 0
        assert serialize.read_pl_path(dump.read_text()) == bounce_path(1)


class TestAudit:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--k", "2", "--model", "quotient", "--json")
        assert code == 0
        doc = serialize.loads(out, ReportDocument)
        assert doc.k == 2 and doc.model == "quotient"

    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--k", "2")
        assert code == 0
        assert "pi1-trivial" in out

    def test_check_round_trip(self, capsys, tmp_path):
        report_file = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "audit", "--k", "2", "--json", "--out", str(report_file)
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "audit", "--check", str(report_file))
        assert code == 0
        assert "report ok" in out

    def test_check_non_report_exits_2(self, capsys, tmp_path):
        f = tmp_path / "not-a-report.json"
        f.write_text('{"kind": "origin", "index": 1}')
        code, _, err = run_cli(capsys, "audit", "--check", str(f))
        assert code == 2
        assert err == 'error: expected ReportDocument, got {"kind": "origin", "index": 1}\n'

    def test_check_malformed_json_exits_2(self, capsys, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        code, _, _ = run_cli(capsys, "audit", "--check", str(f))
        assert code == 2

    def test_check_tampered_exits_3(self, capsys, tmp_path):
        report_file = tmp_path / "report.json"
        run_cli(capsys, "audit", "--k", "2", "--json", "--out", str(report_file))
        data = json.loads(report_file.read_text())
        for ref, cert in data["certificates"]:
            if ref == "pi1-probe":
                cert["quotient_class"]["letters"] = []
        report_file.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "audit", "--check", str(report_file))
        assert code == 3
        assert "re-check failed" in err

    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "audit", "--k", "3", "--json", "--out", str(a))
        run_cli(capsys, "audit", "--k", "3", "--json", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestHomotopy:
    def test_default_conflict(self, capsys):
        code, out, _ = run_cli(capsys, "homotopy", "--k", "2", "--model", "quotient")
        assert code == 0
        assert "NoLift" in out

    def test_consistent_assignment(self, capsys):
        code, out, _ = run_cli(
            capsys, "homotopy", "--k", "2", "--assign", "1/4=1,3/4=1"
        )
        assert code == 0
        assert "LiftsEnumerated" in out

    def test_constancy_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "homotopy", "--k", "2", "--model", "pseudometric", "--paper-constancy"
        )
        assert code == 0
        assert "NoLift" in out

    def test_field_file(self, capsys, tmp_path):
        f = tmp_path / "field.plfield"
        f.write_text(serialize.write_field(make_merging_field()))
        code, out, _ = run_cli(
            capsys, "homotopy", "--field", str(f), "--model", "pseudometric", "--json"
        )
        assert code == 0
        record = serialize.loads(out, HomotopyLiftRecord)
        assert record.model == "pseudometric"

    def test_dump_field_round_trips(self, capsys, tmp_path):
        dump = tmp_path / "merging.plfield"
        code, _, _ = run_cli(capsys, "homotopy", "--k", "2", "--dump-field", str(dump))
        assert code == 0
        assert serialize.read_field(dump.read_text()) == make_merging_field()

    def test_record_names_its_field_by_sha256(self, capsys, tmp_path):
        """A built field is named by the sha256 of its dump, a read one by the
        sha256 of the file's bytes, as sha256sum gives them; the record of a
        120x120 field is a few hundred bytes."""
        dump = tmp_path / "merging.plfield"
        code, out, _ = run_cli(capsys, "homotopy", "--dump-field", str(dump), "--json")
        assert code == 0
        built = json.loads(out)
        assert built["field_sha256"] == hashlib.sha256(dump.read_bytes()).hexdigest()
        # the same field in CRLF lines and other spellings: another digest, the same result
        crlf = tmp_path / "crlf.plfield"
        crlf.write_bytes(dump.read_bytes().replace(b"1/4", b"2/8").replace(b"\n", b"\r\n"))
        code, out, _ = run_cli(capsys, "homotopy", "--field", str(crlf), "--json")
        assert code == 0
        read = json.loads(out)
        # its record re-checks against the file's bytes, and not against the dump's
        record = serialize.loads(out, HomotopyLiftRecord)
        field = serialize.read_field_bytes(crlf.read_bytes())
        assert recheck_homotopy_record(record, field, 2, crlf.read_bytes()) == []
        assert recheck_homotopy_record(record, field, 2, dump.read_bytes()) != []
        assert read.pop("field_sha256") == hashlib.sha256(crlf.read_bytes()).hexdigest()
        assert built.pop("field_sha256") != hashlib.sha256(crlf.read_bytes()).hexdigest()
        assert read == built
        n = 120
        rows = [" ".join(serialize.frac_str(Fraction(2 * ((37 * a + 11 * b) % 29) - 29, 127 + a + b)
                                            if b else Fraction(1 + a % 5, 127)) for b in range(n))
                for a in range(n)]
        breaks = " ".join(serialize.frac_str(Fraction(i, n - 1)) for i in range(n))
        big = tmp_path / "f120.plfield"
        big.write_text("\n".join(["plfield v1", f"{n} {n}", breaks, breaks, *rows]) + "\n")
        out_file = tmp_path / "f120.json"
        code, _, _ = run_cli(capsys, "homotopy", "--field", str(big), "--model", "pseudometric",
                             "--assign", "", "--json", "--out", str(out_file))
        assert code == 0 and out_file.stat().st_size < 4096
        record = json.loads(out_file.read_text())
        assert record["field_sha256"] == hashlib.sha256(big.read_bytes()).hexdigest()
        assert record["result"] == {"kind": "non-unique-existence", "component_count": 1555}

    def test_free_components_list_every_assignment(self, capsys, tmp_path):
        # two interior wells and no bottom zero: each well takes either origin
        rows = [[1, 1, 1], [1, -1, 1], [1, 1, 1], [1, -1, 1], [1, 1, 1]]
        field = HomotopyField(
            s_breaks=tuple(Fraction(a, 4) for a in range(5)),
            t_breaks=(Fraction(0), Fraction(1, 2), Fraction(1)),
            values=tuple(tuple(map(Fraction, row)) for row in rows),
        )
        f = tmp_path / "wells.plfield"
        f.write_text(serialize.write_field(field))
        code, out, _ = run_cli(capsys, "homotopy", "--field", str(f), "--assign", "")
        assert code == 0
        assert out.splitlines()[1:] == [
            "outcome: LiftsEnumerated",
            "detail: assignments=0=1,1=1;0=1,1=2;0=2,1=1;0=2,1=2",
        ]

    def test_field_without_zero_set_prints_the_empty_assignment(self, capsys, tmp_path):
        # no zero set: one lift, under the one assignment with nothing to assign
        f = tmp_path / "ones.plfield"
        f.write_text("plfield v1\n2 2\n0/1 1/1\n0/1 1/1\n1/1 1/1\n1/1 1/1\n")
        code, out, _ = run_cli(capsys, "homotopy", "--field", str(f), "--assign", "")
        assert code == 0
        assert out.splitlines()[1:] == ["outcome: LiftsEnumerated", "detail: assignments=(empty)"]
        code, out, _ = run_cli(capsys, "homotopy", "--field", str(f), "--assign", "", "--json")
        assert json.loads(out)["result"]["assignments"] == [[]]

    def test_bad_assignment_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "homotopy", "--assign", "1/4=1")
        assert code == 2


class TestOtherCommands:
    def test_deck(self, capsys):
        code, out, _ = run_cli(capsys, "deck", "--k", "4")
        assert code == 0
        assert "order 24" in out

    def test_deck_table_with_a_wrong_cell_exits_3(self, capsys, monkeypatch, tmp_path):
        table = deck_group(3)
        rows = [list(row) for row in table.table]
        rows[2][4] = (rows[2][4] + 1) % len(rows)
        bad = dataclasses.replace(table, table=tuple(map(tuple, rows)))
        monkeypatch.setattr(cli, "deck_group", lambda k: bad)
        out_file = tmp_path / "deck.json"
        code, out, err = run_cli(capsys, "deck", "--k", "3", "--json", "--out", str(out_file))
        assert code == 3
        assert err == "certificate re-check failed: composition table wrong at (2, 4)\n"
        assert out == "" and not out_file.exists()

    def test_metric_json(self, capsys):
        code, out, _ = run_cli(capsys, "metric", "--k", "2", "--model", "pseudometric", "--json")
        assert code == 0
        summary = serialize.loads(out, MetricSummary)
        assert summary.model == "pseudometric"
        assert [v.holds for v in summary.separation] == [False, False, False]
        assert [d for _, _, d in summary.distances] == [0, Fraction(1, 2), 2]

    def test_render_file(self, capsys, tmp_path):
        out_file = tmp_path / "scene.svg"
        code, _, _ = run_cli(capsys, "render", "--k", "3", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("<svg")

    def test_render_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(capsys, "render", "--k", "3", "--lifts", "--out", str(a))
        run_cli(capsys, "render", "--k", "3", "--lifts", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_thick(self, capsys):
        code, out, _ = run_cli(capsys, "thick", "--grid-n", "16", "--embedding", "spiral")
        assert code == 0
        assert "coverage" in out

    def test_thick_json_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "thick", "--grid-n", "16", "--json")
        code, out2, _ = run_cli(capsys, "thick", "--grid-n", "16", "--json")
        assert out1 == out2

    def test_seed_env_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("NONHAUS_SEED", "12345")
        code, out, _ = run_cli(capsys, "deck", "--k", "2")
        assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--embedding", "spiral"],
        ["lift", "--paper-constancy"],
        ["homotopy", "--x0", "2"],
        ["deck", "--model", "quotient"],
        ["metric", "--x0", "2"],
        ["render", "--json"],
        ["thick", "--k", "3"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_flag_a_subcommand_does_not_read_is_rejected(argv):
    assert main(argv) == 2


class TestParserReuse:
    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        for _ in range(10):
            assert main(["deck", "--k", "2"]) == 0
        assert len(built) == 1

    def test_no_value_leaks_between_calls(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)

        def golden_run(name, *args):
            code, out, err = run_cli(capsys, *args)
            assert (code, err) == (0, "")
            assert out.encode() == (GOLDEN / name).read_bytes()

        golden_run("audit-k3-quotient.json", "audit", "--k", "3", "--json")
        code, _, err = run_cli(capsys, "lift", "--nope")
        assert code == 2 and "unrecognized arguments: --nope" in err
        code, reused_help, _ = run_cli(capsys, "lift", "--help")
        assert code == 0 and reused_help.startswith("usage: nonhaus lift")
        golden_run("homotopy-single-origin-k2-quotient.json",
                   "homotopy", "--assign", "1/4=1,3/4=1", "--json")
        golden_run("homotopy-default-k2-quotient.json", "homotopy", "--json")
        golden_run("lift-k2-quotient.json", "lift", "--json")
        # a freshly built parser prints the same help
        monkeypatch.setattr(cli, "_parser", None)
        assert run_cli(capsys, "lift", "--help") == (0, reused_help, "")


class TestOutFile:
    def test_out_file_equals_stdout_over_many_writes(self, capsys, tmp_path):
        # k = 2 on a path with 10 zero times: 1,024 lifts, far more than one write
        path = tmp_path / "p.plpath"
        xs = [1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1]
        path.write_text("plpath v1\n" + "".join(f"{i}/20 {x}/1\n" for i, x in enumerate(xs)))
        code, out, _ = run_cli(capsys, "lift", "--k", "2", "--path", str(path), "--json")
        assert code == 0 and len(out) > 10 * cli._WRITE_CHARS
        target = tmp_path / "lifts.json"
        code, _, _ = run_cli(capsys, "lift", "--k", "2", "--path", str(path), "--json",
                             "--out", str(target))
        assert code == 0 and target.read_bytes() == out.encode()

    def test_emit_writes_the_exact_text(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_WRITE_CHARS", 3)
        target = tmp_path / "t.txt"
        for text in ("", "ab", "abc", "abcd", "aé\r\nb→c\n" * 5):
            cli._emit(str(target), text)
            assert target.read_bytes() == text.encode("utf-8")
