import dataclasses
import fractions
import json
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import get_args, get_type_hints

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import brute_force_lifts, double_dip_path

import nonhaus.audit as audit_mod
from nonhaus import serialize
from nonhaus.embedding import BasePoint, PlanePoint, embedding_checks
from nonhaus.lifting import (
    HomotopyField,
    HomotopyLiftRecord,
    PLPath,
    RationalGrid,
    attempt_homotopy_lift,
    bounce_path,
    enumerate_lifts,
    extract_zero_set,
    homotopy_lift_record,
    lift_product,
    make_merging_field,
    monodromy_verdict,
    verify_lift_continuity,
    zero_times,
)
from nonhaus.projection import even_cover_certificate
from nonhaus.space import (
    Ball,
    LabeledRep,
    MetricSummary,
    Origin,
    OriginChart,
    Regular,
    RegularInterval,
    SpaceConfig,
    TopologyModel,
    separable,
    separation_report,
)
from nonhaus.symmetry import (
    DeckElement,
    contract_loop,
    deck_group,
    deck_rigidity,
    probe_loop,
    reduce_word,
    crossing_word,
)
from nonhaus.thickened import ThickAuditReport, ThickPoint, thick_audit
from nonhaus.embedding import EmbeddingSpec

Q2 = SpaceConfig(2, TopologyModel.QUOTIENT)
P2 = SpaceConfig(2, TopologyModel.PSEUDOMETRIC)
Q3 = SpaceConfig(3, TopologyModel.QUOTIENT)


def round_trip(obj):
    text = serialize.dumps(obj)
    back = serialize.loads(text, type(obj))
    assert back == obj
    assert serialize.dumps(back) == text
    return back


class TestFractionStrings:
    def test_format(self):
        assert serialize.frac_str(Fraction(3, 16)) == "3/16"
        assert serialize.frac_str(Fraction(-2, 3)) == "-2/3"
        assert serialize.frac_str(Fraction(5)) == "5/1"

    def test_parse(self):
        assert serialize.parse_frac("3/16") == Fraction(3, 16)
        assert serialize.parse_frac("-7") == Fraction(-7)


# numerals of up to 4,300 digits, the limit on converting an int to a string
# (values are drawn small enough to print; the test scales them past it)
_NUMERALS = (st.integers(1, 4300) | st.integers(4201, 4300)).flatmap(
    lambda d: st.integers(10 ** (d - 1), 10 ** d - 1))
_SMALL = st.integers(-10**6, 10**6)


@example(0, 0, None)
@example(-3, 0, 16)
@example(10**4299, 1, None)
@example(1, -1, 10**4299)
@given(_SMALL | _NUMERALS | _NUMERALS.map(operator.neg), st.integers(-100, 100),
       st.none() | st.integers(1, 10**6) | _NUMERALS)
def test_frac_str_is_numerator_slash_denominator(num, shift, den):
    """On an int (den None) or num/den scaled by 10^shift: the text of the numerator
    and denominator properties, or the same ValueError past the limit."""
    x = num * 10 ** abs(shift) if den is None else Fraction(num, den) * Fraction(10) ** shift
    got = outcome(serialize.frac_str, x)
    assert got == outcome(lambda v: f"{v.numerator}/{v.denominator}", x)


class TestRoundTrips:
    def test_points_and_opens(self):
        for obj in (
            Origin(2),
            Regular(Fraction(-5, 7)),
            LabeledRep(Fraction(1, 3), 2),
            RegularInterval(Fraction(1, 2), Fraction(3, 2)),
            OriginChart(1, Fraction(1, 4)),
            Ball(Origin(2), Fraction(2)),
            BasePoint(Fraction(0)),
            PlanePoint(Fraction(1, 2), Fraction(1, 2)),
            ThickPoint(Origin(2), Fraction(1, 3)),
        ):
            round_trip(obj)

    def test_separation_verdicts(self):
        for cfg in (Q2, P2):
            for verdict in separation_report(cfg):
                round_trip(verdict)
            round_trip(separable(Origin(1), Origin(2), cfg))
            round_trip(separable(Regular(1), Regular(2), cfg))

    def test_projection_certificates(self):
        round_trip(even_cover_certificate(Fraction(1, 2), Q3))
        round_trip(even_cover_certificate(1, P2))

    def test_lifting_certificates(self):
        path = bounce_path(1)
        round_trip(path)
        lifts = enumerate_lifts(path, Regular(1), Q3)
        for lift in lifts:
            round_trip(lift)
        round_trip(verify_lift_continuity(lifts[0], Q3))
        round_trip(monodromy_verdict(1, P2))
        field = make_merging_field()
        round_trip(field)
        round_trip(extract_zero_set(field))
        assignment = {Fraction(1, 4): 1, Fraction(3, 4): 2}
        for cfg, constancy in ((Q2, False), (P2, False), (P2, True)):
            round_trip(homotopy_lift_record(field, assignment, cfg, constancy))
        round_trip(
            homotopy_lift_record(field, {Fraction(1, 4): 1, Fraction(3, 4): 1}, Q2, False)
        )

    def test_symmetry_certificates(self):
        round_trip(DeckElement((2, 3, 1)))
        round_trip(deck_group(3))
        round_trip(deck_rigidity(DeckElement((2, 1)), ((Fraction(1), Fraction(2)),)))
        loop = probe_loop(1, 2)
        round_trip(loop)
        round_trip(crossing_word(loop))
        round_trip(reduce_word(crossing_word(loop)))
        round_trip(contract_loop(loop, P2))
        round_trip(contract_loop(probe_loop(1, 1), Q2))

    def test_embedding_report(self):
        round_trip(embedding_checks(50, accumulation_n=20))

    def test_thick_report(self):
        round_trip(thick_audit(16, EmbeddingSpec.MAIN_CURVE))
        round_trip(thick_audit(16, EmbeddingSpec.SPIRAL))

    def test_report_document(self):
        doc = audit_mod.run_audit(Q2)
        back = round_trip(doc)
        assert back.certificate("deck-group:any") == doc.certificate("deck-group:any")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            serialize.decode({"kind": "no-such-kind"}, Origin)

    def test_unregistered_type_rejected(self):
        with pytest.raises(TypeError):
            serialize.encode(object())


class TestDeterminism:
    def test_report_bytes_stable(self):
        a = serialize.dumps(audit_mod.run_audit(Q2))
        b = serialize.dumps(audit_mod.run_audit(SpaceConfig(2, TopologyModel.QUOTIENT)))
        assert a == b

    def test_thick_bytes_stable(self):
        a = serialize.dumps(thick_audit(16, EmbeddingSpec.SPIRAL))
        b = serialize.dumps(thick_audit(16, EmbeddingSpec.SPIRAL))
        assert a == b


class TestSchemas:
    def test_report_validates(self):
        import json
        import pathlib

        import jsonschema

        schema = json.loads(
            (pathlib.Path(__file__).parent.parent / "schemas" / "report.schema.json").read_text()
        )
        doc = json.loads(serialize.dumps(audit_mod.run_audit(Q2)))
        jsonschema.validate(doc, schema)

    def test_fraction_pattern(self):
        import json
        import pathlib
        import re

        schema = json.loads(
            (pathlib.Path(__file__).parent.parent / "schemas" / "fraction.schema.json").read_text()
        )
        pattern = re.compile(schema["pattern"])
        for x in (Fraction(3, 16), Fraction(-2, 3), Fraction(0), Fraction(10**9)):
            assert pattern.match(serialize.frac_str(x))
        assert not pattern.match("0.5")
        assert not pattern.match("1/0")


class TestTextFormats:
    def test_path_round_trip(self):
        path = bounce_path(Fraction(3, 2))
        text = serialize.write_pl_path(path)
        assert text.startswith("plpath v1\n")
        assert serialize.read_pl_path(text) == path

    def test_field_round_trip(self):
        field = make_merging_field()
        text = serialize.write_field(field)
        lines = text.splitlines()
        assert lines[0] == "plfield v1"
        assert lines[1] == "5 2"
        assert serialize.read_field(text) == field

    def test_bad_headers(self):
        with pytest.raises(ValueError):
            serialize.read_pl_path("plpath v2\n0/1 1/1\n")
        with pytest.raises(ValueError):
            serialize.read_field("plfield v2\n")


def outcome(read, text):
    """What a reader returns, or the type name and text of what it raises."""
    try:
        return read(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def oracle_line(line: str) -> list[Fraction]:
    return [serialize.parse_frac(v) for v in line.split()]


def oracle_read_field(text: str) -> HomotopyField:
    """read_field with every value read token by token (dimensions and row count drawn right)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    s_breaks, t_breaks, *rows = (tuple(oracle_line(ln)) for ln in lines[2:])
    return HomotopyField(s_breaks=s_breaks, t_breaks=t_breaks, values=tuple(rows))


_CANONICAL_TOKENS = st.builds(
    "{}/{}".format,
    st.integers(-10**6, 10**6) | st.integers(-10**300, 10**300),
    st.integers(1, 10**6) | st.integers(1, 10**300),
)
_OTHER_TOKENS = st.sampled_from([
    "-0/5", "007/03", "2/4", "1/00", "+1/2", "1/-2", "1/0", "0.5", "1e3", "1_0/3", "7", "-7",
    "\u0663/\u0664", "\uff13/\uff14", "x", "1/2/3", "9" * 4400 + "/7", "7/" + "9" * 4400,
])
_SEPARATORS = st.sampled_from([" ", " ", " ", "\t", "  "])


@st.composite
def value_lines(draw, count=None) -> str:
    """A line of rationals: mostly canonical tokens, some other spellings and separators."""
    tokens = draw(st.lists(_CANONICAL_TOKENS | _OTHER_TOKENS, min_size=count or 1,
                           max_size=count or 6))
    if draw(st.booleans()):
        return " ".join(tokens)
    return "".join(tok + draw(_SEPARATORS) for tok in tokens).rstrip(" ")


def oracle_ratios(values: list[Fraction]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(v.numerator for v in values), tuple(v.denominator for v in values)


@given(value_lines())
def test_line_parser_matches_parse_frac(line):
    got = outcome(serialize._ratios, line)
    want = outcome(oracle_line, line)
    if type(want) is not list:
        assert got == want
        return
    nums, dens, kept = got
    assert (nums, dens) == oracle_ratios(want)
    assert all(type(v) is int for v in nums + dens)
    # a line is kept exactly when it already is the canonical text of its values
    assert kept == (line if line == " ".join(map(serialize.frac_str, want)) else None)


def _long_numeral(digits: int, lead: int, fill: int) -> str:
    return str(lead) + str(fill) * (digits - 1)


# around the 4,300-digit limit on int(str): numerators and denominators, signed
_LONG_TOKENS = st.builds(
    lambda sign, digits, lead, fill, other, long_den: (
        f"{other}/{sign}{_long_numeral(digits, lead, fill)}" if long_den
        else f"{sign}{_long_numeral(digits, lead, fill)}/{other}"),
    st.sampled_from(["", "-", "+"]), st.integers(4299, 4302), st.integers(1, 9),
    st.integers(0, 9), st.integers(1, 99), st.booleans())


def stdlib_fraction(s: str):
    """fractions.Fraction(s), with a zero denominator named as parse_frac documents it."""
    try:
        return fractions.Fraction(s)
    except ZeroDivisionError:
        return "ValueError", f"zero denominator in {s!r}"
    except Exception as exc:
        return type(exc).__name__, str(exc)


@given(_CANONICAL_TOKENS | _OTHER_TOKENS | _LONG_TOKENS | st.sampled_from([
    "0/1", "-0/5", "007/3", "+1/2", "1/0", "-1/0", " 1/2", "1/2 ", "1_0/3", "0.5", "1e3", "-.5",
    "\uff11/\uff12", "\u0661/2", "0/0", "", "/", "1/", "-", "1 /2"]))
@example("-" + "9" * 4301 + "/3")
@example("3/" + "9" * 4301)
def test_parse_frac_matches_stdlib_fraction(token):
    """The same value as fractions.Fraction, or the same exception type and message."""
    got = outcome(serialize.parse_frac, token)
    want = stdlib_fraction(token)
    assert got == want
    assert type(got) is type(want)


# spellings of one value: canonical, reducible, zero in three forms, leading
# zeros, 4,300-digit numerators, and tokens that only parse_frac reads
_ROW_TOKENS = st.sampled_from([
    "0/1", "-0/1", "-0/5", "2/4", "007/03", "10/5", "1/3", "-5/7", "9" * 4300 + "/7",
    "-" + "9" * 4300 + "/1", "0.5", "3",
])


@given(st.integers(1, 3).flatmap(lambda half: st.lists(
    st.lists(_ROW_TOKENS, min_size=half, max_size=half), min_size=2, max_size=3)))
@example([["0/1", "-0/1", "-0/5", "2/4"], ["007/03", "10/5", "9" * 4300 + "/7", "0.5"],
          ["1/3", "-5/7", "-" + "9" * 4300 + "/1", "3"]])
def test_kept_rows_print_as_formatted_ints(tokens):
    """write_field prints each row as its ints formatted afresh with "%d/%d",
    whether the row's line was kept as read or its text was built."""
    ns, nt = len(tokens), 2 * len(tokens[0])
    # every other column is -1/2, so no triangle has three zero vertices
    rows = [" ".join(tok + " -1/2" for tok in row) for row in tokens]
    head = ["plfield v1", f"{ns} {nt}",
            " ".join(serialize.frac_str(Fraction(a, ns - 1)) for a in range(ns)),
            " ".join(serialize.frac_str(Fraction(b, nt - 1)) for b in range(nt))]
    field = serialize.read_field("\n".join(head + rows) + "\n")
    grid = field.values
    fresh = [" ".join(map("%d/%d".__mod__, zip(nums, dens))) for nums, dens in zip(grid.nums, grid.dens)]
    assert grid.lines == tuple(fresh)
    # the ints are the tokens' values in lowest terms
    assert fresh == [" ".join(map(serialize.frac_str, map(serialize.parse_frac, ln.split())))
                     for ln in rows]
    assert serialize.write_field(field) == "\n".join(head + fresh) + "\n"


@st.composite
def plfield_texts(draw) -> str:
    ns, nt = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    zero = st.sampled_from(["0", "0/1", "-0/5", "0/7", "0.0", "00/3"])
    one = st.sampled_from(["1", "1/1", "007/007", "2/2", "1.0", "+1/1"])
    inner = st.sampled_from(["1/2", "1/3", "2/3", "0.5"])

    def breaks(n):
        return " ".join([draw(zero)] + [draw(inner) for _ in range(n - 2)] + [draw(one)])

    lines = ["plfield v1", f"{ns} {nt}", breaks(ns), breaks(nt)]
    lines += [draw(value_lines(nt)) for _ in range(ns)]
    return "\n".join(lines) + "\n"


@given(plfield_texts())
@example("plfield v1\n2 2\n0 1\n0 1\n-0/5 " + "9" * 400 + "/3\n2/4 -007/0021\n")
def test_read_field_matches_token_oracle(text):
    got = outcome(serialize.read_field, text)
    assert got == outcome(oracle_read_field, text)
    if type(got) is HomotopyField:  # the grid's ints are the token oracle's, row by row
        rows = [oracle_ratios(oracle_line(ln)) for ln in text.splitlines()[4:]]
        grid = got.values
        assert grid.nums == tuple(nums for nums, _ in rows)
        assert grid.dens == tuple(dens for _, dens in rows)
        assert grid.signs == tuple("".join("-" if n < 0 else "+" if n else "0" for n in nums)
                                   for nums, _ in rows)
        assert all(type(v) is int for row in grid.nums + grid.dens for v in row)


def _decimal(v: Fraction) -> str:
    """v as a decimal numeral; v's denominator divides 10**6."""
    scaled = abs(v.numerator) * (10**6 // v.denominator)
    return ("-" if v < 0 else "") + f"{scaled // 10**6}.{scaled % 10**6:06d}"


# one value's spellings: the strict forms a lazy row keeps as text, and others
# that send the whole line to _ratios
_SPELLINGS = {
    "strict": serialize.frac_str,
    "unreduced": lambda v: "%d/%d" % (3 * v.numerator, 3 * v.denominator),
    "leading-zero": lambda v: ("-" if v < 0 else "") + "0%d/0%d" % (abs(v.numerator), v.denominator),
    "signed-zero": lambda v: "-0/5" if v == 0 else serialize.frac_str(v),
    "bare-or-decimal": lambda v: str(v.numerator) if v.denominator == 1 else _decimal(v),
}


@st.composite
def spelled_fields(draw) -> str:
    """A small plfield text: each row in one spelling of _SPELLINGS, or each
    value in its own; values over 1, 2, 4, 5 and 8, so each has a decimal."""
    ns, nt = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    values = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 4, 5, 8]))
    names = st.sampled_from(sorted(_SPELLINGS))
    lines = ["plfield v1", f"{ns} {nt}",
             " ".join(serialize.frac_str(Fraction(a, ns - 1)) for a in range(ns)),
             " ".join(serialize.frac_str(Fraction(b, nt - 1)) for b in range(nt))]
    for _ in range(ns):
        row = draw(st.lists(values, min_size=nt, max_size=nt))
        row_spelling = draw(st.one_of(names, st.just("mixed")))
        lines.append(" ".join(_SPELLINGS[draw(names) if row_spelling == "mixed" else row_spelling](v)
                              for v in row))
    return "\n".join(lines) + "\n"


def eager_read_field(text: str) -> HomotopyField:
    """read_field with every row's ints built now, by _ratios."""
    lazy = serialize.read_field(text)
    rows = tuple(serialize._ratios(ln) for ln in text.splitlines()[4:])
    return HomotopyField(lazy.s_breaks, lazy.t_breaks, RationalGrid(rows))


def _lift_outcomes(field: HomotopyField, k: int, origins: list[int]) -> list:
    try:
        zeros = zero_times(field.bottom_path())
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    assignment = dict(zip(zeros, origins))
    return [outcome(lambda cfg: attempt_homotopy_lift(field, assignment, cfg, constancy),
                    SpaceConfig(k, model))
            for model in TopologyModel for constancy in (False, True)]


@settings(max_examples=300)
@given(spelled_fields(), st.integers(2, 3), st.lists(st.integers(1, 3), min_size=5, max_size=5))
@example("plfield v1\n2 3\n0/1 1/1\n0/1 1/2 1/1\n2/4 -0/5 3/1\n-1/3 0/7 2/4\n", 2, [1, 2, 1, 2, 1])
def test_lazy_rows_read_as_eager_rows(text, k, origins):
    """A field whose strict rows are kept as text reads, row by row, as the
    field whose every row is parsed by _ratios: the same signs and sign bits,
    edge paths, lifting outcomes in both models with and without the
    constancy rule, values at the grid points, dump, equality and hash.  The
    signs, edges and outcomes parse no text row in full."""
    try:
        eager = eager_read_field(text)
    except Exception as exc:
        assert outcome(serialize.read_field, text) == (type(exc).__name__, str(exc))
        return
    lazy = serialize.read_field(text)
    grid, want = lazy.values, eager.values
    assert (grid.signs, grid.negs, grid.zeros) == (want.signs, want.negs, want.zeros)
    assert lazy.bottom_path() == eager.bottom_path()
    assert lazy.top_path() == eager.top_path()
    assert _lift_outcomes(lazy, k, origins) == _lift_outcomes(eager, k, origins)
    assert grid._ints is None  # nothing above read a whole text row
    for s in lazy.s_breaks:
        for t in lazy.t_breaks:
            assert lazy.value_at(s, t) == eager.value_at(s, t)
    assert serialize.write_field(lazy) == serialize.write_field(eager)
    assert lazy == eager and hash(lazy) == hash(eager)


# a child interpreter that imports this checkout's package
_SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(serialize.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}

# Every kind reachable by type hints from the three output roots, pinned: adding,
# dropping or renaming one changes the wire format that independent checkers
# read.  Every JSON output of the CLI is made of these kinds.
KINDS = (
    "ball", "claim-record", "continuity-probe",
    "deck-element", "deck-group-table", "grid-witness",
    "homotopy-lift-record", "indistinguishable-origins",
    "inseparability-rule", "labeled-loop", "lifted-path", "lifts-enumerated",
    "loop-class-record", "metric-summary", "monodromy-obstruction",
    "no-lift", "non-unique-existence", "origin", "origin-chart",
    "pl-path", "reduced-word", "regular", "regular-interval",
    "report-document", "separated-charts", "separation-verdict",
    "thick-audit-report", "verdict-row",
)


def _hinted_classes(hint, found: set) -> None:
    """Collect every dataclass that hint names, directly or through field hints."""
    if dataclasses.is_dataclass(hint):
        if hint in found:
            return
        found.add(hint)
        for field_hint in get_type_hints(hint).values():
            _hinted_classes(field_hint, found)
    for arg in get_args(hint):
        _hinted_classes(arg, found)


def _instances(obj, found: dict) -> None:
    """Collect the first instance of every dataclass reachable from obj."""
    if dataclasses.is_dataclass(obj):
        found.setdefault(type(obj), obj)
        for f in dataclasses.fields(obj):
            _instances(getattr(obj, f.name), found)
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            _instances(v, found)


def _roots() -> tuple:
    """Values that between them reach an instance of every pinned kind, and of more."""
    field = make_merging_field()
    loop = probe_loop(1, 2)
    lifts = enumerate_lifts(bounce_path(1), Regular(1), Q3)
    return (
        audit_mod.run_audit(Q2),
        thick_audit(16, EmbeddingSpec.MAIN_CURVE),
        embedding_checks(50, accumulation_n=20),
        # the homotopy subcommand's records, one per outcome: no report carries them
        *(homotopy_lift_record(field, {Fraction(1, 4): 1, Fraction(3, 4): i}, cfg, False)
          for i, cfg in ((1, Q2), (2, Q2), (2, P2))),
        extract_zero_set(field),
        verify_lift_continuity(lifts[0], Q3),
        deck_rigidity(DeckElement((2, 1)), ((Fraction(1), Fraction(2)),)),
        MetricSummary("quotient", tuple(separation_report(Q3)),
                      ((Origin(1), Regular(Fraction(-1, 2)), Fraction(1, 2)),)),
        crossing_word(loop),
        LabeledRep(Fraction(1, 3), 2),
        RegularInterval(Fraction(1, 2), Fraction(3, 2)),
        Ball(Origin(1), Fraction(1, 2)),
        ThickPoint(Origin(2), Fraction(1, 3)),
        PlanePoint(Fraction(1, 2), Fraction(1, 2)),
        BasePoint(Fraction(0)),
    )


class TestKindRegistry:
    def test_reachable_kinds_pinned(self):
        found: set = set()
        _hinted_classes(audit_mod.ReportDocument, found)
        _hinted_classes(ThickAuditReport, found)
        _hinted_classes(MetricSummary, found)
        _hinted_classes(HomotopyLiftRecord, found)
        assert len(KINDS) == 28
        assert tuple(sorted(serialize._kind(cls) for cls in found)) == KINDS

    def test_golden_outputs_hold_only_pinned_kinds(self):
        def kinds(node):
            if isinstance(node, dict):
                yield node.get("kind")
            if isinstance(node, (dict, list)):
                for value in node.values() if isinstance(node, dict) else node:
                    yield from kinds(value)

        golden = Path(__file__).parent / "golden"
        seen = {k for p in golden.glob("*.json") for k in kinds(json.loads(p.read_text()))}
        assert seen <= set(KINDS)

    def test_metric_goldens_read_back(self):
        golden = sorted((Path(__file__).parent / "golden").glob("metric-*.json"))
        assert len(golden) == 6
        for path in golden:
            summary = serialize.loads(path.read_text(), MetricSummary)
            assert serialize.dumps(summary) == path.read_text()

    def test_one_instance_of_every_kind_round_trips(self):
        found: dict = {}
        _instances(_roots(), found)
        assert set(KINDS) <= {serialize._kind(cls) for cls in found}
        for obj in found.values():
            assert serialize.decode(serialize.encode(obj), type(obj)) == obj

    def test_serialize_alone_decodes_every_report(self):
        # a fresh interpreter: decoding must not depend on what else was imported
        script = (
            "import pathlib, sys\n"
            "import nonhaus.serialize as s\n"
            "from nonhaus.audit import ReportDocument\n"
            "for p in sorted(pathlib.Path(sys.argv[1]).glob('audit-*.json')):\n"
            "    assert type(s.loads(p.read_text(), ReportDocument)) is ReportDocument, p\n"
        )
        golden = Path(__file__).parent / "golden"
        assert len(list(golden.glob("audit-*.json"))) == 6
        subprocess.run([sys.executable, "-c", script, str(golden)], check=True, env=_SRC_ENV)

    def test_serialize_imports_no_report_module(self):
        script = ("import sys, nonhaus.serialize\n"
                  "assert not {'nonhaus.audit', 'nonhaus.symmetry', 'nonhaus.thickened'}"
                  " & set(sys.modules), sorted(sys.modules)")
        subprocess.run([sys.executable, "-c", script], check=True, env=_SRC_ENV)

    def test_audit_does_not_import_serialize(self):
        script = "import sys, nonhaus.audit; sys.exit('nonhaus.serialize' in sys.modules)"
        subprocess.run([sys.executable, "-c", script], check=True, env=_SRC_ENV)

    def test_kind_outside_the_hint_rejected_unread(self):
        # a malformed object of a kind the slot does not take is named by the slot
        with pytest.raises(ValueError, match="^expected Origin or Regular, got"):
            serialize.decode({"kind": "ball"}, Origin | Regular)


def reference_text(obj) -> str:
    return json.dumps(serialize.encode(obj), sort_keys=True, indent=2) + "\n"


def _shared_base_lifts():
    """256 lifts of one path with 8 touches, every lift holding the same base."""
    pts = tuple((Fraction(i, 16), Fraction(i % 2 == 0)) for i in range(17))
    lifts = enumerate_lifts(PLPath(pts), Regular(1), Q2)
    assert len(lifts) == 256 and all(lift.base is lifts[0].base for lift in lifts)
    return lifts


_STRINGS = st.text(max_size=12) | st.sampled_from(
    ['say "hi"', "back\\slash", "\x00\x07\n\t\x1f", "ünïcødé", "\u2028", "\U0001f600"]
)
_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _STRINGS,
    lambda inner: st.lists(inner, max_size=6),
    max_leaves=40,
)


@st.composite
def _lift_cases(draw):
    """(path, start, cfg) with k in 2..4 and at most 256 lifts, in either model.

    The path has touches, crossings at a breakpoint and crossings strictly
    between two breakpoints in drawn order; it may start at 0, with a drawn
    start origin pinning that zero time, and may end at 0.
    """
    k = draw(st.integers(2, 4))
    cfg = SpaceConfig(k, draw(st.sampled_from(list(TopologyModel))))
    free = draw(st.integers(0, max(m for m in range(9) if k**m <= 256)))
    zero_end = free > 0 and draw(st.booleans())
    events = draw(st.lists(st.sampled_from(["touch", "cross-at", "cross-between"]),
                           min_size=free - zero_end, max_size=free - zero_end))
    magnitudes = st.builds(Fraction, st.integers(1, 12), st.integers(1, 7))
    sign = draw(st.sampled_from([1, -1]))
    xs = [Fraction(0)] if draw(st.booleans()) else []
    xs.append(sign * draw(magnitudes))
    for event in events:
        if event != "cross-between":
            xs.append(Fraction(0))
        if event != "touch":
            sign = -sign
        xs.append(sign * draw(magnitudes))
    xs.append(sign * draw(magnitudes))
    xs += [Fraction(0)] * zero_end
    path = PLPath(tuple((Fraction(i, len(xs) - 1), x) for i, x in enumerate(xs)))
    start = Origin(draw(st.integers(1, k))) if xs[0] == 0 else Regular(xs[0])
    return path, start, cfg


class TestWriter:
    """dumps writes exactly the text of json.dumps(encode(x), sort_keys=True, indent=2)."""

    def test_every_root(self):
        for root in _roots():
            assert serialize.dumps(root) == reference_text(root)

    def test_lifts_sharing_one_base(self):
        lifts = _shared_base_lifts()
        assert serialize.dumps(lifts) == reference_text(lifts)

    def test_thick_reports_with_floats(self):
        for spec in EmbeddingSpec:
            report = thick_audit(16, spec)
            assert serialize.dumps(report) == reference_text(report)

    @given(_JSON_TREES)
    def test_json_like_trees(self, tree):
        assert serialize.dumps(tree) == reference_text(tree)

    def test_no_text_kept_between_calls(self):
        lifts = _shared_base_lifts()
        first = serialize.dumps(lifts)
        # the same objects again, at other depths and in other company
        serialize.dumps([lifts, [lifts[0]]])
        assert serialize.dumps(lifts) == first == reference_text(lifts)

    @settings(deadline=None)  # up to 256 lifts verified by the oracle in one example
    @given(st.data())
    def test_lift_products(self, data):
        path, start, cfg = data.draw(_lift_cases())
        product = lift_product(path, start, cfg)
        lifts = list(product)
        assert lifts == brute_force_lifts(path, start, cfg)
        assert product.count() == len(lifts)
        assert serialize.encode(product) == serialize.encode(lifts)
        assert serialize.dumps(product) == reference_text(lifts)

    @given(st.integers(2, 4), st.lists(st.sampled_from(["kept", "reduced", "tokens"]),
                                       min_size=5, max_size=5), st.sampled_from(list(TopologyModel)))
    def test_homotopy_records_of_read_fields(self, nt, spellings, model):
        """A record is written as json.dumps writes its encoding whether its field
        was built in code or read from text, each row's line kept as read,
        reduced by a gcd or read token by token."""
        merging = make_merging_field()
        t_breaks = tuple(Fraction(b, nt - 1) for b in range(nt))
        bottom = [merging.values[a][0] for a in range(len(merging.s_breaks))]
        built = HomotopyField(merging.s_breaks, t_breaks,
                              tuple(tuple(v + t / 8 for t in t_breaks) for v in bottom))
        spell = {"kept": serialize.frac_str,
                 "reduced": lambda v: "%d/%d" % (3 * v.numerator, 3 * v.denominator),
                 "tokens": lambda v: "%d/0%d" % (v.numerator, v.denominator)}
        rows = [" ".join(map(spell[how], built.values[a])) for a, how in enumerate(spellings)]
        read = serialize.read_field("\n".join(serialize.write_field(built).splitlines()[:4] + rows) + "\n")
        assert read == built
        assignment = {Fraction(1, 4): 1, Fraction(3, 4): 2}
        texts = set()
        for field in (built, read):
            record = homotopy_lift_record(field, assignment, SpaceConfig(2, model), False)
            assert serialize.dumps(record) == reference_text(record)
            texts.add(serialize.dumps(record))
        assert len(texts) == 1

    @pytest.mark.parametrize("rows", [
        [[-1, 0, 1], [0, -5], [-720, 719, 0]],
        [[True, 0, 1], [1, True], [False], [0, 1.0, 2], [1, None, "1"]],
        [[3, 4, 5], [0, 1, 2, 3, 4, 5, 6, 7], [7, 6], [10**30, 2], [8]],
        [[0], [1], [-1], [5], [True]],
    ], ids=["negatives", "bools-and-mixed", "past-the-row", "one-element"])
    def test_int_rows(self, rows):
        """Int rows are looked up while in 0..len - 1; every other row is formatted."""
        for root in (rows, rows[::-1], [rows, rows[0]]):
            assert serialize.dumps(root) == reference_text(root)

    @settings(deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 12) | st.booleans(), min_size=1, max_size=9),
                    min_size=1, max_size=6))
    def test_drawn_int_rows(self, rows):
        assert serialize.dumps(rows) == reference_text(rows)

    def test_k6_permutation_table(self):
        """The 720 x 720 deck table, alone and inside its certificate, whose
        elements' image rows hold the ints 1..6."""
        group = deck_group(6)
        assert len(group.table) == 720
        for root in (group, [list(row) for row in group.table]):
            assert serialize.dumps(root) == reference_text(root)

    def test_lift_product_inside_a_list(self):
        product = lift_product(double_dip_path(), Regular(Fraction(3, 16)), Q3)
        for root in ([product], [[product], product.base], [Origin(1), product, []]):
            assert serialize.dumps(root) == reference_text(root)

    @pytest.mark.parametrize("value", [{"a": 1}, {}, [Regular(1), {"kind": "regular"}]],
                             ids=["dict", "empty-dict", "dict-in-list"])
    def test_dict_rejected(self, value):
        # every output is a typed value; a dict has no JSON form
        with pytest.raises(TypeError, match="^no JSON form for dict$"):
            serialize.dumps(value)
        with pytest.raises(TypeError, match="^no JSON form for dict$"):
            serialize.encode(value)
