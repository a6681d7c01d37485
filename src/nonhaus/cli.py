"""Command-line front end.

Subcommands: audit, lift, homotopy, deck, metric, render, thick.  All
output is deterministic: identical inputs give byte-identical JSON, text,
and SVG.  Exit codes: 0 success, 2 invalid input, 3 when an embedded
certificate fails its re-check.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import audit as audit_mod
from . import serialize
from .errors import NonHausError, RecheckFailure
from .figures import SvgScene, render_figure
from .embedding import EmbeddingSpec
from .lifting import (
    LiftsEnumerated,
    NoLift,
    bounce_path,
    homotopy_lift_record,
    lift_product,
    make_merging_field,
)
from .space import (
    MetricSummary,
    Origin,
    Regular,
    SpaceConfig,
    TopologyModel,
    labeled_dist,
    LabeledRep,
    pseudo_dist,
    separation_report,
)
from .symmetry import deck_group, recheck_deck_group
from .thickened import thick_audit


def _cfg(args: argparse.Namespace) -> SpaceConfig:
    return SpaceConfig(args.k, TopologyModel(args.model))


# Characters per write of an --out file.  A slice this size is encoded in a
# buffer the allocator reuses, so a multi-megabyte text (lift --json at k^m
# = 1024 is 2.7 MB) is never encoded into a second whole-text copy whose
# fresh pages are faulted in on every call.
_WRITE_CHARS = 1 << 16


def _emit(out: str | None, text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            for at in range(0, len(text), _WRITE_CHARS):
                fh.write(text[at:at + _WRITE_CHARS])
    else:
        sys.stdout.write(text)


def _ensure(failures: list[str]) -> None:
    """Raise RecheckFailure, which exits 3, naming every failure of a re-check."""
    if failures:
        raise RecheckFailure("; ".join(failures))


def _known_schema(data: object) -> None:
    """Refuse a report of another schema by its version, before its certificates are decoded."""
    version = data.get("schema_version") if isinstance(data, dict) else None
    if isinstance(version, str):
        _ensure(audit_mod.schema_failures(version))


def _cmd_audit(args: argparse.Namespace) -> str:
    if args.check:
        given = [f"--{dest}" for dest in _BUILD_FLAGS if getattr(args, dest) is not None]
        if given:
            raise ValueError(f"audit --check takes no {', '.join(given)}")
        doc = serialize.loads(Path(args.check).read_text(), audit_mod.ReportDocument,
                              _known_schema)
        _ensure(audit_mod.recheck_report(doc))
        return (f"report ok: {len(doc.claims)} claims, "
                f"{len(doc.certificates)} certificates re-checked\n")
    vars(args).update((d, v) for d, v in _BUILD_FLAGS.items() if getattr(args, d) is None)
    doc = audit_mod.run_audit(_cfg(args), eps=args.eps, x0=args.x0)
    _ensure(audit_mod.recheck_report(doc))
    if args.json:
        return serialize.dumps(doc)
    width = max(len(c.claim_id) for c in doc.claims)
    lines = [f"claims audit (k={doc.k}, requested model: {doc.model})"]
    for c in doc.claims:
        v = dict(c.verdicts)
        lines.append(f"{c.claim_id:<{width}}  quotient={v['quotient']:<20} "
                     f"pseudometric={v['pseudometric']}")
    lines.append(f"{len(doc.certificates)} certificates embedded; all re-checked")
    return "\n".join(lines) + "\n"


def _cmd_lift(args: argparse.Namespace) -> str:
    cfg = _cfg(args)
    if args.path:
        path = serialize.read_pl_path(Path(args.path).read_text())
    else:
        path = bounce_path(args.x0)
    if args.dump_path:
        Path(args.dump_path).write_text(serialize.write_pl_path(path))
    c0 = path.breakpoints[0][1]
    start = Origin(1) if c0 == 0 else Regular(c0)
    lifts = lift_product(path, start, cfg)
    if args.json:
        return serialize.dumps(lifts)
    lines = [f"{lifts.count()} lifts (k={cfg.k}, model={cfg.model.value})"]
    for n, lift in enumerate(lifts):
        choices = ", ".join(f"t={t}: origin {i}" for t, i in lift.origin_choices())
        lines.append(f"lift {n}: {choices if choices else 'no zero times'}")
    return "\n".join(lines) + "\n"


def _parse_assignment(text: str) -> dict[Fraction, int]:
    out: dict[Fraction, int] = {}
    if not text.strip():
        return out
    for part in text.split(","):
        pieces = part.split("=")
        if len(pieces) != 2:
            raise ValueError(f"--assign: expected 'time=origin', got {part.strip()!r}")
        time, origin = (piece.strip() for piece in pieces)
        try:
            t = serialize.parse_frac(time)
        except ValueError as exc:
            if str(exc) == f"zero denominator in {time!r}":
                raise  # named as every rational input names it
            raise _refused(exc, f"time {time!r} is not a rational") from None
        if t in out:
            raise ValueError(f"--assign: time {t} is given more than once")
        try:
            out[t] = int(origin)
        except ValueError as exc:
            raise _refused(exc, f"origin {origin!r} is not an integer") from None
    return out


def _refused(exc: ValueError, text: str) -> ValueError:
    # int's own refusal of an over-long numeral is passed on, as other inputs pass it on
    return ValueError(f"--assign: {exc if str(exc).startswith('Exceeds the limit') else text}")


def _cmd_homotopy(args: argparse.Namespace) -> str:
    cfg = _cfg(args)
    if args.field:
        field = serialize.read_field(Path(args.field).read_text())
    else:
        field = make_merging_field()
    if args.dump_field:
        Path(args.dump_field).write_text(serialize.write_field(field))
    assignment = _parse_assignment(args.assign)
    record = homotopy_lift_record(field, assignment, cfg, args.paper_constancy)
    if args.json:
        return serialize.dumps(record)
    result = record.result
    if isinstance(result, NoLift):
        component = "all" if result.component is None else result.component
        detail = f"component={component} constraints={_pairs(result.constraints)}"
    elif isinstance(result, LiftsEnumerated):
        detail = "assignments=" + ";".join(map(_pairs, result.assignments))
    else:
        detail = f"component_count={result.component_count}"
    lines = [
        f"homotopy lifting (k={cfg.k}, model={cfg.model.value}, "
        f"constancy-rule={'on' if args.paper_constancy else 'off'})",
        f"outcome: {type(result).__name__}",
        f"detail: {detail}",
    ]
    return "\n".join(lines) + "\n"


def _pairs(pairs) -> str:
    """(time or component, origin) pairs in the ``--assign`` form ``t=i,...``, or ``(empty)``."""
    return ",".join(f"{a}={i}" for a, i in pairs) or "(empty)"


def _cmd_deck(args: argparse.Namespace) -> str:
    table = deck_group(args.k)
    _ensure(recheck_deck_group(table))
    if args.json:
        return serialize.dumps(table)
    lines = [
        f"deck group for k={args.k}: order {len(table.elements)}",
        "homomorphism check: pass",
        "faithful on origins: pass",
    ]
    if table.noncommuting_pair:
        a, b = (table.elements[n].images for n in table.noncommuting_pair)
        lines.append(f"non-commuting witness: {a} and {b}")
    return "\n".join(lines) + "\n"


def _cmd_metric(args: argparse.Namespace) -> str:
    cfg = _cfg(args)
    verdicts = separation_report(cfg)
    samples = [(Origin(1), Origin(2)), (Origin(2), Regular(Fraction(1, 2))),
               (Regular(3), Regular(5))]
    if args.json:
        distances = tuple((p, q, pseudo_dist(p, q)) for p, q in samples)
        return serialize.dumps(MetricSummary(cfg.model.value, tuple(verdicts), distances))
    lines = [f"separation axioms (k={cfg.k}, model={cfg.model.value})"]
    for v in verdicts:
        lines.append(f"{v.axiom}: {'holds' if v.holds else 'fails'}")
    for p, q in samples:
        lines.append(f"distance({p}, {q}) = {pseudo_dist(p, q)}")
    rep = labeled_dist(LabeledRep(1, 1), LabeledRep(2, 2), cfg.k)
    lines.append(f"representative-level distance of (1 on branch 1, 2 on branch 2) = {rep}")
    return "\n".join(lines) + "\n"


def _cmd_render(args: argparse.Namespace) -> str:
    # the SVG is ASCII, so its text encodes to the same bytes
    return render_figure(SvgScene(k=args.k, lifts=args.lifts)).decode()


def _cmd_thick(args: argparse.Namespace) -> str:
    report = thick_audit(args.grid_n, EmbeddingSpec(args.embedding), args.tolerance)
    if args.json:
        return serialize.dumps(report)
    lines = [
        f"thickened audit (embedding={report.embedding}, grid={report.grid_n}, "
        f"tolerance={report.tolerance})",
        f"coverage: {report.covered}/{report.total} = {report.coverage:.4f}",
        f"uncovered points: {report.uncovered_count}",
    ]
    if report.lower_half_witness:
        w = report.lower_half_witness
        lines.append(f"uncovered lower-half witness: ({w.u:.4f}, {w.v:.4f})")
    for p in report.probes:
        lines.append(
            f"probe origin {p.origin} at t={p.t}: limits {p.limit_pos} / {p.limit_neg}"
            f" -> {'discontinuous' if p.discontinuous else 'continuous'}"
        )
    for r in report.rows:
        lines.append(f"{r.claim}: {'holds' if r.holds else 'fails'}")
    return "\n".join(lines) + "\n"


# Flags shared by several subcommands; each subcommand names the ones it reads.
SHARED_FLAGS: dict[str, dict] = {
    "--k": dict(type=int, default=2, help="number of origins (default 2)"),
    "--model": dict(choices=[m.value for m in TopologyModel], default="quotient",
                    help="topology model (default quotient)"),
    "--x0": dict(type=serialize.parse_frac, default=Fraction(1), help="basepoint coordinate"),
    "--json": dict(action="store_true", help="emit JSON instead of text"),
    "--out": dict(help="write output to this file instead of stdout"),
}
# audit's report-building flags and their defaults; its parser sets them to None,
# so that --check, which builds nothing, can tell which were given
_BUILD_FLAGS = {"k": 2, "model": "quotient", "x0": Fraction(1), "eps": Fraction(1), "json": False}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonhaus",
        description="Exact model of the line with k glued origins: lift enumeration, "
        "failure certificates, deck group, and the claims audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, handler, help: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **SHARED_FLAGS[flag])
        p.set_defaults(handler=handler)
        return p

    p_audit = subcommand("audit", _cmd_audit, "emit the claims-audit report",
                         "--k", "--model", "--x0", "--json", "--out")
    p_audit.add_argument("--eps", type=serialize.parse_frac,
                         help="chart radius of separated-charts:quotient (default 1)")
    p_audit.add_argument("--check", help="re-check a report file and exit; takes no flag but --out")
    p_audit.set_defaults(**dict.fromkeys(_BUILD_FLAGS))

    p_lift = subcommand("lift", _cmd_lift, "enumerate lifts of a path",
                        "--k", "--model", "--json", "--out")
    start = p_lift.add_mutually_exclusive_group()
    start.add_argument("--x0", **SHARED_FLAGS["--x0"])
    start.add_argument("--path", help="read a 'plpath v1' file instead of the bounce path")
    p_lift.add_argument("--dump-path", help="also write the path as 'plpath v1' to this file")

    p_hom = subcommand("homotopy", _cmd_homotopy, "attempt a homotopy lift",
                       "--k", "--model", "--json", "--out")
    p_hom.add_argument("--paper-constancy", action="store_true",
                       help="treat origin-valued maps as constant across the zero set "
                       "(pseudometric model; the quotient model decides by its chart rule "
                       "and gives the same outcome with or without this flag)")
    p_hom.add_argument("--field", help="read a 'plfield v1' file instead of the merging field")
    p_hom.add_argument("--dump-field", help="also write the field as 'plfield v1' to this file")
    p_hom.add_argument("--assign", default="1/4=1,3/4=2",
                       help="boundary origin assignment, e.g. '1/4=1,3/4=2'")

    subcommand("deck", _cmd_deck, "deck group table and verification",
               "--k", "--json", "--out")
    subcommand("metric", _cmd_metric, "pseudometric and separation report",
               "--k", "--model", "--json", "--out")

    p_render = subcommand("render", _cmd_render, "render the scene as deterministic SVG",
                          "--k", "--out")
    p_render.add_argument("--lifts", action="store_true", help="annotate the bounce-path lifts")

    p_thick = subcommand("thick", _cmd_thick, "audit the radially thickened variant",
                         "--json", "--out")
    p_thick.add_argument("--embedding", choices=[e.value for e in EmbeddingSpec], default="main",
                         help="curve embedding (default main)")
    p_thick.add_argument("--grid-n", type=int, default=32, help="polar grid size (default 32)")
    p_thick.add_argument("--tolerance", type=float, default=1e-6,
                         help="coverage tolerance, finite and >= 0 (default 1e-6)")

    return parser


# Built on the first main() call, so importing the module stays cheap, and
# reused by every later call: parse_args returns a fresh Namespace each time.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _emit(args.out, args.handler(args))
        return 0
    except RecheckFailure as exc:
        print(f"certificate re-check failed: {exc}", file=sys.stderr)
        return 3
    except (NonHausError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
