"""The four workloads: seeded inputs, one pass of CLI operations, and checks.

Every workload has a fixed make-up (which shapes of input, how many
operations of each); the seed chooses the values inside those shapes and
the order of the operations.  Costs therefore barely move between seeds
while the program still sees new inputs on every seed.

The checks read the program's output files and compare them with what the
generator planted or with properties the method must have.  They never
import ``nonhaus`` and never compare against saved program output.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

MODELS = ("quotient", "pseudometric")


@dataclass
class Op:
    """One CLI call of a pass."""

    argv: list[str]
    out: Optional[str]  # the --out file the program writes, if it writes one
    mem_class: str  # operations of one class share one peak-memory reading
    items: int  # work units counted from the inputs, for items_per_s
    check: Callable[[], list[str]]  # independent check of the output; failures
    expect_rc: int = 0
    known_fault: bool = False  # fails today through a known program fault


@dataclass
class Workload:
    name: str
    ops: list[Op]  # one pass, in run order
    warmup: list[str]  # argv of the untimed warm-up operation


def _frac(s: str) -> Fraction:
    return Fraction(s)


def _fs(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# report: audit --json, the text audit, and audit --check

# Verdicts (quotient, pseudometric) of every claim, in table order, as the
# paper states them: the two models split on T1, local Euclidean-ness,
# the origin filter, loop triviality, contractibility and homotopy-lift
# existence; every covering-space axiom fails in both; the deck group is
# the full symmetric group; the last two rows lie outside the model.
CLAIMS = (
    ("separation-t1", "holds", "fails"),
    ("separation-hausdorff", "fails", "fails"),
    ("locally-euclidean-at-origins", "holds", "fails"),
    ("origin-filter-coincidence", "fails", "holds"),
    ("pi1-trivial", "fails", "holds"),
    ("contractible", "fails", "holds"),
    ("even-covering", "fails", "fails"),
    ("branched-cover", "fails", "fails"),
    ("etale-separated", "fails", "fails"),
    ("unique-path-lifting", "fails", "fails"),
    ("homotopy-lifting", "fails", "holds-non-uniquely"),
    ("homotopy-lifting-origin-constancy", "fails", "fails"),
    ("monodromy-defined", "fails", "fails"),
    ("deck-group-symmetric", "holds", "holds"),
    ("semicovering", "fails", "fails"),
    ("subgroup-correspondence", "fails", "fails"),
    ("groupoid-covering", "not-machine-checked", "not-machine-checked"),
    ("stacky-cover", "not-machine-checked", "not-machine-checked"),
)

# One seeded unit (json audit, text audit, check) per entry.  The k = 2, 3
# audits hold the median and the k = 5 audits op_tail_ms, each well inside
# its block of similar operations.  k = 6, a second per operation, is one
# unit without the text audit, which would repeat the JSON audit's work.
REPORT_KS = (2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5, 5, 5, 5, 6)
# Reports with default eps and x0, tampered in two ways; seed-independent.
TAMPER_KS = (2, 3, 4, 5)
TAMPER_DROPPED = "semicovering"


def _report_schema_validator(root: Path):
    import jsonschema

    schema = json.loads((root / "schemas" / "report.schema.json").read_text())
    return jsonschema.Draft7Validator(schema)


def _claim_rows(claims: list[dict]) -> list[tuple[str, str, str]]:
    return [
        (c["claim_id"], dict(c["verdicts"])["quotient"], dict(c["verdicts"])["pseudometric"])
        for c in claims
    ]


def _check_report_json(path: str, k: int, model: str, validator, seen: dict) -> list[str]:
    doc = json.loads(Path(path).read_text())
    errs = [f"schema: {e.message}" for e in validator.iter_errors(doc)][:3]
    if doc.get("k") != k or doc.get("model") != model:
        errs.append(f"report echoes k={doc.get('k')} model={doc.get('model')}")
    if _claim_rows(doc["claims"]) != list(CLAIMS):
        errs.append("verdict table differs from the paper's claims")
    certs = dict((ref, cert) for ref, cert in doc["certificates"])
    deck_claim = next(c for c in doc["claims"] if c["claim_id"] == "deck-group-symmetric")
    deck = certs.get(dict(deck_claim["certificate_refs"])["quotient"], {})
    order = math.factorial(k)
    if deck.get("kind") != "deck-group-table" or len(deck.get("elements", ())) != order:
        errs.append(f"deck certificate does not list {order} elements")
    elif len(deck["table"]) != order or any(len(row) != order for row in deck["table"]):
        errs.append(f"deck table is not {order}x{order}")
    seen["certificates"] = len(doc["certificates"])
    return errs


def _check_report_text(path: str, k: int, model: str) -> list[str]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != f"claims audit (k={k}, requested model: {model})":
        return ["text audit header is wrong"]
    rows = []
    for line in lines[1:-1]:
        m = re.fullmatch(r"(\S+)\s+quotient=(\S+)\s+pseudometric=(\S+)", line)
        if not m:
            return [f"unparsed text audit row {line!r}"]
        rows.append(m.groups())
    if rows != list(CLAIMS):
        return ["text verdict table differs from the paper's claims"]
    if not re.fullmatch(r"\d+ certificates embedded; all re-checked", lines[-1]):
        return ["text audit does not report its re-check"]
    return []


def _check_recheck_text(path: str, seen: dict) -> list[str]:
    text = Path(path).read_text()
    expected = f"report ok: {len(CLAIMS)} claims, {seen.get('certificates')} certificates re-checked\n"
    return [] if text == expected else [f"check output {text!r}"]


def _tamper(report: dict, how: str) -> dict:
    doc = json.loads(json.dumps(report))
    if how == "flip":
        for claim in doc["claims"]:
            if claim["claim_id"] == "even-covering":
                claim["verdicts"] = [[m, "holds"] for m, _ in claim["verdicts"]]
    else:
        doc["claims"] = [c for c in doc["claims"] if c["claim_id"] != TAMPER_DROPPED]
    return doc


def build_report(seed: int, work: Path, root: Path, cli_main) -> Workload:
    rng = random.Random(f"report:{seed}")
    validator = _report_schema_validator(root)
    ops: list[Op] = []
    units: list[list[Op]] = []
    for n, k in enumerate(REPORT_KS):
        eps = Fraction(rng.randint(1, 16), rng.randint(1, 16))
        x0 = Fraction(rng.randint(1, 16), rng.randint(1, 16))
        model = rng.choice(MODELS)
        base = ["audit", "--k", str(k), "--eps", str(eps), "--x0", str(x0), "--model", model]
        js, txt, chk = (str(work / f"report-{n}.{ext}") for ext in ("json", "txt", "check.txt"))
        seen: dict = {}
        cells = math.factorial(k) ** 2
        text = [Op(base + ["--out", txt], txt, f"{k}:text", cells,
                   lambda txt=txt, k=k, model=model: _check_report_text(txt, k, model))]
        units.append([
            Op(base + ["--json", "--out", js], js, f"{k}:json", cells,
               lambda js=js, k=k, model=model, seen=seen:
               _check_report_json(js, k, model, validator, seen)),
            *(text if k < 6 else []),
            Op(["audit", "--check", js, "--out", chk], chk, f"{k}:check", cells,
               lambda chk=chk, seen=seen: _check_recheck_text(chk, seen)),
        ])
    # Tampered copies must be refused with exit 3.  Their inputs do not
    # depend on the seed, so the share of failed operations is fixed.
    for k in TAMPER_KS:
        plain = work / f"plain-{k}.json"
        if cli_main(["audit", "--k", str(k), "--json", "--out", str(plain)]) != 0:
            raise RuntimeError(f"could not produce the k={k} report to tamper with")
        report = json.loads(plain.read_text())
        for how in ("flip", "drop"):
            bad = work / f"tampered-{how}-{k}.json"
            bad.write_text(json.dumps(_tamper(report, how), sort_keys=True, indent=2) + "\n")
            out = str(work / f"tampered-{how}-{k}.txt")
            units.append([Op(["audit", "--check", str(bad), "--out", out], out,
                             f"{k}:check", math.factorial(k) ** 2, lambda: [],
                             expect_rc=3, known_fault=True)])
    rng.shuffle(units)
    for unit in units:
        ops.extend(unit)
    warm = str(work / "warmup.json")
    return Workload("report", ops, ["audit", "--k", "3", "--json", "--out", warm])


# ---------------------------------------------------------------------------
# lifts: lift --path P --k K --model M --json

# (k, m, model): lifts per operation are k**m, at most 1024.  Every shape
# runs in both models; the repeats place the median in the middle of the
# 64- and 81-lift block and op_tail_ms in the middle of a block of six
# 256-lift quotient operations, with as many cheap operations below the
# median as heavy ones above it.
LIFT_OPS = tuple(
    (k, m, model)
    for k, m in ((2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10),
                 (3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4), (4, 5),
                 (3, 4), (2, 6), (3, 4), (2, 6), (3, 4), (2, 3), (2, 4), (3, 3), (2, 3))
    for model in MODELS
) + ((2, 8, "quotient"),) * 5


def _make_path(rng: random.Random, m: int) -> list[tuple[Fraction, Fraction]]:
    """A PL path with m zero times, never starting at zero: touches, crossings
    at a breakpoint and crossings strictly between two breakpoints, a third
    of each in seeded order, so the path's length depends on m alone."""

    def value(sign: int) -> Fraction:
        return sign * Fraction(rng.randint(1, 12), rng.choice((2, 3, 5, 7)))

    events = ["touch"] * (m // 3) + ["cross-at"] * (m // 3)
    events += ["cross-between"] * (m - len(events))
    rng.shuffle(events)
    sign = rng.choice((1, -1))
    xs = [value(sign)]
    for event in events:
        if event != "cross-between":
            xs.append(Fraction(0))
        if event != "touch":
            sign = -sign
        xs.append(value(sign))
    n = len(xs)
    return [(Fraction(i, n - 1), x) for i, x in enumerate(xs)]


def _normalize(path: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Breakpoints with every sign change's exact root inserted."""
    out = []
    for (t0, x0), (t1, x1) in zip(path, path[1:]):
        out.append((t0, x0))
        if x0 * x1 < 0:
            out.append((t0 + (t1 - t0) * x0 / (x0 - x1), Fraction(0)))
    out.append(path[-1])
    return out


def _check_lifts(path: str, k: int, points: list[tuple[Fraction, Fraction]], m: int) -> list[str]:
    lifts = json.loads(Path(path).read_text())
    if len(lifts) != k**m:
        return [f"{len(lifts)} lifts, expected {k}^{m}"]
    base = lifts[0]["base"]
    if [(_frac(t), _frac(x)) for t, x in base["breakpoints"]] != points:
        return ["lift base is not the input path with its roots"]
    expected_choices = itertools.product(range(1, k + 1), repeat=m)
    start = lifts[0]["values"][0]
    for lift, choices in zip(lifts, expected_choices):
        if lift["base"] != base:
            return ["lifts are over different paths"]
        values = lift["values"]
        if values[0] != start:
            return ["lifts do not share one start"]
        origins = []
        for (t, x), v in zip(points, values):
            if x == 0:
                if v.get("kind") != "origin":
                    return [f"no origin at zero time {t}"]
                origins.append(v["index"])
            elif v != {"kind": "regular", "x": _fs(x)}:
                return [f"regular value at t={t} is not the path coordinate"]
        if tuple(origins) != choices:
            return ["origin choices are not the full product in lexicographic order"]
    return []


def build_lifts(seed: int, work: Path, root: Path, cli_main) -> Workload:
    rng = random.Random(f"lifts:{seed}")
    ops = []
    for n, (k, m, model) in enumerate(LIFT_OPS):
        path = _make_path(rng, m)
        points = _normalize(path)
        if sum(1 for _, x in points if x == 0) != m:
            raise RuntimeError(f"generated path does not have {m} zero times")
        p = work / f"path-{n}.plpath"
        p.write_text("plpath v1\n" + "".join(f"{_fs(t)} {_fs(x)}\n" for t, x in path))
        out = str(work / f"lifts-{n}.json")
        ops.append(Op(["lift", "--path", str(p), "--k", str(k), "--model", model,
                       "--json", "--out", out], out, f"{k}^{m}", k**m,
                      lambda out=out, k=k, points=points, m=m: _check_lifts(out, k, points, m)))
    rng.shuffle(ops)
    warm = work / "warmup.plpath"
    warm.write_text("plpath v1\n0/1 1/1\n1/2 0/1\n1/1 1/1\n")
    return Workload("lifts", ops, ["lift", "--path", str(warm), "--k", "2", "--json",
                                   "--out", str(work / "warmup.json")])


# ---------------------------------------------------------------------------
# fields: homotopy --field F --k K --model M --assign A [--paper-constancy]

# (ns, nt, dips, wells, k); four operations per field.  Eleven sizes put
# the median and op_tail_ms inside blocks of four same-size operations.
FIELD_SHAPES = (
    (8, 8, 1, 1, 2), (12, 10, 2, 1, 3), (16, 16, 2, 2, 4), (24, 20, 2, 2, 2),
    (32, 32, 3, 2, 3), (40, 36, 2, 2, 4), (48, 40, 3, 3, 4), (64, 64, 3, 3, 2),
    (80, 72, 3, 3, 3), (100, 100, 3, 3, 4), (120, 120, 3, 3, 2),
)
# Field values have denominator 127, a prime above every t-grid
# denominator, so no grid vertex is exactly zero.
_P = 127


@dataclass
class PlantedField:
    ns: int
    nt: int
    values: list[list[Fraction]]
    dips: list[tuple[Fraction, Fraction]]  # the two bottom zero times of each dip
    wells: int


def _make_field(rng: random.Random, ns: int, nt: int, dips: int, wells: int) -> PlantedField:
    """Bottom wave with planted dips, plus the ramp t/2, plus interior wells.

    Each dip dives to at most 16/127 below zero, so its zero arc stays under
    t = 1/4; wells sit at t >= 1/2, where the ramp keeps every neighbour
    positive, so each well is a closed loop of its own.
    """
    cuts = sorted(rng.sample(range(1, ns - 1), 2 * dips))
    negative = set()
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        negative.update(range(lo, hi))
    f0 = [
        Fraction(-rng.randint(8, 16), _P) if a in negative else Fraction(rng.randint(16, 40), _P)
        for a in range(ns)
    ]
    s = [Fraction(a, ns - 1) for a in range(ns)]
    values = [[f0[a] + Fraction(b, 2 * (nt - 1)) for b in range(nt)] for a in range(ns)]
    placed: list[tuple[int, int]] = []
    while len(placed) < wells:
        a, b = rng.randint(1, ns - 2), rng.randint((nt - 1 + 1) // 2, nt - 2)
        if all(max(abs(a - pa), abs(b - pb)) >= 2 for pa, pb in placed):
            placed.append((a, b))
            values[a][b] = Fraction(-rng.randint(8, 16), _P)
    roots = []
    for a in range(ns - 1):
        if (f0[a] < 0) != (f0[a + 1] < 0):
            roots.append(s[a] + (s[a + 1] - s[a]) * f0[a] / (f0[a] - f0[a + 1]))
    pairs = list(zip(roots[::2], roots[1::2]))
    if len(pairs) != dips:
        raise RuntimeError(f"generated field does not have {dips} dips")
    return PlantedField(ns, nt, values, pairs, wells)


def _field_text(f: PlantedField) -> str:
    lines = ["plfield v1", f"{f.ns} {f.nt}",
             " ".join(_fs(Fraction(a, f.ns - 1)) for a in range(f.ns)),
             " ".join(_fs(Fraction(b, f.nt - 1)) for b in range(f.nt))]
    lines += [" ".join(_fs(v) for v in row) for row in f.values]
    return "\n".join(lines) + "\n"


def _check_field(path: str, f: PlantedField, k: int, case: str,
                 assign: dict[Fraction, int]) -> list[str]:
    rec = json.loads(Path(path).read_text())
    res = rec["result"]
    comps = len(f.dips) + f.wells
    if case == "consistent":
        if res["kind"] != "lifts-enumerated" or len(res["assignments"]) != k**f.wells:
            return [f"expected {k}^{f.wells} lifts, got {res['kind']}"]
        if any(sorted(c for c, _ in a) != list(range(comps)) for a in res["assignments"]):
            return ["an assignment does not cover every zero component"]
        return []
    if case == "conflict":
        pair = next(d for d in f.dips if assign[d[0]] != assign[d[1]])
        got = [(_frac(t), o) for t, o in res.get("constraints", ())]
        if res["kind"] != "no-lift" or res["component"] is None or got != [
                (pair[0], assign[pair[0]]), (pair[1], assign[pair[1]])]:
            return ["conflict is not reported on the planted dip"]
        return []
    if case == "pseudometric":
        if res["kind"] != "non-unique-existence" or res["component_count"] != comps:
            return [f"expected non-unique existence over {comps} components"]
        return []
    if res["kind"] != "no-lift" or res["component"] is not None:
        return ["constancy rule did not refuse a mixed assignment"]
    return []


def build_fields(seed: int, work: Path, root: Path, cli_main) -> Workload:
    rng = random.Random(f"fields:{seed}")
    ops = []
    for n, (ns, nt, dips, wells, k) in enumerate(FIELD_SHAPES):
        f = _make_field(rng, ns, nt, dips, wells)
        p = work / f"field-{n}.plfield"
        p.write_text(_field_text(f))
        consistent: dict[Fraction, int] = {}
        for lo, hi in f.dips:
            consistent[lo] = consistent[hi] = rng.randint(1, k)
        conflict = dict(consistent)
        lo, hi = rng.choice(f.dips)
        conflict[hi] = rng.choice([o for o in range(1, k + 1) if o != conflict[lo]])
        cases = (
            ("consistent", "quotient", consistent, False),
            ("conflict", "quotient", conflict, False),
            ("pseudometric", "pseudometric", consistent, False),
            ("constancy", "pseudometric", conflict, True),
        )
        for case, model, assign, constancy in cases:
            out = str(work / f"field-{n}-{case}.json")
            argv = ["homotopy", "--field", str(p), "--k", str(k), "--model", model,
                    "--assign", ",".join(f"{_fs(t)}={o}" for t, o in sorted(assign.items()))]
            argv += ["--paper-constancy"] if constancy else []
            ops.append(Op(argv + ["--json", "--out", out], out, f"{ns}x{nt}",
                          2 * (ns - 1) * (nt - 1),
                          lambda out=out, f=f, k=k, case=case, assign=assign:
                          _check_field(out, f, k, case, assign)))
    rng.shuffle(ops)
    return Workload("fields", ops, ["homotopy", "--json", "--out", str(work / "warmup.json")])


# ---------------------------------------------------------------------------
# thick: thick --grid-n N --embedding E [--json]

# Eleven operations: the 256 grid in every form twice, 512 in both
# embeddings, and one 768 main-curve sweep (two seconds on its own).
THICK_OPS = tuple(
    [(256, e, j) for e in ("main", "spiral") for j in (False, True)] * 2
    + [(512, "main", True), (512, "spiral", False), (768, "main", False)]
)


def _closed_form_main(n: int) -> tuple[int, int]:
    """Bounds on the main curve's covered count from the region r >= sin(theta),
    0 < theta < pi; points within 1e-9 of that region's edge may go either way."""
    inside = edge = 0
    for a in range(1, n):
        r = a / (n - 1)
        for b in range(n):
            theta = 2 * math.pi * b / n
            sin = math.sin(theta)
            if abs(r - sin) <= 1e-9 or abs(r * sin) <= 1e-9:
                edge += 1
            elif sin > 0 and r > sin:
                inside += 1
    return inside, inside + edge


def _parse_thick(path: str, as_json: bool) -> dict:
    text = Path(path).read_text()
    if as_json:
        d = json.loads(text)
        w = d["lower_half_witness"]
        return {"covered": d["covered"], "total": d["total"],
                "witness_v": None if w is None else w["v"],
                "discontinuous": [p["discontinuous"] for p in d["probes"]]}
    cov = re.search(r"^coverage: (\d+)/(\d+) = ", text, re.M)
    wit = re.search(r"^uncovered lower-half witness: \(([-0-9.]+), ([-0-9.]+)\)$", text, re.M)
    probes = re.findall(r"^probe origin .* -> (discontinuous|continuous)$", text, re.M)
    return {"covered": int(cov.group(1)), "total": int(cov.group(2)),
            "witness_v": None if wit is None else float(wit.group(2)),
            "discontinuous": [p == "discontinuous" for p in probes]}


def _check_thick(path: str, n: int, emb: str, as_json: bool, bounds: dict) -> list[str]:
    got = _parse_thick(path, as_json)
    if got["total"] != n * (n - 1):
        return [f"grid has {got['total']} points, expected {n * (n - 1)}"]
    if emb == "main":
        if n not in bounds:
            bounds[n] = _closed_form_main(n)
        lo, hi = bounds[n]
        if not got["covered"] < got["total"]:
            return ["main curve reports full coverage"]
        if got["witness_v"] is None or not got["witness_v"] < 0:
            return ["main curve has no lower-half witness"]
        if not lo <= got["covered"] <= hi:
            return [f"covered {got['covered']} outside the closed-form range [{lo}, {hi}]"]
        return []
    if got["covered"] < 0.95 * got["total"]:
        return ["spiral coverage below 0.95"]
    if not got["discontinuous"] or not all(got["discontinuous"]):
        return ["spiral probe is not discontinuous"]
    return []


def build_thick(seed: int, work: Path, root: Path, cli_main) -> Workload:
    rng = random.Random(f"thick:{seed}")
    bounds: dict[int, tuple[int, int]] = {}
    ops = []
    for idx, (n, emb, as_json) in enumerate(THICK_OPS):
        out = str(work / f"thick-{idx}.{'json' if as_json else 'txt'}")
        argv = ["thick", "--grid-n", str(n), "--embedding", emb] + (["--json"] if as_json else [])
        ops.append(Op(argv + ["--out", out], out, f"{n}:{emb}", n * (n - 1),
                      lambda out=out, n=n, emb=emb, as_json=as_json:
                      _check_thick(out, n, emb, as_json, bounds)))
    rng.shuffle(ops)
    return Workload("thick", ops, ["thick", "--grid-n", "32", "--out", str(work / "warmup.txt")])


BUILDERS = {"report": build_report, "lifts": build_lifts, "fields": build_fields,
            "thick": build_thick}
