"""Single-leaf tamper sweep of two golden reports, against an allowlist of witnesses.

Every leaf of ``tests/golden/audit-k2-quotient.json`` and of
``tests/golden/audit-k3-pseudometric.json`` is edited in each of the four
ways of ``test_fuzzed_report_leaf_never_escapes`` in
``tests/test_hostile_input.py`` (retyped, incremented, flipped, deleted), one
edit at a time, and each edited report goes through ``nonhaus audit --check``
in process.  For each golden the script prints how many edits end in each exit
code, and the accepted edits (exit 0) that change a value, counted by the
(kind, field) of the object they change.

An accepted value-changing edit is sound only where the edited value is an
existential witness: any value that the checker still accepts proves the same
verdict.  ``EXISTENTIAL`` lists those (kind, field) sites, each with the
verdict that an accepted value still proves.  The script exits 1 if any edit
exits 1 (an uncaught exception), or if an accepted value-changing edit lands
on a site outside ``EXISTENTIAL``, whatever the count.  A site that holds a
real gap is closed in the checker, never added to the map.

Usage, from the repository root (about 10 s)::

    python tools/sweep.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from nonhaus.cli import main as cli_main  # noqa: E402
from test_hostile_input import _EDITS, _leaf_paths, _tampered_report  # noqa: E402

GOLDENS = ("audit-k2-quotient.json", "audit-k3-pseudometric.json")

# (kind, field) -> why any value that the checker accepts there proves the same verdict
EXISTENTIAL: dict[tuple[str, str], str] = {
    ("deck-group-table", "noncommuting_pair"):
        "the re-check accepts any two indices whose products differ in the table, and any "
        "such pair shows the deck group is not abelian; the table itself is re-derived, so "
        "deck-group-symmetric still holds and subgroup-correspondence still fails",
    ("separated-charts", "eps"):
        "charts of any positive radius hold only their own origin, and the re-check derives "
        "this again for every i and j: T1 and local Euclideanity still hold and the origin "
        "filters still differ",
}


def _site(doc: dict, leaf: tuple) -> tuple[str, str]:
    """(kind, field) of the innermost kind-tagged object on the path to leaf."""
    node, site = doc, ("report-document", str(leaf[0]))
    for key in leaf:
        if isinstance(node, dict) and "kind" in node:
            site = (node["kind"], str(key))
        node = node[key]
    return site


def _exit_code(path: Path, doc: dict) -> tuple[int, str]:
    """The exit code of ``audit --check`` on doc, and the uncaught exception if any."""
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli_main(["audit", "--check", str(path)]), ""
        except Exception as exc:  # a traceback: the process would exit 1
            return 1, f"{type(exc).__name__}: {exc}"


def sweep(report: dict, leaves: list[tuple]) -> tuple[Counter, Counter, list[str]]:
    """Exit-code counts, accepted value-changing edits by site, and the exit-1 edits."""
    original = json.dumps(report, sort_keys=True)
    codes: Counter = Counter()
    gaps: Counter = Counter()
    crashes = []
    with tempfile.TemporaryDirectory(prefix="nonhaus-sweep-") as tmp:
        path = Path(tmp) / "tampered.json"
        for leaf in leaves:
            for edit in _EDITS:
                doc = _tampered_report(leaf, edit, report)
                code, exc = _exit_code(path, doc)
                codes[code] += 1
                if code == 1:
                    crashes.append(f"{edit} {list(leaf)}: {exc}")
                if code == 0 and json.dumps(doc, sort_keys=True) != original:
                    gaps[_site(report, leaf)] += 1
    return codes, gaps, crashes


def main() -> int:
    faults = []
    for name in GOLDENS:
        report = json.loads((ROOT / "tests" / "golden" / name).read_text())
        leaves = list(_leaf_paths(report))
        codes, gaps, crashes = sweep(report, leaves)
        print(f"{name}: {sum(codes.values())} edits of {len(leaves)} leaves; exit codes: "
              + ", ".join(f"{code}: {n}" for code, n in sorted(codes.items())))
        print(f"{sum(gaps.values())} accepted edits change a value")
        faults += [f"{name}: exit 1: {c}" for c in crashes]
        for site, n in sorted(gaps.items()):
            mark = ""
            if site not in EXISTENTIAL:
                mark = "  NOT EXISTENTIAL"
                faults.append(f"{name}: accepted value edits outside EXISTENTIAL at {site}: {n}")
            print(f"  {site[0]}.{site[1]}: {n}{mark}")
    for fault in faults:
        print(f"FAIL {fault}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
