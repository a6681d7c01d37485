"""Byte-for-byte golden outputs of every subcommand: JSON, text and SVG.

The files under ``tests/golden/`` pin the wire format that independent
checkers read, and the text and SVG a user sees.  Each case reruns the
CLI in-process and compares bytes.
After a deliberate format change, regenerate them with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import pytest

from nonhaus.cli import main

GOLDEN = Path(__file__).parent / "golden"
MODELS = ("quotient", "pseudometric")
HOMOTOPY_VARIANTS = (
    ("default", []),
    ("constancy", ["--paper-constancy"]),
    ("single-origin", ["--assign", "1/4=1,3/4=1"]),
)
# Fields read from a file under tests/golden/: (file stem, field file, options).  The
# planted field has the shape of the `fields` benchmark (values over 127, three dips
# and three wells); the mixed one spells values unreduced (2/4, -0/5, 007/03) and
# off the canonical form (0.5, a bare 3, a double space).
FIELD_RUNS = (
    ("homotopy-field-planted-k4-quotient", "field-planted-48x40.plfield",
     ["--k", "4", "--model", "quotient", "--assign",
      "24/235=1,214/1927=1,861/2162=2,906/2209=2,1425/1927=3,673/846=3"]),
    ("homotopy-field-mixed-k3-quotient", "field-mixed-4x3.plfield",
     ["--k", "3", "--model", "quotient", "--assign", "2/9=1,4/5=2"]),
)


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    runs = []  # (file stem, argv); each is pinned as JSON and as text
    for k in (2, 3, 5):
        for model in MODELS:
            common = ["--k", str(k), "--model", model]
            runs.append((f"audit-k{k}-{model}", ["audit", *common]))
            runs.append((f"lift-k{k}-{model}", ["lift", *common]))
            for variant, extra in HOMOTOPY_VARIANTS:
                runs.append((f"homotopy-{variant}-k{k}-{model}", ["homotopy", *common, *extra]))
            runs.append((f"metric-k{k}-{model}", ["metric", *common]))
        runs.append((f"deck-k{k}", ["deck", "--k", str(k)]))
    for stem, field, options in FIELD_RUNS:
        runs.append((stem, ["homotopy", "--field", str(GOLDEN / field), *options]))
    for embedding in ("main", "spiral"):
        runs.append((f"thick-{embedding}", ["thick", "--grid-n", "32", "--embedding", embedding]))
    for grid_n, embedding in ((256, "main"), (256, "spiral"), (512, "spiral"), (768, "main")):
        argv = ["thick", "--grid-n", str(grid_n), "--embedding", embedding]
        runs.append((f"thick-{embedding}-n{grid_n}", argv))
    for stem, argv in runs:
        cases.append((f"{stem}.json", [*argv, "--json"]))
        cases.append((f"{stem}.txt", argv))
    cases.append(("render-k3-lifts.svg", ["render", "--k", "3", "--lifts"]))
    for model in MODELS:
        report = GOLDEN / f"audit-k2-{model}.json"
        cases.append((f"check-k2-{model}.txt", ["audit", "--check", str(report)]))
    return cases


CASES = _cases()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden(name, argv, tmp_path):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# k=6 outputs are 5.7-9.0 MB, too large for files under tests/golden/; they are
# pinned by the sha256 of their bytes instead.  A deliberate change to them
# updates these digests by hand, with the reason stated.
K6_DIGESTS = (
    ("audit-k6-quotient", ["audit", "--k", "6", "--json"],
     "6969b3b56c872a583119570c946c78efc95e8b3f17d087287e9929c955f8beea"),
    ("audit-k6-pseudometric", ["audit", "--k", "6", "--model", "pseudometric", "--json"],
     "750eb0abb5cdf983797dc2bef33290b1cc4d90dc744d4ef7482cc6e76d037160"),
    ("audit-k6-eps-x0", ["audit", "--k", "6", "--eps", "3/7", "--x0", "5/3", "--json"],
     "b3d584ab6dbbaef9fecb87d7f047a1d90ff635b47111f5e33e9ceec5e96fa2dc"),
    ("deck-k6", ["deck", "--k", "6", "--json"],
     "b3505cfcb80f71116f291a7b7a0b71d366baeefca141455cf5517c02fc9dfeba"),
)


@pytest.mark.parametrize("argv,digest", [run[1:] for run in K6_DIGESTS],
                         ids=[run[0] for run in K6_DIGESTS])
def test_k6_output_matches_digest(argv, digest, tmp_path):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _dump_argv(field: str, options: list[str], dump: Path, out: Path) -> list[str]:
    return ["homotopy", "--field", str(GOLDEN / field), *options,
            "--dump-field", str(dump), "--out", str(out)]


@pytest.mark.parametrize("field,options", [run[1:] for run in FIELD_RUNS],
                         ids=[run[1] for run in FIELD_RUNS])
def test_dumped_field_matches_golden(field, options, tmp_path):
    dump = tmp_path / field
    assert main(_dump_argv(field, options, dump, tmp_path / "out")) == 0
    assert dump.read_bytes() == (GOLDEN / f"dump-{field}").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        if main([*argv, "--out", str(GOLDEN / name)]) != 0:
            raise SystemExit(f"{' '.join(argv)} failed")
    for _, field, options in FIELD_RUNS:
        if main(_dump_argv(field, options, GOLDEN / f"dump-{field}", Path(os.devnull))) != 0:
            raise SystemExit(f"dumping {field} failed")
