"""Mutation campaign over the certificate re-checks and the claim-rule readers.

Each mutant changes one node of one checked function:

* ``compare``: one comparison operator negated (``==`` -> ``!=``, ``<`` -> ``>=``,
  ``in`` -> ``not in``, ``is`` -> ``is not`` and back);
* ``boolop``: one ``and`` swapped for ``or``, or the reverse;
* ``drop``: one failure report dropped (a ``failures.append``/``extend`` or
  ``failures += ...`` becomes ``pass``, ``return [msg]`` becomes ``return []``
  and ``return failures + [msg]`` becomes ``return failures``).

For every mutant the script copies ``src/`` to a temporary directory, writes
the mutated module there and runs the tier-1 suite with ``-x`` against the
copy, so the checkout is never left mutated.  A mutant that no test kills is
a survivor; survivors outside ``EQUIVALENT`` are printed and make the exit
status 1.

Usage, from the repository root::

    python tools/mutate.py          # run every mutant (8-10 min on 2 cores)
    python tools/mutate.py --list   # build and list every mutant, run nothing
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nonhaus"
TIMEOUT_S = 600  # one suite takes about 30 s
# suites run at a time: each is one single-threaded Python process of about 60 MB
JOBS = min(os.cpu_count() or 1, 4)

# module -> the checked functions, by qualified name; a prefix ending in "*"
# takes every top-level function whose name starts with it.  A pattern that
# names no function stops the script, so a renamed or deleted check is not
# dropped from the campaign without a word.
TARGETS = {
    "audit": ("_shows", "_t2_fails", "_not_evenly_covered", "_no_local_sheets",
              "_germs_inseparable", "_charts", "_contracts", "_probe_not_null",
              "_null_homotopy_unliftable", "_every_lift_extends", "_constancy_unliftable",
              "_deck_group_nontrivial", "_recheck_*", "recheck_report", "schema_failures"),
    "lifting": ("recheck_monodromy", "recheck_homotopy_record", "verify_lift_continuity",
                "_breakpoint_fault"),
    "projection": ("recheck_*",),
    "symmetry": ("recheck_deck_group", "recheck_contraction"),
    "space": ("opens_intersect",),
}

# Survivors that no test can kill, by mutant name, each with the reason why
# the mutant behaves as the original does; a full run finds none today.
EQUIVALENT: dict[str, str] = {}

_NEGATED = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
            ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
            ast.Is: ast.IsNot, ast.IsNot: ast.Is}


@dataclass(frozen=True)
class Mutant:
    module: str
    function: str
    operator: str
    original: str  # the source of the node it changes
    start: tuple[int, int]  # (line, column) span of that node, 1-based lines
    end: tuple[int, int]
    replacement: str

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}: `{self.original}` -> `{self.replacement}`"


def _names(name: str, pattern: str) -> bool:
    return name == pattern or (pattern.endswith("*") and name.startswith(pattern[:-1]))


def _functions(tree: ast.Module, patterns: tuple[str, ...]):
    """(qualified name, node) of every function of the module that a pattern names."""
    for node in tree.body:
        defs = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            defs = [(f"{node.name}.{f.name}", f) for f in node.body
                    if isinstance(f, ast.FunctionDef)]
        for name, fn in defs:
            if any(_names(name, p) for p in patterns):
                yield name, fn


def _is_report(node: ast.AST) -> bool:
    """A statement that adds to a list of failures."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, ast.Add) and isinstance(node.target, ast.Name)
    call = node.value if isinstance(node, ast.Expr) else None
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("append", "extend") and isinstance(call.func.value, ast.Name))


def _changes(node: ast.AST):
    """(operator, replacement source) of every mutant of one node."""
    if isinstance(node, ast.Compare):
        for n, op in enumerate(node.ops):
            flipped = ast.Compare(node.left, list(node.ops), node.comparators)
            flipped.ops[n] = _NEGATED[type(op)]()
            yield "compare", f"({ast.unparse(flipped)})"
    elif isinstance(node, ast.BoolOp):
        other = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        yield "boolop", f"({ast.unparse(ast.BoolOp(other, node.values))})"
    elif _is_report(node):
        yield "drop", "pass"
    elif isinstance(node, ast.Return) and isinstance(node.value, ast.List) and node.value.elts:
        yield "drop", "return []"
    elif (isinstance(node, ast.Return) and isinstance(node.value, ast.BinOp)
          and isinstance(node.value.op, ast.Add) and isinstance(node.value.right, ast.List)):
        yield "drop", f"return {ast.unparse(node.value.left)}"


def mutants() -> list[Mutant]:
    out, unmatched = [], []
    for module, patterns in TARGETS.items():
        source = (PACKAGE / f"{module}.py").read_text()
        functions = list(_functions(ast.parse(source), patterns))
        unmatched += [f"{module}.{p}" for p in patterns
                      if not any(_names(name, p) for name, _ in functions)]
        for name, fn in functions:
            for node in ast.walk(fn):
                for operator, replacement in _changes(node):
                    out.append(Mutant(
                        module, name, operator,
                        ast.get_source_segment(source, node).split("\n")[0]
                        if operator == "drop" else ast.unparse(node),
                        (node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset),
                        replacement,
                    ))
    if unmatched:
        raise SystemExit(f"TARGETS patterns name no function: {unmatched}")
    return sorted(out, key=lambda m: (m.module, m.start, m.operator, m.replacement))


def mutated_source(m: Mutant) -> str:
    lines = (PACKAGE / f"{m.module}.py").read_text().splitlines(keepends=True)
    (l0, c0), (l1, c1) = m.start, m.end
    head, tail = lines[l0 - 1][:c0], lines[l1 - 1][c1:]
    return "".join(lines[:l0 - 1]) + head + m.replacement + tail + "".join(lines[l1:])


def killed(m: Mutant | None) -> bool:
    """Whether the tier-1 suite fails on a copy of src/ holding the mutant (None: no mutant)."""
    with tempfile.TemporaryDirectory(prefix="nonhaus-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if m is not None:
            (src / "nonhaus" / f"{m.module}.py").write_text(mutated_source(m))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors"],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return True  # a mutant that makes the suite hang is caught by any CI run
        return run.returncode != 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="list every mutant and run nothing")
    args = parser.parse_args(argv)
    every = mutants()
    for m in every:  # each must still parse, so that a test run measures the mutant
        ast.parse(mutated_source(m))
    unknown = set(EQUIVALENT) - {m.name for m in every}
    if unknown:
        raise SystemExit(f"EQUIVALENT names no mutant: {sorted(unknown)}")
    if args.list:
        for m in every:
            print(f"{m.module}.py:{m.start[0]} {m.operator} {m.name}")
        print(f"{len(every)} mutants")
        return 0
    if killed(None):  # else every mutant would count as killed
        raise SystemExit("the suite fails on an unmutated copy of src/; fix that first")
    survivors, unexplained = [], []
    with ThreadPoolExecutor(JOBS) as pool:
        for m, dead in zip(every, pool.map(killed, every)):
            if not dead:
                survivors.append(m)
            if not dead and m.name not in EQUIVALENT:
                unexplained.append(m)
                print(f"SURVIVED {m.module}.py:{m.start[0]} {m.operator} {m.name}", flush=True)
    print(f"{len(every)} mutants, {len(every) - len(survivors)} killed, "
          f"{len(survivors) - len(unexplained)} equivalent, {len(unexplained)} unexplained")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
