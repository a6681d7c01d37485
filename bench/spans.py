"""Layer spans for the traced run, installed from outside the package.

Each wrapped function is replaced in every ``nonhaus`` module namespace
that binds it, so calls made through ``from .x import f`` are caught as
well as calls through the defining module.  Spans stay in memory until
``write_jsonl``; counts are taken at the same call boundaries, after the
span has closed, so counting never inflates the span it describes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

# (span name, module, attribute); every call gets a span.
SPANNED = (
    ("cli.main", "nonhaus.cli", "main"),
    ("audit.run_audit", "nonhaus.audit", "run_audit"),
    ("audit.recheck_report", "nonhaus.audit", "recheck_report"),
    ("symmetry.deck_group", "nonhaus.symmetry", "deck_group"),
    ("symmetry.recheck_deck_group", "nonhaus.symmetry", "recheck_deck_group"),
    ("symmetry.contract_loop", "nonhaus.symmetry", "contract_loop"),
    ("symmetry.recheck_contraction", "nonhaus.symmetry", "recheck_contraction"),
    ("serialize.dumps", "nonhaus.serialize", "dumps"),
    ("serialize.loads", "nonhaus.serialize", "loads"),
    ("serialize.read_field", "nonhaus.serialize", "read_field"),
    ("serialize.read_pl_path", "nonhaus.serialize", "read_pl_path"),
    ("lifting.enumerate_lifts", "nonhaus.lifting", "enumerate_lifts"),
    ("lifting.verify_lift_continuity", "nonhaus.lifting", "verify_lift_continuity"),
    ("lifting.extract_zero_set", "nonhaus.lifting", "extract_zero_set"),
    ("lifting.attempt_homotopy_lift", "nonhaus.lifting", "attempt_homotopy_lift"),
    ("space.separation_report", "nonhaus.space", "separation_report"),
    ("projection.even_cover_certificate", "nonhaus.projection", "even_cover_certificate"),
    ("thickened.thick_audit", "nonhaus.thickened", "thick_audit"),
)

# Construction of a field (its __init__ runs the plateau scan) is a span too.
FIELD_SPAN = "lifting.HomotopyField"

# These are cheaper than a span, so they are only counted.
COUNTED = (
    ("space.open_contains", "nonhaus.space", "open_contains"),
    ("space.pseudo_dist", "nonhaus.space", "pseudo_dist"),
    ("projection.project", "nonhaus.projection", "project"),
    ("embedding.spiral_point", "nonhaus.embedding", "spiral_point"),
)

SPAN_NAMES = tuple(name for name, _, _ in SPANNED) + (FIELD_SPAN,)


def _count_result(counts: dict, seen_fields: set, name: str, args: tuple, result: Any) -> None:
    """Work counts recorded at the boundary of one call."""
    if name == "symmetry.deck_group":
        counts["symmetry.deck_group.table_cells"] += len(result.table) * len(result.table)
    elif name == "serialize.dumps":
        counts["serialize.dumps.bytes"] += len(result)  # ASCII JSON: one byte per char
    elif name == "serialize.loads":
        counts["serialize.loads.bytes"] += len(args[0])
    elif name == "lifting.enumerate_lifts":
        counts["lifting.enumerate_lifts.lifts"] += len(result)
    elif name == "lifting.extract_zero_set":
        field = args[0]
        # a cheap fingerprint: hashing every value would bill the parent span
        rows = field.values
        seen_fields.add((field.s_breaks, field.t_breaks, rows[0], rows[len(rows) // 2], rows[-1]))
        counts["lifting.extract_zero_set.triangles"] += (
            2 * (len(field.s_breaks) - 1) * (len(field.t_breaks) - 1)
        )
        counts["lifting.extract_zero_set.segments"] += len(result.segments)
        counts["lifting.extract_zero_set.components"] += len(result.components)
    elif name == "thickened.thick_audit":
        counts["thickened.thick_audit.grid_points"] += result.total
        counts["thickened.thick_audit.covered"] += result.covered


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self) -> None:
        # one span: [name, op id, start, end, parent span index or None]
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.seen_fields: set = set()
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _spanned(self, name: str, fn: Callable) -> Callable:
        spans, stack, calls = self.spans, self._stack, self.calls
        counts, seen = self.counts, self.seen_fields

        def wrapper(*args, **kwargs):
            rec = [name, self.op, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            calls[name] += 1
            _count_result(counts, seen, name, args, return_value)
            return return_value

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original: Any, replacement: Any) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nonhaus" or mod_name.startswith("nonhaus.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for name, mod_name, attr in SPANNED:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self._spanned(name, original))
        for name, mod_name, attr in COUNTED:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self._counted(name, original))
        field_cls = sys.modules["nonhaus.lifting"].HomotopyField
        init = field_cls.__init__
        self._undo.append((field_cls, "__init__", init))
        field_cls.__init__ = self._spanned(FIELD_SPAN, init)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [rec[3] - rec[2] for rec in self.spans]
        for rec in self.spans:
            if rec[4] is not None:
                own[rec[4]] -= rec[3] - rec[2]
        return own

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], float]:
        """Inclusive and self seconds per span name, and the total root time.

        A span nested inside a span of the same name is not added to the
        inclusive total again.
        """
        own = self.self_times()
        inclusive: dict[str, float] = defaultdict(float)
        self_total: dict[str, float] = defaultdict(float)
        root_total = 0.0
        for idx, rec in enumerate(self.spans):
            name = rec[0]
            self_total[name] += own[idx]
            parent = rec[4]
            if parent is None:
                root_total += rec[3] - rec[2]
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][4]
            if parent is None:
                inclusive[name] += rec[3] - rec[2]
        return inclusive, self_total, root_total

    def op_self_times(self, ops: set[int]) -> dict[str, float]:
        """Self seconds per span name, restricted to the given operation ids."""
        own = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for idx, rec in enumerate(self.spans):
            if rec[1] in ops:
                out[rec[0]] += own[idx]
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, (name, op, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "op": op, "start": start,
                                     "end": end, "parent": parent}) + "\n")
