"""Run one workload of the nonhaus benchmark and print its metrics.

    python3 bench/run.py --workload report --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each operation calls
``nonhaus.cli.main(argv)`` in this process, one at a time (one client, one
thread, closed loop), on files generated from the seed.  Whole passes over
the workload's fixed operation list repeat until --seconds have passed and
at least 40 operations were timed.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics, taken from a separate traced pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_OPS = 40  # the tail percentile needs ten samples beyond it
SETUP_RUNS = 7
IMPORT_RUNS = 5
MODULES = ("cli", "audit", "symmetry", "serialize", "lifting", "space", "projection",
           "thickened", "embedding", "figures")
WORKLOADS = ("report", "lifts", "fields", "thick")
# Median seconds of calibrate() on the reference machine (see README).
CALIB_REF_S = 0.0012


def tail_percentile(pass_len: int) -> int:
    """Highest whole percentile with ten samples beyond it in the smallest run."""
    n = pass_len * math.ceil(MIN_OPS / pass_len)
    return math.floor(100 * (n - 10) / n)


def nearest_rank(values: list[float], q: int) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q / 100 * len(ordered)) - 1]


def calibrate() -> float:
    """Seconds for a fixed slice of exact arithmetic and allocation, best of three.

    The host's cores change speed by up to a third from one second to the
    next; every time is scaled by CALIB_REF_S over this reading, taken just
    before and just after it, so runs on a slow and a fast moment agree.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 400):
            acc += Fraction(i, i + 7)
            seen[i] = (acc.numerator % 97, str(i))
        best = min(best, time.perf_counter() - t0)
    return best


def timed(run):
    """Seconds of run(), the host-speed scale factor around it, and its value."""
    before = calibrate()
    t0 = time.perf_counter()
    value = run()
    seconds = time.perf_counter() - t0
    return seconds, CALIB_REF_S / ((before + calibrate()) / 2), value


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "NONHAUS_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_interpreters(args: list[str], runs: int) -> list[tuple[float, float, str]]:
    """Seconds, host-speed scale and stderr of `runs` fresh interpreters,
    started one at a time; an extra first start, which may compile
    bytecode, is left out."""
    out = []
    for n in range(runs + 1):
        seconds, scale, proc = timed(lambda: subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
            text=True, check=True))
        if n:
            out.append((seconds, scale, proc.stderr))
    return out


def setup_seconds() -> float:
    runs = fresh_interpreters(["-c", "import nonhaus.cli"], SETUP_RUNS)
    return statistics.median(seconds * scale for seconds, scale, _ in runs)


def import_self_ms() -> dict[str, float]:
    """Median scaled self import time of each module, from -X importtime."""
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    for _, scale, stderr in fresh_interpreters(["-X", "importtime", "-c", "import nonhaus.cli"],
                                               IMPORT_RUNS):
        for line in stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s+nonhaus\.(\w+)$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1000 * scale)
    return {m: statistics.median(v) for m, v in samples.items()}


def run_pass(ops, tracer=None) -> dict:
    """One pass over the operation list: scaled latencies, raw seconds and exit codes."""
    for op in ops:
        if op.out:
            Path(op.out).unlink(missing_ok=True)
    gc.collect()
    cli = sys.modules["nonhaus.cli"]  # looked up now, so a traced main is used
    lat, raw, rcs = [], [], []
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op = idx
        seconds, scale, rc = timed(lambda: cli.main(op.argv))
        raw.append(seconds)
        lat.append(seconds * scale)
        rcs.append(rc)
    out_bytes = sum(Path(op.out).stat().st_size for op in ops if op.out and Path(op.out).exists())
    return {"lat": lat, "raw": raw, "rcs": rcs, "bytes": out_bytes}


def timed_passes(ops, seconds: float) -> list[dict]:
    passes: list[dict] = []
    start = time.perf_counter()
    while (not passes or time.perf_counter() - start < seconds
           or len(passes) * len(ops) < MIN_OPS):
        passes.append(run_pass(ops))
    return passes


def peak_memory_mb(ops, work: Path) -> float:
    """Largest peak resident set of a fresh interpreter running one operation,
    one operation per class."""
    peak_kb = 0
    seen = set()
    for n, op in enumerate(ops):
        if op.mem_class in seen:
            continue
        seen.add(op.mem_class)
        result = work / f"mem-{n}.json"
        subprocess.run([sys.executable, str(BENCH / "memchild.py"), str(result), *op.argv],
                       cwd=ROOT, env=child_env(), capture_output=True, check=True)
        rec = json.loads(result.read_text())
        if rec["rc"] != op.expect_rc and not op.known_fault:
            raise RuntimeError(f"memory pass: {op.argv} exited {rec['rc']}")
        peak_kb = max(peak_kb, rec["kb"])
    return peak_kb / 1024


def tally(ops, passes: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and errors of operations not allowed to fail."""
    attempted = failed = 0
    errors = []
    for p in passes:
        for op, rc in zip(ops, p["rcs"]):
            attempted += 1
            if rc == op.expect_rc:
                continue
            if op.known_fault:
                failed += 1
            else:
                errors.append(f"{' '.join(op.argv)} exited {rc}, expected {op.expect_rc}")
    if len({p["bytes"] for p in passes}) != 1:
        errors.append("passes wrote different numbers of bytes")
    return attempted, failed, errors


def end_to_end(wl, passes: list[dict], setup_s: float, peak_mb: float) -> dict[str, float]:
    lat = [x for p in passes for x in p["lat"]]
    items = sum(op.items for op in wl.ops)
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(len(wl.ops) / sum(p["lat"]) for p in passes),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * nearest_rank(lat, tail_percentile(len(wl.ops))),
        "peak_mem_mb": peak_mb,
        "output_bytes": passes[0]["bytes"],
        "items_per_s": statistics.median(items / sum(p["lat"]) for p in passes),
    }


def per_layer(wl, tracer, traced: dict, untraced_ops_per_s: float) -> dict[str, float]:
    from spans import COUNTED, FIELD_SPAN, SPAN_NAMES

    inclusive, self_total, root_total = tracer.layer_times()
    calls, counts = tracer.calls, tracer.counts
    ops = len(wl.ops)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.pct"] = 100 * inclusive.get(name, 0.0) / root_total
        out[f"{name}.self_pct"] = 100 * self_total.get(name, 0.0) / root_total
    for name in ("lifting.verify_lift_continuity", "lifting.extract_zero_set", FIELD_SPAN):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name, _, _ in COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0)
    for key in ("symmetry.deck_group.table_cells", "serialize.dumps.bytes",
                "serialize.loads.bytes", "lifting.enumerate_lifts.lifts",
                "lifting.extract_zero_set.triangles", "lifting.extract_zero_set.segments",
                "lifting.extract_zero_set.components", "thickened.thick_audit.grid_points",
                "thickened.thick_audit.covered"):
        out[key] = counts.get(key, 0)
    lifts = counts.get("lifting.enumerate_lifts.lifts", 0)
    triangles = counts.get("lifting.extract_zero_set.triangles", 0)
    out["audit.recheck_report.calls_per_op"] = calls.get("audit.recheck_report", 0) / ops
    out["lifting.verify_calls_per_lift"] = (
        calls.get("lifting.verify_lift_continuity", 0) / lifts if lifts else 0.0)
    out["lifting.extract_zero_set.segment_ratio"] = (
        counts.get("lifting.extract_zero_set.segments", 0) / triangles if triangles else 0.0)
    out["lifting.scans_per_field"] = (
        calls.get("lifting.extract_zero_set", 0) / len(tracer.seen_fields)
        if tracer.seen_fields else 0.0)
    for module, ms in import_self_ms().items():
        out[f"import.{module}.self_ms"] = ms
    traced_ops_per_s = ops / sum(traced["lat"])
    out["trace.op_ms"] = 1000 * sum(traced["lat"]) / ops
    out["trace.untraced_ops_per_s"] = untraced_ops_per_s
    out["trace.traced_ops_per_s"] = traced_ops_per_s
    out["trace.overhead_pct"] = 100 * (untraced_ops_per_s / traced_ops_per_s - 1)
    own = sum(tracer.self_times())
    out["trace.unattributed_pct"] = 100 * (sum(traced["raw"]) - own) / sum(traced["raw"])
    return out


def print_top_layers(wl, tracer) -> None:
    """Human-readable: largest self times over the pass and in its heaviest class."""
    by_class: dict[str, set[int]] = {}
    for idx, op in enumerate(wl.ops):
        by_class.setdefault(op.mem_class, set()).add(idx)
    own = tracer.self_times()
    class_time = {c: sum(own[i] for i, rec in enumerate(tracer.spans) if rec[1] in ids)
                  for c, ids in by_class.items()}
    heaviest = max(class_time, key=class_time.get)
    for label, ids in (("all operations", set(range(len(wl.ops)))),
                       (f"class {heaviest}", by_class[heaviest])):
        self_ms = tracer.op_self_times(ids)
        total = sum(self_ms.values())
        top = sorted(self_ms.items(), key=lambda kv: -kv[1])[:4]
        print(f"{wl.name}: largest self times, {label}: "
              + ", ".join(f"{name} {100 * s / total:.1f}%" for name, s in top))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    if not (SRC / "nonhaus" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'nonhaus'} not found; run from a checkout root")
    sys.path.insert(0, str(SRC))
    os.environ.pop("NONHAUS_SEED", None)
    import nonhaus.cli  # noqa: F401  (the program under test)
    from workloads import BUILDERS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer" if trace else "end_to_end"]
    work = BENCH / ".work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = 0.0 if trace else setup_seconds()
        wl = BUILDERS[name](seed, work, ROOT, sys.modules["nonhaus.cli"].main)
        if sys.modules["nonhaus.cli"].main(wl.warmup) != 0:
            raise RuntimeError(f"warm-up {wl.warmup} failed")
        passes = timed_passes(wl.ops, seconds)
        attempted, failed, errors = tally(wl.ops, passes)
        for op in wl.ops:
            errors += [f"{' '.join(op.argv)}: {e}" for e in op.check()]
        if trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(wl.ops, tracer)
            finally:
                tracer.uninstall()
            _, _, traced_errors = tally(wl.ops, [traced])
            errors += traced_errors
            tracer.write_jsonl(str(BENCH / ".work" / f"trace-{name}-{seed}.jsonl"))
            untraced = statistics.median(len(wl.ops) / sum(p["lat"]) for p in passes)
            values = per_layer(wl, tracer, traced, untraced)
            print_top_layers(wl, tracer)
        else:
            values = end_to_end(wl, passes, setup_s, peak_memory_mb(wl.ops, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"{name}: {attempted} operations attempted over {len(passes)} passes, "
          f"{failed} failed (known fault), {len(errors)} check failures")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    # Each workload in its own interpreter, so none inherits another's warm state.
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                              text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"  {name:7s} {metric:45s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
