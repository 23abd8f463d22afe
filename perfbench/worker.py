"""One benchmark process: set up a workload, run timed passes, check outputs.

Started by ``run.py`` as a fresh interpreter, so its set-up time covers the
interpreter start, the imports of the program and the input generation. It
writes one JSON result file and prints nothing on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_program():
    """Import seqnet from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import seqnet

    if src.resolve() not in Path(seqnet.__file__).resolve().parents:
        raise ImportError(f"seqnet was imported from {seqnet.__file__}, not {src}")


def _layer_metrics(workload, spans, work, span_cost):
    import tracing
    from workloads import LAYER_METRICS, common_layer_metrics

    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    metrics.update(common_layer_metrics(spans, work))
    for layer, seconds in tracing.self_times(spans).items():
        if f"self.{layer}_s" in metrics:
            metrics[f"self.{layer}_s"] = seconds
    metrics.update(workload.layer_metrics(spans, work))
    root = next(s for s in spans if s["parent"] is None)
    wall = root["end"] - root["start"]
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
    metrics["trace.wall_s"] = wall
    metrics["trace.coverage"] = top / wall
    metrics["trace.overhead_s"] = span_cost * len(spans)
    return metrics


def run_passes(workload, budget: float, traced: bool, run_id: str):
    """Run passes, all traced or all untraced, until the budget is spent;
    at least one."""
    from workloads import Recorder

    walls, traced_spans, fingerprints = [], [], []
    calls = failed = 0
    out = None
    start = time.perf_counter()
    while True:
        rec = Recorder(f"{run_id}-{len(walls)}" if traced else None)
        out = None
        t0 = time.perf_counter()
        try:
            with rec.tracer.span(f"{workload.name}.pass", "bench"):
                out = workload.run(rec)
        finally:
            calls += rec.calls
            failed += rec.failed
        walls.append(time.perf_counter() - t0)
        fingerprints.append(workload.fingerprint(out))
        if traced:
            traced_spans.append(rec.spans)
        if time.perf_counter() - start + statistics.median(walls) > budget:
            break
    return out, walls, traced_spans, fingerprints, calls, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    _import_program()
    import lineage
    from workloads import LAYER_METRICS, WORKLOADS

    kind = WORKLOADS[args.workload]
    data = lineage.generate(args.seed, kind.scale)
    workload = kind(data, Path(args.workdir), args.seed)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return 0

    try:
        out, walls, traced_spans, fingerprints, calls, failed = run_passes(
            workload, args.budget, bool(args.trace), f"{args.workload}-{args.seed}-{os.getpid()}"
        )
    except Exception:
        traceback.print_exc()
        result["error"] = traceback.format_exc(limit=3)
        Path(args.out).write_text(json.dumps(result))
        return 1
    # read the high-water mark before the checks allocate anything
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    work, checks, f1 = workload.inspect(out)
    checks = {name: bool(ok) for name, ok in checks.items()}
    checks["work_counts_repeat"] = all(f == fingerprints[0] for f in fingerprints)
    result.update({
        "walls": walls,
        "calls": calls,
        "failed_calls": failed,
        "checks": checks,
        "work": work,
        "f1_macro": f1,
        "peak_kb": peak_kb,
        "n": workload.data.n,
        "length": lineage.LENGTH,
        "class_counts": workload.data.class_counts(),
    })
    if traced_spans:
        import tracing

        span_cost = tracing.span_cost()
        per_pass = [_layer_metrics(workload, s, work, span_cost) for s in traced_spans]
        result["layers"] = {
            name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
        result["spans"] = [s for spans in traced_spans for s in spans]
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
