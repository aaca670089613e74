"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ivi-steady --seed 0 --seconds 20 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed.
``--trace 1`` runs a fixed amount of work twice, untraced and then with
every layer probed (see ``tracing.py``), and reports the per-layer
metrics.  The metric names and units are read from ``BENCHMARK.json``.
The last line of standard output is the result object; the lines before
it are a human-readable summary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

def metric_units(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def timed_run(workloads, name: str, seed: int, seconds: float):
    wl = workloads.WORKLOADS[name](seed)
    try:
        wl.prepare()
        gc.collect()
        result = wl.run(seconds=seconds)
    finally:
        wl.close()
    # Read the high-water mark before the checks and the sort below
    # allocate: they are the benchmark's, not the workload's.
    rss_kb = workloads.peak_rss_kb() + wl.extra_rss_kb()
    wl.finish_checks(result)
    throughput, p50, p90, samples = result.figures()
    metrics = {
        "throughput_ops_s": throughput,
        "latency_p50_us": p50 / 1e3,
        "latency_p90_us": p90 / 1e3,
        "setup_s": statistics.median(wl.setup_times),
        "peak_rss_mb": rss_kb / 1024,
    }
    print(f"{name} seed={seed}: {result.ops} ops in "
          f"{result.wall_ns / 1e9:.3f} s; latency quantiles over {samples} "
          f"samples ({samples - int(0.9 * samples)} beyond p90); "
          f"{len(wl.setup_times)} set-ups; error rate "
          f"{result.failed / max(result.attempted, 1):.6f}")
    return result, metrics


def traced_run(workloads, tracing, name: str, seed: int):
    wl = workloads.WORKLOADS[name](seed)
    budget = wl.TRACE_BUDGET
    try:
        # The untraced pass to compare against runs second, warm, on a
        # fresh build, as the traced pass will.
        passes = []
        for _ in range(2):
            wl.close()
            wl.prepare()
            gc.collect()
            passes.append(wl.run(budget=budget))
        wl.close()
        rec = tracing.SpanRecorder()
        uninstall = tracing.install(rec)
        try:
            # Rebuild under the probes: constructors capture bound methods.
            wl.prepare()
            before = wl.lsm_counters()
            gc.collect()
            traced = wl.run(budget=budget, rec=rec)
            passes.append(traced)
            extras = wl.layer_extras(before)
        finally:
            uninstall()
    finally:
        wl.close()
    metrics = tracing.layer_metrics(rec, traced.ops, extras)
    metrics["bench.trace_overhead_pct"] = \
        (rec.wall_ns / max(passes[1].wall_ns, 1) - 1) * 100
    coverage = metrics["bench.self_time_coverage"]
    covered = abs(coverage - 1) <= tracing.COVERAGE_TOLERANCE
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    rec.dump(os.path.join(out_dir, f"{name}.spans.csv"))
    print(f"{name} seed={seed}: traced {traced.ops} ops, {len(rec)} spans, "
          f"self-time coverage {coverage:.5f} (tolerance "
          f"{tracing.COVERAGE_TOLERANCE}), trace overhead "
          f"{metrics['bench.trace_overhead_pct']:.1f}%")
    if not covered:
        print("layer self times do not add up to the traced wall time")
    return passes, metrics, covered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under {SRC}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    started = time.perf_counter()
    if args.trace:
        runs, values, covered = traced_run(workloads, tracing,
                                           args.workload, args.seed)
        units = metric_units("per_layer")
    else:
        result, values = timed_run(workloads, args.workload, args.seed,
                                   args.seconds)
        runs = (result,)
        covered = True
        units = metric_units("end_to_end")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for run in runs:
        for note in run.notes:
            print(f"FAILED: {note}")
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}",
              file=sys.stderr)
        return 3
    print(f"run took {time.perf_counter() - started:.1f} s")
    print(json.dumps({
        "correct": failed == 0 and covered,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
