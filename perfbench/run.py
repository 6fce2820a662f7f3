"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload explain_cold --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``BENCHMARK.json``).  A table of every metric,
with units and sample counts, precedes the result; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exits 2, printing no result, when the package
sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("explain_cold", "serve_mixed")

#: End-to-end metrics: name -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "explain_latency_p50_ms": "ms",
    "ask_latency_p50_ms": "ms",
    "ask_latency_p95_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "audit_agreement_rate": "ratio",
}


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers
    from perfbench.workloads import WORKLOADS, Bench

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    bench = Bench(seed=args.seed, seconds=args.seconds, traced=bool(args.trace), work_dir=work_dir)
    if bench.traced:
        layers.instrument_package(bench.tracer)
    try:
        result = WORKLOADS[args.workload](bench)
    finally:
        bench.tracer.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    requests = max(result.requests, 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": statistics.median(result.setup_s),
        **result.timings,
        "peak_rss_mb": peak_rss_mb,
        "audit_agreement_rate": 1.0 - result.mismatches / max(result.audited, 1),
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for note in result.notes:
        print(f"  {note}")
    if bench.probes:
        print(f"  host speed: CPU probe p50={statistics.median(bench.probes) * 1000.0:.3f}ms "
              f"(min {min(bench.probes) * 1000.0:.3f}ms, n={len(bench.probes)}); "
              "the same code reads slower when this is higher")
    for name, value in end_to_end.items():
        print(f"  {name:28s} {value:12.3f} {END_TO_END_UNITS[name]}")
    print(f"  {'setup_s samples':28s} {' '.join(f'{s:.3f}' for s in result.setup_s)}")
    print(f"  {'untimed first set-up':28s} {result.warmup_s:12.3f} s (warms the process; not in setup_s)")
    print(f"  {'llm_calls_per_request':28s} {result.model_calls / requests:12.3f} 1/req")
    print(f"  {'store_kb_written_per_request':28s} {result.store_bytes / 1024.0 / requests:12.3f} KB/req")
    print(f"  {'error_rate':28s} {result.failed / max(result.attempted, 1):12.4f} "
          f"({result.failed} of {result.attempted})")
    print(f"  {'audit_mismatch_rate':28s} {result.mismatches / max(result.audited, 1):12.4f} "
          f"({result.mismatches} of {result.audited} audited answers)")
    for text in result.disagreements:
        print(f"  audit disagreement: {text}")

    problems = list(result.problems)
    if bench.traced:
        spans = bench.tracer.spans
        problems.extend(layers.trace_problems(spans, result.seen))
        values = layers.layer_metrics(spans, result.seen)
        units = {name: unit for name, (unit, _, _) in layers.PER_LAYER.items()}
        print(f"  per layer, over {result.seen.requests} traced requests:")
        for name, value in values.items():
            unit, _, moves = layers.PER_LAYER[name]
            print(f"    {name:34s} {value:14.3f} {unit:7s} moves {moves}")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        bench.tracer.dump(str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        values, units = end_to_end, END_TO_END_UNITS
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more problems")
    print(json.dumps({
        "correct": not problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
