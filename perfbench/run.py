"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload rmat_5000x4 --seed 5 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps the layers' public callables for every other
operation and reports the per-layer metrics, and writes the spans to
``perfbench/out/`` as JSONL and as Chrome trace-event JSON (opens in
Perfetto).  Either way the correctness gate runs, every metric is printed
by name with its unit, an environment stamp is printed and saved beside
the metrics, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``python3 perfbench/run.py --list`` prints the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import END_TO_END, PER_LAYER, per_layer_metrics  # noqa: E402
from perfbench.spans import Tracer, write_chrome_trace, write_jsonl  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SETUP_REPEATS,
    WORKLOADS,
    Measurement,
    cold_setups,
    run_workload,
    write_reference_stats,
)

OUT_DIR = ROOT / "perfbench" / "out"
#: Operations whose spans a traced run writes out; the metrics use all.
EXPORT_OPERATIONS = 2000


def tail(samples: list[float]) -> tuple[str, float] | None:
    """The highest of p99/p90 with at least ten samples beyond it."""
    ordered = sorted(samples)
    for name, share in (("p99", 0.99), ("p90", 0.90)):
        if len(ordered) * (1 - share) >= 10:
            return name, ordered[int(share * len(ordered))]
    return None


def end_to_end_metrics(run: Measurement) -> dict:
    """Host times are host-normalised (see :mod:`perfbench.hostspeed`):
    the median operation, and ok operations and their products over the
    seconds of all timed operations."""
    if not run.normalised:  # nothing untraced was timed
        return {metric.name: 0.0 for metric in END_TO_END}
    timed = sum(run.normalised)
    per_op = max(run.ok_ops, 1)
    return {
        "setup_s": median(run.setup_seconds),
        "latency_ms_p50_norm": 1000.0 * median(run.normalised),
        "requests_per_s_norm": run.timed_ok / timed,
        "products_per_s_norm": run.timed_products / timed,
        "peak_rss_mib": run.peak_rss_mib,
        "sim_cycles": run.cycles / per_op,
        "sim_dram_bytes": run.dram_bytes / per_op,
    }


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(ROOT),
    }


def list_everything() -> None:
    for name, workload in WORKLOADS.items():
        print(f"workload {name} (default seed {workload.default_seed})")
    for metric in END_TO_END:
        print(f"end_to_end {metric.name} [{metric.unit}] {metric.better} "
              f"bound {metric.bound}: {metric.meaning}")
    for metric in PER_LAYER:
        moves = ", ".join(metric.moves) or "-"
        print(f"per_layer {metric.name} [{metric.unit}] {metric.better}; "
              f"moves {moves} on {', '.join(metric.workloads)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print the workloads and metrics and exit")
    parser.add_argument("--write-references", action="store_true",
                        help="recompute perfbench/reference_stats.json "
                             "with the scalar engine and exit")
    args = parser.parse_args(argv)
    if args.list:
        list_everything()
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are missing "
              f"(no {ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_references:
        write_reference_stats()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    seed = (args.seed if args.seed is not None
            else WORKLOADS[args.workload].default_seed)
    load_start = _loadavg()
    run_id = f"{args.workload}-seed{seed}-{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else None
    run = run_workload(args.workload, seed, args.seconds, tracer)
    # A traced run reports no set-up time.
    cold = (cold_setups(args.workload, seed, SETUP_REPEATS - 1)
            if tracer is None else [])
    run.setup_seconds += [seconds for seconds, _ in cold]
    env = environment()
    env.update(loadavg_start=load_start, loadavg_end=_loadavg(),
               host_speed=(1.0 / median(run.scales) if run.scales
                           else None))

    if tracer is None:
        values = end_to_end_metrics(run)
        units = {metric.name: metric.unit for metric in END_TO_END}
    else:
        values = per_layer_metrics(
            tracer.spans, tracer.counts, traced_ops=run.traced_ops,
            serve_counts=run.serve_counts,
            trace_overhead_share=run.trace_overhead_share)
        units = {metric.name: metric.unit for metric in PER_LAYER}
    samples = len(run.latencies) + len(run.traced_latencies)
    print(f"workload {args.workload} seed {seed} trace {args.trace}: "
          f"{samples} timed operations, {run.traced_ops} traced, "
          f"{len(run.setup_seconds)} cold set-ups, scenarios hashed by the "
          f"fresh-interpreter ones {[hashed for _, hashed in cold]}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    tail_latency = tail(run.normalised)
    if tail_latency is not None:
        print(f"  latency_ms_{tail_latency[0]}_norm = "
              f"{tail_latency[1] * 1000.0:.6g} ms ({len(run.normalised)} "
              f"samples; not a JSON metric)")
    if run.latencies:
        print(f"  latency_ms_p50 = {median(run.latencies) * 1000.0:.6g} ms "
              f"raw, with the host at {env['host_speed']:.3g} of its "
              f"reference speed (not a JSON metric: it follows the host)")
    failed_share = run.failed / max(run.attempted, 1)
    print(f"  failed_share = {failed_share:.6g} ({run.failed} of "
          f"{run.attempted} operations)")
    for error in run.gate_errors:
        print(f"  gate: {error}")
    print("env " + json.dumps(env, sort_keys=True))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    if tracer is not None:
        roots = sorted(span.root_id for span in tracer.spans
                       if span.parent_id is None)[:EXPORT_OPERATIONS]
        last_root = roots[-1] if roots else 0
        exported = [span for span in tracer.spans
                    if span.root_id <= last_root]
        write_jsonl(OUT_DIR / f"{stem}.spans.jsonl", exported, run_id)
        write_chrome_trace(OUT_DIR / f"{stem}.trace.json", exported, run_id)
    result = {
        "correct": not run.gate_errors and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": seed,
         "seconds": args.seconds, "timed_operations": samples,
         "traced_operations": run.traced_ops,
         "latency_ms_p50": (median(run.latencies) * 1000.0
                            if run.latencies else None),
         "tail_latency_ms_norm": (
             None if tail_latency is None else
             {tail_latency[0]: tail_latency[1] * 1000.0}),
         "setup_seconds": run.setup_seconds,
         "failed_share": failed_share, "gate_errors": run.gate_errors,
         "env": env}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
