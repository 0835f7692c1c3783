"""What the benchmark measures: metrics, probes and per-layer arithmetic.

The tables here are the benchmark's definition; ``BENCHMARK.json`` at the
repository root lists the same names, units and directions, and a test
keeps the two equal.

An *operation* is one closed-loop call the workload times: one
``SpArch.multiply`` on the engine workloads, one
``SpGEMMService.request`` on ``serve_hot``.  Per-layer counts and seconds
are per traced operation, so runs of different lengths compare.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.spans import Probe, Span, outermost_calls, self_seconds_by_name

ENGINE_WORKLOADS = ("rmat_5000x4",)
SERVE_WORKLOADS = ("serve_hot",)
ALL_WORKLOADS = ENGINE_WORKLOADS + SERVE_WORKLOADS


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: tuple[str, ...]
    workloads: tuple[str, ...]


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median of 9 cold set-ups, the measuring process's and 8 in "
             "fresh interpreters, each timed after the program is "
             "imported: input generation, construction and the warm-up "
             "multiply (serve_hot: service construction, traffic "
             "generation and warm-up of every population point); "
             "host-normalised seconds"),
    EndToEnd("latency_ms_p50_norm", "ms", "lower", 0.2,
             "median host-normalised milliseconds per timed operation.  "
             "The first operation is the set-up's warm-up and is not "
             "timed"),
    EndToEnd("requests_per_s_norm", "1/s", "higher", 0.15,
             "ok operations over the host-normalised seconds of all timed "
             "operations, slow ones included"),
    EndToEnd("products_per_s_norm", "1/s", "higher", 0.15,
             "simulated multiplications of the ok operations over the "
             "host-normalised seconds of all timed operations; on "
             "serve_hot the multiplications of the reports served"),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.2,
             "process high-water mark after the timed loop, before the "
             "correctness gate"),
    EndToEnd("sim_cycles", "cycles", "lower", 0.1,
             "simulated cycles per operation (on serve_hot, of the report "
             "served); the model is unvalidated against hardware"),
    EndToEnd("sim_dram_bytes", "B", "lower", 0.1,
             "simulated DRAM bytes per operation, as sim_cycles"),
)

_E2E_ENGINE = ("latency_ms_p50_norm", "requests_per_s_norm",
               "products_per_s_norm")
_E2E_SERVE = ("requests_per_s_norm", "latency_ms_p50_norm")

PER_LAYER = (
    PerLayer("core.accelerator.self_s", "s", "lower", _E2E_ENGINE,
             ENGINE_WORKLOADS),
    PerLayer("core.prefetcher.simulate_s", "s", "lower", _E2E_ENGINE,
             ENGINE_WORKLOADS),
    PerLayer("core.prefetcher.accesses", "count", "lower", _E2E_ENGINE,
             ENGINE_WORKLOADS),
    PerLayer("core.prefetcher.evicted_lines", "count", "lower",
             ("sim_dram_bytes",), ENGINE_WORKLOADS),
    PerLayer("core.prefetcher.hit_rate", "share", "higher",
             ("sim_dram_bytes",), ENGINE_WORKLOADS),
    PerLayer("core.prefetcher.accesses_per_s", "1/s", "higher", _E2E_ENGINE,
             ENGINE_WORKLOADS),
    PerLayer("hardware.merge_tree.merge_s", "s", "lower", _E2E_ENGINE,
             ENGINE_WORKLOADS),
    PerLayer("hardware.merge_tree.calls", "count", "lower", _E2E_ENGINE,
             ENGINE_WORKLOADS),
    PerLayer("hardware.merge_tree.elements_in", "count", "lower",
             _E2E_ENGINE, ENGINE_WORKLOADS),
    PerLayer("hardware.merge_tree.elements_per_s", "1/s", "higher",
             _E2E_ENGINE, ENGINE_WORKLOADS),
    PerLayer("hardware.merge_tree.comparator_ops", "count", "lower",
             ("sim_cycles",), ENGINE_WORKLOADS),
    PerLayer("hardware.merge_tree.additions", "count", "lower",
             ("sim_cycles",), ENGINE_WORKLOADS),
    PerLayer("core.streamer.setup_s", "s", "lower",
             _E2E_ENGINE + ("peak_rss_mib",), ENGINE_WORKLOADS),
    PerLayer("core.streamer.stream_s", "s", "lower",
             _E2E_ENGINE + ("peak_rss_mib",), ENGINE_WORKLOADS),
    PerLayer("core.streamer.leaves", "count", "lower",
             _E2E_ENGINE + ("peak_rss_mib",), ENGINE_WORKLOADS),
    PerLayer("core.partial_matrix.result_write_s", "s", "lower",
             _E2E_ENGINE + ("peak_rss_mib",), ENGINE_WORKLOADS),
    PerLayer("core.partial_matrix.spill_read_s", "s", "lower",
             _E2E_ENGINE + ("peak_rss_mib",), ENGINE_WORKLOADS),
    PerLayer("core.partial_matrix.spill_write_s", "s", "lower",
             _E2E_ENGINE + ("peak_rss_mib",), ENGINE_WORKLOADS),
    PerLayer("core.huffman.plan_s", "s", "lower", _E2E_ENGINE,
             ENGINE_WORKLOADS),
    PerLayer("core.huffman.rounds", "count", "lower", ("sim_cycles",),
             ENGINE_WORKLOADS),
    *(PerLayer(f"memory.traffic.{category}_bytes", "B", "lower",
               ("sim_dram_bytes",), ENGINE_WORKLOADS)
      for category in ("matrix_a_read", "matrix_b_read", "partial_write",
                       "partial_read", "result_write")),
    PerLayer("experiments.runner.point_key_s", "s", "lower", _E2E_SERVE,
             SERVE_WORKLOADS),
    PerLayer("experiments.runner.run_engine_keyed_s", "s", "lower",
             _E2E_SERVE, SERVE_WORKLOADS),
    PerLayer("serve.service.request_s", "s", "lower", _E2E_SERVE,
             SERVE_WORKLOADS),
    PerLayer("serve.store.get_or_compute_s", "s", "lower", _E2E_SERVE,
             SERVE_WORKLOADS),
    PerLayer("serve.store.hits", "count", "higher", _E2E_SERVE,
             SERVE_WORKLOADS),
    PerLayer("serve.store.misses", "count", "lower", _E2E_SERVE,
             SERVE_WORKLOADS),
    PerLayer("serve.store.coalesced", "count", "higher", _E2E_SERVE,
             SERVE_WORKLOADS),
    PerLayer("serve.store.hit_rate", "share", "higher", _E2E_SERVE,
             SERVE_WORKLOADS),
    PerLayer("metrics.report.from_dict_s", "s", "lower", _E2E_SERVE,
             SERVE_WORKLOADS),
    PerLayer("corpus.resolve_s", "s", "lower", _E2E_SERVE,
             SERVE_WORKLOADS),
    PerLayer("serve.service.rejected", "count", "lower", _E2E_SERVE,
             SERVE_WORKLOADS),
    PerLayer("serve.service.errors", "count", "lower", _E2E_SERVE,
             SERVE_WORKLOADS),
    PerLayer("serve.service.peak_queued", "count", "lower", _E2E_SERVE,
             SERVE_WORKLOADS),
    PerLayer("bench.traced_op_s", "s", "lower", (), ALL_WORKLOADS),
    PerLayer("bench.trace_overhead_share", "share", "lower", (),
             ALL_WORKLOADS),
)

#: Span name -> per-layer metric holding that span's self time.
SELF_TIME_METRICS = {
    "core.accelerator.multiply": "core.accelerator.self_s",
    "core.prefetcher.simulate": "core.prefetcher.simulate_s",
    "hardware.merge_tree.merge": "hardware.merge_tree.merge_s",
    "core.streamer.setup": "core.streamer.setup_s",
    "core.streamer.stream": "core.streamer.stream_s",
    "core.partial_matrix.result_write": "core.partial_matrix.result_write_s",
    "core.partial_matrix.spill_read": "core.partial_matrix.spill_read_s",
    "core.partial_matrix.spill_write": "core.partial_matrix.spill_write_s",
    "core.huffman.plan": "core.huffman.plan_s",
    "serve.service.request": "serve.service.request_s",
    "experiments.runner.point_key": "experiments.runner.point_key_s",
    "experiments.runner.run_engine_keyed":
        "experiments.runner.run_engine_keyed_s",
    "serve.store.get_or_compute": "serve.store.get_or_compute_s",
    "metrics.report.from_dict": "metrics.report.from_dict_s",
    "corpus.resolve": "corpus.resolve_s",
}


# ----------------------------------------------------------------------
# Probes: the public callables each layer is timed through
# ----------------------------------------------------------------------
def _prefetch_counts(args, kwargs, stats) -> dict:
    return {"prefetch.accesses": stats.accesses,
            "prefetch.evicted_lines": stats.evicted_lines,
            "prefetch.element_hits": stats.element_hits,
            "prefetch.element_misses": stats.element_misses}


def _merge_counts(args, kwargs, result) -> dict:
    streams = args[1] if len(args) > 1 else kwargs["streams"]
    return {"merge.elements_in": sum(len(keys) for keys, _ in streams)}


def _plan_counts(args, kwargs, plan) -> dict:
    return {"huffman.rounds": len(plan.rounds)}


def _multiply_counts(args, kwargs, result) -> dict:
    stats = result.stats
    counts = {"merge.comparator_ops": stats.comparator_ops,
              "merge.additions": stats.additions}
    for category, num_bytes in stats.traffic.by_category().items():
        counts[f"traffic.{category}"] = num_bytes
    return counts


def engine_probes() -> list[Probe]:
    """Probes on the simulator's layers, one per defining class."""
    from repro.core import accelerator
    from repro.core.partial_matrix import PartialMatrixStore, PartialMatrixWriter
    from repro.core.prefetcher import RowPrefetcher
    from repro.core.streaming import StreamingLeafStreamer
    from repro.core.vectorized import VectorizedLeafStreamer, VectorizedMergeTree
    from repro.hardware.merge_tree import MergeTree

    probes = [
        Probe("core.accelerator.multiply", accelerator.SpArch, "multiply",
              _multiply_counts),
        Probe("core.huffman.plan", accelerator, "huffman_schedule",
              _plan_counts),
        Probe("core.prefetcher.simulate", RowPrefetcher, "simulate",
              _prefetch_counts),
        Probe("core.partial_matrix.result_write", PartialMatrixWriter,
              "write_result"),
        Probe("core.partial_matrix.spill_read", PartialMatrixStore, "read"),
        Probe("core.partial_matrix.spill_write", PartialMatrixStore, "write"),
    ]
    for tree in (MergeTree, VectorizedMergeTree):
        if "merge" in vars(tree):
            probes.append(Probe("hardware.merge_tree.merge", tree, "merge",
                                _merge_counts))
    streamer_calls = {"__init__": "core.streamer.setup",
                      "leaf_weights": "core.streamer.setup",
                      "bind_plan": "core.streamer.setup",
                      "leaf_access_order": "core.streamer.setup",
                      "leaf_stream": "core.streamer.stream"}
    for streamer in (accelerator._LeafStreamer, VectorizedLeafStreamer,
                     StreamingLeafStreamer):
        for attr, span in streamer_calls.items():
            if attr in vars(streamer):
                probes.append(Probe(span, streamer, attr))
    return probes


def serve_probes() -> list[Probe]:
    """Probes on the serve request path and the layers below it."""
    from repro.experiments.runner import ExperimentRunner
    from repro.metrics.report import CostReport
    from repro.serve import service
    from repro.serve.store import ReportStore

    return [
        Probe("serve.service.request", service.SpGEMMService, "request"),
        Probe("corpus.resolve", service, "resolve_scenario"),
        Probe("experiments.runner.point_key", ExperimentRunner, "point_key"),
        Probe("experiments.runner.run_engine_keyed", ExperimentRunner,
              "run_engine_keyed"),
        Probe("serve.store.get_or_compute", ReportStore, "get_or_compute"),
        Probe("metrics.report.from_dict", CostReport, "from_dict"),
    ]


def all_probes() -> list[Probe]:
    return engine_probes() + serve_probes()


# ----------------------------------------------------------------------
# Per-layer metrics from one traced run
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(spans: list[Span], counts: dict, *, traced_ops: int,
                      serve_counts: dict | None = None,
                      trace_overhead_share: float = 0.0) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric, per traced operation.

    Args:
        spans: spans of the traced operations.
        counts: counts the probes read off the calls.
        traced_ops: number of traced operations.
        serve_counts: store and service counters over the timed loop,
            per operation (``serve_hot`` only).
        trace_overhead_share: traced against untraced operation time.
    """
    ops = max(traced_ops, 1)
    own = self_seconds_by_name(spans)
    calls = outermost_calls(spans)
    values = {metric.name: 0.0 for metric in PER_LAYER}
    for span_name, metric in SELF_TIME_METRICS.items():
        values[metric] = own.get(span_name, 0.0) / ops

    simulate_s = own.get("core.prefetcher.simulate", 0.0)
    merge_s = own.get("hardware.merge_tree.merge", 0.0)
    accesses = counts.get("prefetch.accesses", 0)
    elements_in = counts.get("merge.elements_in", 0)
    hits = counts.get("prefetch.element_hits", 0)
    values.update({
        "core.prefetcher.accesses": accesses / ops,
        "core.prefetcher.evicted_lines":
            counts.get("prefetch.evicted_lines", 0) / ops,
        "core.prefetcher.hit_rate":
            _ratio(hits, hits + counts.get("prefetch.element_misses", 0)),
        "core.prefetcher.accesses_per_s": _ratio(accesses, simulate_s),
        "hardware.merge_tree.calls":
            calls.get("hardware.merge_tree.merge", 0) / ops,
        "hardware.merge_tree.elements_in": elements_in / ops,
        "hardware.merge_tree.elements_per_s": _ratio(elements_in, merge_s),
        "hardware.merge_tree.comparator_ops":
            counts.get("merge.comparator_ops", 0) / ops,
        "hardware.merge_tree.additions":
            counts.get("merge.additions", 0) / ops,
        "core.streamer.leaves": calls.get("core.streamer.stream", 0) / ops,
        "core.huffman.rounds": counts.get("huffman.rounds", 0) / ops,
    })
    for name, value in counts.items():
        if name.startswith("traffic."):
            values[f"memory.traffic.{name[len('traffic.'):]}_bytes"] = \
                value / ops
    for name, value in (serve_counts or {}).items():
        values[name] = value
    roots = [span for span in spans if span.parent_id is None]
    values["bench.traced_op_s"] = sum(span.seconds for span in roots) / ops
    values["bench.trace_overhead_share"] = trace_overhead_share
    return values
