"""The benchmark's own checks: span arithmetic, wrapper hygiene, the gate
and the metric tables.  Small inputs only; no timing is asserted."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.layers import (
    ALL_WORKLOADS,
    END_TO_END,
    PER_LAYER,
    SELF_TIME_METRICS,
    all_probes,
    per_layer_metrics,
)
from perfbench.spans import (
    Span,
    Tracer,
    outermost_calls,
    self_seconds,
    self_seconds_by_name,
    write_chrome_trace,
    write_jsonl,
)
from perfbench.workloads import (
    WORKLOADS,
    EngineWorkload,
    ServeWorkload,
    check_product,
    check_stats,
    committed_reference,
    run_engine,
    run_serve,
    scalar_reference,
    scipy_product,
    stats_dict,
)

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(span_id, parent_id, name, start, end, root_id=1, thread=0):
    return Span(span_id, parent_id, root_id, name, start, end, thread)


def _small_rmat(seed: int):
    from repro.core.config import SpArchConfig
    from repro.matrices.rmat import RMATConfig, generate_rmat

    return (generate_rmat(RMATConfig(num_rows=256, edge_factor=4, seed=seed)),
            SpArchConfig(engine="vectorized"))


SMALL = EngineWorkload("small_rmat", 1, _small_rmat)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_of_nested_tree():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 1, "b", 5.0, 9.0),
        _span(4, 3, "c", 6.0, 7.0),
    ]
    own = self_seconds(spans)
    assert own == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 5.0),
        _span(3, 1, "a", 3.0, 7.0),
        _span(4, 1, "b", 9.0, 12.0),  # runs past its parent's end
    ]
    assert self_seconds(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_super_call_into_wrapped_base_method_counts_once():
    spans = [
        _span(1, None, "multiply", 0.0, 10.0),
        _span(2, 1, "setup", 1.0, 5.0),
        _span(3, 2, "setup", 2.0, 4.0),  # super().__init__ inside __init__
    ]
    by_name = self_seconds_by_name(spans)
    assert by_name == {"multiply": 6.0, "setup": 4.0}
    assert outermost_calls(spans) == {"multiply": 1, "setup": 1}


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _attributes() -> dict:
    return {(id(probe.owner), probe.attr): vars(probe.owner)[probe.attr]
            for probe in all_probes()}


def test_wrappers_restored_after_traced_engine_run():
    before = _attributes()
    tracer = Tracer("test")
    run = run_engine(SMALL, 1, 0.0, tracer)
    assert _attributes() == before
    assert run.failed == 0 and not run.gate_errors
    assert run.traced_ops >= 2
    names = {span.name for span in tracer.spans}
    assert {"core.accelerator.multiply", "core.prefetcher.simulate",
            "hardware.merge_tree.merge", "core.streamer.stream",
            "core.huffman.plan"} <= names

    values = per_layer_metrics(tracer.spans, tracer.counts,
                               traced_ops=run.traced_ops)
    engine_self = sum(values[metric] for span, metric
                      in SELF_TIME_METRICS.items()
                      if not span.startswith(("serve.", "experiments.",
                                              "metrics.", "corpus.")))
    assert engine_self == pytest.approx(values["bench.traced_op_s"])
    assert values["core.huffman.rounds"] >= 1
    assert values["memory.traffic.result_write_bytes"] > 0


def test_wrappers_restored_after_traced_serve_run(tmp_path):
    before = _attributes()
    tracer = Tracer("test")
    run = run_serve(ServeWorkload("small_serve", 23), 23, 0.0, tracer)
    assert _attributes() == before
    assert run.failed == 0 and not run.gate_errors
    assert {span.name for span in tracer.spans} >= {
        "serve.service.request", "experiments.runner.point_key",
        "serve.store.get_or_compute", "metrics.report.from_dict",
        "corpus.resolve"}
    assert run.serve_counts["serve.store.hit_rate"] == 1.0

    write_jsonl(tmp_path / "spans.jsonl", tracer.spans, tracer.run_id)
    write_chrome_trace(tmp_path / "trace.json", tracer.spans, tracer.run_id)
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == len(tracer.spans)
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert {event["ph"] for event in events} == {"X"}


def test_wrappers_restored_when_the_call_raises():
    from repro.core.accelerator import SpArch

    before = _attributes()
    tracer = Tracer("test")
    with pytest.raises(ValueError):
        with tracer.installed(all_probes()):
            a, _ = _small_rmat(1)
            SpArch().multiply(a, np.zeros(1))  # dimension mismatch
    assert _attributes() == before
    assert [span.name for span in tracer.spans] == ["core.accelerator.multiply"]


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def test_gate_accepts_the_engine_result():
    from repro.core.accelerator import SpArch

    matrix, config = _small_rmat(2)
    result = SpArch(config).multiply(matrix, matrix)
    assert check_product(result.matrix, scipy_product(matrix)) == []
    assert check_stats(stats_dict(result.stats),
                       scalar_reference(matrix, config), "scalar") == []


def test_gate_rejects_corrupted_values_structure_and_stats():
    from repro.core.accelerator import SpArch

    matrix, config = _small_rmat(2)
    result = SpArch(config).multiply(matrix, matrix)
    reference = scipy_product(matrix)

    result.matrix.data[3] *= 1.5
    assert check_product(result.matrix, reference)
    result.matrix.data[3] /= 1.5
    result.matrix.indices[0] += 1
    assert check_product(result.matrix, reference)

    stats = stats_dict(result.stats)
    corrupted = dict(stats, cycles=stats["cycles"] + 1)
    assert check_stats(corrupted, stats, "reference") == [
        "statistics differ from the reference in ['cycles']"]


def test_corrupted_engine_fails_every_operation(monkeypatch):
    from repro.core import accelerator

    original = accelerator.SpArch.multiply

    def corrupted(self, matrix_a, matrix_b):
        result = original(self, matrix_a, matrix_b)
        result.matrix.data[0] += 1.0
        return result

    monkeypatch.setattr(accelerator.SpArch, "multiply", corrupted)
    run = run_engine(SMALL, 1, 0.0)
    assert run.attempted >= 2
    assert run.failed == run.attempted
    assert any("scipy" in error for error in run.gate_errors)


def test_cold_setups_hash_every_scenario_each_time():
    from repro.serve.traffic import TrafficSpec

    from perfbench.workloads import (
        SERVE_CORPUS,
        SERVE_ENGINES,
        SERVE_SKEW,
        cold_setups,
    )

    spec = TrafficSpec(corpus=SERVE_CORPUS, engines=SERVE_ENGINES,
                       skew=SERVE_SKEW, seed=23)
    scenarios = {json.dumps(payload["scenario"], sort_keys=True)
                 for payload in spec.population()}
    samples = cold_setups("serve_hot", 23, 2)
    assert [hashed for _, hashed in samples] == [len(scenarios)] * 2
    assert all(seconds > 0 for seconds, _ in samples)


def test_committed_reference_matches_the_scalar_engine():
    workload = WORKLOADS["rmat_5000x4"]
    matrix, config = workload.build(workload.default_seed)
    committed = committed_reference(workload.name, workload.default_seed)
    assert committed == scalar_reference(matrix, config)
    assert committed_reference(workload.name, workload.default_seed + 1) \
        is None


# ----------------------------------------------------------------------
# Names and BENCHMARK.json
# ----------------------------------------------------------------------
def test_names_are_well_formed_and_unique():
    names = ([metric.name for metric in END_TO_END]
             + [metric.name for metric in PER_LAYER] + list(WORKLOADS))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_every_per_layer_metric_names_what_it_should_move():
    end_to_end = {metric.name for metric in END_TO_END}
    for metric in PER_LAYER:
        assert set(metric.workloads) <= set(ALL_WORKLOADS), metric.name
        assert set(metric.moves) <= end_to_end, metric.name
        assert metric.moves or metric.name.startswith("bench."), metric.name


def test_benchmark_json_matches_the_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rmat_5000x4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_end_to_end_metrics_and_tail():
    from perfbench.run import end_to_end_metrics, tail
    from perfbench.workloads import Measurement

    run = Measurement([0.3, 0.1, 0.2], cycles=600, dram_bytes=900,
                      ok_ops=20)
    run.record(0.5, None, 1.0)  # a failed operation's time counts, not
    for _ in range(9):          # its work
        run.record(0.2, 10, 0.5)  # host at twice its reference speed
    run.record(0.25, 10, 2.0)     # a slow call on a slow host
    values = end_to_end_metrics(run)
    assert values["setup_s"] == pytest.approx(0.2)
    assert run.normalised == pytest.approx([0.5] + [0.1] * 9 + [0.5])
    assert values["latency_ms_p50_norm"] == pytest.approx(100.0)
    assert values["requests_per_s_norm"] == pytest.approx(10 / 1.9)
    assert values["products_per_s_norm"] == pytest.approx(100 / 1.9)
    assert values["sim_cycles"] == 30 and values["sim_dram_bytes"] == 45
    assert set(values) == {metric.name for metric in END_TO_END}
    assert set(end_to_end_metrics(Measurement([0.1])).values()) == {0.0}

    assert tail([0.001] * 99) is None
    assert tail([0.001] * 989 + [0.002] * 10) == ("p90", 0.001)
    assert tail([0.001] * 990 + [0.002] * 10) == ("p99", 0.002)


def test_host_clock_scales_by_the_kernels_around_an_operation():
    from perfbench.hostspeed import REFERENCE_SECONDS, HostClock

    host = HostClock(("python", "numpy"))
    assert host.reference == pytest.approx(sum(REFERENCE_SECONDS.values()))
    # Kernels at twice their reference seconds: the host runs at half
    # speed, so an operation's normalised seconds are half its raw ones.
    assert host.scale(host.reference * 1.5, host.reference * 2.5) \
        == pytest.approx(0.5)
    assert host.measure(repeats=3) > 0
    assert HostClock(("python",)).reference == REFERENCE_SECONDS["python"]


def test_every_timed_operation_is_scaled():
    run = run_serve(WORKLOADS["serve_hot"], 23, 0.0)
    assert len(run.latencies) == len(run.normalised) == len(run.scales) > 0
    assert run.timed_ok == len(run.latencies) and run.failed == 0
    assert all(scale > 0 for scale in run.scales)
