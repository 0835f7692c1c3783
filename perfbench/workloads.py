"""The workloads: seeded inputs, a closed loop, a correctness gate.

Engine workloads call ``SpArch.multiply(A, A)`` back to back on one
thread.  The first call is the set-up's warm-up: it is timed as set-up,
not as an operation, and its statistics and result digest are what every
timed call must reproduce.
Each call builds a fresh prefetcher, so the modelled prefetch buffer
starts empty every time.  After the loop, outside any timed region, the
last result is compared with scipy's ``A @ A`` and the statistics with a
reference: the committed one for the workload's default seed, otherwise
one run of the scalar engine on the same input.

``serve_hot`` warms an in-process ``SpGEMMService`` with every point of
its traffic population during set-up, then replays Zipf traffic from one
client in a closed loop.  (Two client threads spend most of their time
handing the interpreter lock to each other: on a 2-core host they served
2.5x fewer requests per second than one client, and their throughput
varied by a quarter between runs of one seed.)  Every response must be
ok and carry the same key and report summary the warm-up got for that
point; the check runs after the request's latency is taken.

Every operation (engine workloads) or batch of requests (``serve_hot``)
sits between two passes over :mod:`perfbench.hostspeed`'s kernels, and
every set-up likewise, so its time can be read at a reference host speed.

In a traced run the wrappers of :mod:`perfbench.layers` are installed
for every other operation or batch, so the traced and untraced
operations interleave and their ratio is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean
from typing import Callable

import numpy as np

from perfbench.hostspeed import HostClock
from perfbench.layers import all_probes
from perfbench.spans import Tracer

#: Cold set-ups per run, the measuring process's own included;
#: ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Timed operations an engine run makes even past its deadline.
MIN_TIMED_OPS = 4
SERVE_WORKERS = 2
SERVE_CORPUS = "smoke"
SERVE_ENGINES = ("sparch", "mkl", "heap")
SERVE_SKEW = 1.2
#: Requests generated per set-up; the client cycles through them.
SERVE_TRAFFIC = 20_000
#: Requests timed between two host-speed passes (~25 ms); in a traced
#: run every other batch is traced.
SERVE_BATCH = 200
#: Host-speed kernels read next to each workload's operations and
#: set-ups: the engine's mix of interpreter and array work, the serve
#: path's interpreter work alone.  (The array kernel followed the serve
#: path's slowdowns less closely than the interpreter kernel did.)
ENGINE_KERNELS = ("python", "numpy")
SERVE_KERNELS = ("python",)
SETUP_KERNELS = ("python", "numpy")
#: Kernel passes before and after each set-up; their medians scale it.
SETUP_KERNEL_REPEATS = 3

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_STATS = ROOT / "perfbench" / "reference_stats.json"

clock = time.perf_counter


@dataclass
class Measurement:
    """What one workload run observed.

    ``setup_seconds`` and ``normalised`` are host-normalised seconds (see
    :mod:`perfbench.hostspeed`); ``latencies`` are the same untraced
    operations' raw seconds, and ``scales`` the factors between them.
    """

    setup_seconds: list[float]
    latencies: list[float] = field(default_factory=list)
    normalised: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    #: Ok operations and their simulated multiplications, untraced only.
    timed_ok: int = 0
    timed_products: int = 0
    cycles: int = 0
    dram_bytes: int = 0
    ok_ops: int = 0
    attempted: int = 0
    failed: int = 0
    peak_rss_mib: float = 0.0
    gate_errors: list[str] = field(default_factory=list)
    traced_latencies: list[float] = field(default_factory=list)
    serve_counts: dict = field(default_factory=dict)

    def record(self, seconds: float, products: int | None,
               scale: float) -> None:
        """Add one untraced timed operation (``products`` None if failed)
        whose raw seconds times ``scale`` are its normalised seconds."""
        self.latencies.append(seconds)
        self.normalised.append(seconds * scale)
        self.scales.append(scale)
        if products is not None:
            self.timed_ok += 1
            self.timed_products += products

    @property
    def traced_ops(self) -> int:
        return len(self.traced_latencies)

    @property
    def trace_overhead_share(self) -> float:
        if not self.traced_latencies or not self.latencies:
            return 0.0
        return fmean(self.traced_latencies) / fmean(self.latencies) - 1.0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Engine workloads
# ----------------------------------------------------------------------
def _rmat_5000x4(seed: int):
    from repro.core.config import SpArchConfig
    from repro.matrices.rmat import RMATConfig, generate_rmat

    matrix = generate_rmat(RMATConfig(num_rows=5000, edge_factor=4,
                                      seed=seed))
    return matrix, SpArchConfig(engine="vectorized")


@dataclass(frozen=True)
class EngineWorkload:
    name: str
    default_seed: int
    build: Callable[[int], tuple]


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    default_seed: int


WORKLOADS = {
    "rmat_5000x4": EngineWorkload("rmat_5000x4", 5, _rmat_5000x4),
    "serve_hot": ServeWorkload("serve_hot", 23),
}


def stats_dict(stats) -> dict:
    """``SimulationStats`` as plain JSON values, for exact comparison."""
    return json.loads(json.dumps(stats.to_dict()))


def result_digest(matrix) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(tuple(matrix.shape)).encode())
    for array in (matrix.indptr, matrix.indices, matrix.data):
        digest.update(np.ascontiguousarray(array).data)
    return digest.hexdigest()


def scipy_product(matrix):
    """The oracle: scipy's ``A @ A`` in canonical CSR form."""
    import scipy.sparse as sp

    a = sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr),
                      shape=matrix.shape)
    product = (a @ a).tocsr()
    product.eliminate_zeros()
    product.sort_indices()
    return product


def check_product(result, reference) -> list[str]:
    """Exact structure and ``allclose`` values against the oracle."""
    if tuple(result.shape) != tuple(reference.shape):
        return [f"result shape {tuple(result.shape)} != {reference.shape}"]
    if not (np.array_equal(result.indptr, reference.indptr)
            and np.array_equal(result.indices, reference.indices)):
        return [f"result structure differs from scipy A @ A "
                f"(nnz {len(result.indices)} vs {reference.nnz})"]
    if not np.allclose(result.data, reference.data):
        worst = float(np.max(np.abs(result.data - reference.data)))
        return [f"result values differ from scipy A @ A (max |diff| {worst})"]
    return []


def check_stats(stats: dict, reference: dict, what: str) -> list[str]:
    differing = sorted(name for name in set(stats) | set(reference)
                       if stats.get(name) != reference.get(name))
    if differing:
        return [f"statistics differ from the {what} in {differing}"]
    return []


def committed_reference(workload: str, seed: int) -> dict | None:
    """The committed statistics for ``workload`` at ``seed``, if any."""
    references = json.loads(REFERENCE_STATS.read_text())
    entry = references.get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["stats"]


def scalar_reference(matrix, config) -> dict:
    """Statistics of one scalar-engine run: the repository's reference."""
    from repro.core.accelerator import SpArch

    return stats_dict(SpArch(config.replace(engine="scalar"))
                      .multiply(matrix, matrix).stats)


def write_reference_stats(path: Path = REFERENCE_STATS) -> None:
    """Commit the scalar engine's statistics for every default seed."""
    references = {}
    for workload in WORKLOADS.values():
        if isinstance(workload, EngineWorkload):
            matrix, config = workload.build(workload.default_seed)
            references[workload.name] = {
                "seed": workload.default_seed,
                "stats": scalar_reference(matrix, config)}
    path.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")


def setup_engine(workload: EngineWorkload, seed: int) -> tuple:
    """Input generation, construction and the warm-up multiply.

    Returns the matrix, config, accelerator and the warm-up's result, or
    the exception the warm-up raised.
    """
    from repro.core.accelerator import SpArch

    matrix, config = workload.build(seed)
    accelerator = SpArch(config)
    try:
        warm = accelerator.multiply(matrix, matrix)
    except Exception as exc:  # noqa: BLE001 — a failed operation is counted
        warm = exc
    return matrix, config, accelerator, warm


def run_engine(workload: EngineWorkload, seed: int, seconds: float,
               tracer: Tracer | None = None) -> Measurement:
    setup_seconds, (matrix, config, accelerator, warm) = timed_setup(
        workload, seed)
    run = Measurement([setup_seconds])
    probes = all_probes() if tracer is not None else []

    expected_stats = expected_digest = result = None
    run.attempted += 1
    if isinstance(warm, Exception):
        run.failed += 1
        run.gate_errors.append(f"warm-up multiply raised {warm!r}")
    else:
        result = warm
        expected_stats = stats_dict(result.stats)
        expected_digest = result_digest(result.matrix)

    host = HostClock(ENGINE_KERNELS)
    before = host.measure()
    deadline = clock() + seconds
    for index in itertools.count():
        if clock() >= deadline and index >= MIN_TIMED_OPS:
            break
        traced = tracer is not None and index % 2 == 1
        result = None
        run.attempted += 1
        try:
            with (tracer.installed(probes) if traced
                  else contextlib.nullcontext()):
                started = clock()
                result = accelerator.multiply(matrix, matrix)
                elapsed = clock() - started
        except Exception as exc:  # noqa: BLE001 — a failed operation
            run.failed += 1
            run.gate_errors.append(f"multiply raised {exc!r}")
            continue
        after = host.measure()
        scale, before = host.scale(before, after), after
        ok = (stats_dict(result.stats) == expected_stats
              and result_digest(result.matrix) == expected_digest)
        if traced:
            run.traced_latencies.append(elapsed)
        else:
            run.record(elapsed, result.stats.multiplications if ok else None,
                       scale)
        if not ok:
            run.failed += 1
            continue
        run.ok_ops += 1
    run.peak_rss_mib = peak_rss_mib()

    if result is not None and expected_stats is not None:
        run.cycles = result.stats.cycles * run.ok_ops
        run.dram_bytes = result.stats.dram_bytes * run.ok_ops
        errors = check_product(result.matrix, scipy_product(matrix))
        reference = committed_reference(workload.name, seed)
        what = "committed reference"
        if reference is None:
            reference, what = scalar_reference(matrix, config), \
                "scalar engine"
        errors += check_stats(expected_stats, reference, what)
        if errors:
            run.gate_errors += errors
            run.failed = run.attempted
    elif not run.gate_errors:
        run.gate_errors.append("no multiply completed")
    return run


# ----------------------------------------------------------------------
# serve_hot
# ----------------------------------------------------------------------
def _point(payload: dict) -> tuple:
    return payload["engine"], json.dumps(payload["scenario"], sort_keys=True)


def setup_serve(workload: ServeWorkload, seed: int) -> tuple:
    """Service construction, traffic generation and the store's warm-up."""
    from repro.experiments.runner import ExperimentRunner
    from repro.serve.service import ServeOptions, SpGEMMService
    from repro.serve.traffic import TrafficSpec, generate

    spec = TrafficSpec(corpus=SERVE_CORPUS, engines=SERVE_ENGINES,
                       skew=SERVE_SKEW, seed=seed)
    service = SpGEMMService(runner=ExperimentRunner(),
                            options=ServeOptions(workers=SERVE_WORKERS))
    warm = {_point(payload): service.request(payload)
            for payload in spec.population()}
    return service, warm, generate(spec, SERVE_TRAFFIC)


def run_serve(workload: ServeWorkload, seed: int, seconds: float,
              tracer: Tracer | None = None) -> Measurement:
    setup_seconds, (service, warm, requests) = timed_setup(workload, seed)
    run = Measurement([setup_seconds])
    run.attempted = len(warm)
    expected = {}
    for point, response in warm.items():
        if response.get("status") == "ok":
            expected[point] = (response["key"], response["summary"])
        else:
            run.failed += 1
            run.gate_errors.append(f"warm-up request {point} got {response}")
    probes = all_probes() if tracer is not None else []
    stats_before = service.stats()
    position = 0

    def serve_batch(traced: bool) -> list[tuple[float, int | None]]:
        """Closed loop: the next request goes out when the last returns.
        Returns each request's seconds and multiplications (None if it
        failed)."""
        nonlocal position
        batch = []
        for _ in range(SERVE_BATCH):
            payload = requests[position % len(requests)]
            position += 1
            started = clock()
            response = service.request(payload)
            elapsed = clock() - started
            run.attempted += 1
            want = expected.get(_point(payload))
            ok = (want is not None and response.get("status") == "ok"
                  and response.get("key") == want[0]
                  and response.get("summary") == want[1])
            if not ok:
                run.failed += 1
                batch.append((elapsed, None))
                continue
            summary = response["summary"]
            run.ok_ops += 1
            run.cycles += summary["cycles"]
            run.dram_bytes += summary["dram_bytes"]
            batch.append((elapsed, summary["multiplications"]))
        return batch

    host = HostClock(SERVE_KERNELS)
    before = host.measure()
    deadline = clock() + seconds
    for index in itertools.count():
        if clock() >= deadline and index >= 2:
            break
        traced = tracer is not None and index % 2 == 1
        with (tracer.installed(probes) if traced
              else contextlib.nullcontext()):
            batch = serve_batch(traced)
        after = host.measure()
        scale, before = host.scale(before, after), after
        for elapsed, products in batch:
            if traced:
                run.traced_latencies.append(elapsed)
            else:
                run.record(elapsed, products, scale)
    run.peak_rss_mib = peak_rss_mib()
    if run.failed:
        run.gate_errors.append(
            f"{run.failed} of {run.attempted} requests failed or returned "
            f"a report other than the warm-up's")

    stats_after = service.stats()

    def delta(part: str, name: str) -> int:
        return stats_after[part][name] - stats_before[part][name]

    store = {name: delta("runner", name)
             for name in ("hits", "misses", "coalesced")}
    lookups = sum(store.values())
    ops = max(len(run.latencies) + run.traced_ops, 1)
    run.serve_counts = {
        "serve.store.hits": store["hits"] / ops,
        "serve.store.misses": store["misses"] / ops,
        "serve.store.coalesced": store["coalesced"] / ops,
        "serve.store.hit_rate": ((store["hits"] + store["coalesced"])
                                 / lookups if lookups else 0.0),
        "serve.service.rejected": delta("service", "rejected") / ops,
        "serve.service.errors": delta("service", "errors") / ops,
        # A gauge over the service's life, warm-up included.
        "serve.service.peak_queued": stats_after["service"]["peak_queued"],
    }
    return run


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def import_program() -> None:
    """Import what the set-ups use, so the set-up clock leaves it out."""
    import repro.core.accelerator  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.matrices.rmat  # noqa: F401
    import repro.serve.service  # noqa: F401
    import repro.serve.traffic  # noqa: F401


def timed_setup(workload, seed: int) -> tuple[float, tuple]:
    """Run the workload's set-up once: its host-normalised seconds and
    what it built."""
    import_program()
    setup = (setup_engine if isinstance(workload, EngineWorkload)
             else setup_serve)
    host = HostClock(SETUP_KERNELS)
    before = host.measure(SETUP_KERNEL_REPEATS)
    started = clock()
    state = setup(workload, seed)
    seconds = clock() - started
    after = host.measure(SETUP_KERNEL_REPEATS)
    return seconds * host.scale(before, after), state


def scenarios_hashed() -> int:
    """Scenarios this process has built and fingerprinted so far."""
    from repro.corpus import spec

    return len(spec._FINGERPRINT_MEMO)


#: Runs one cold set-up in a fresh interpreter and prints its seconds and
#: the scenarios it hashed.
_COLD_SETUP = ("import json, sys\n"
               "from perfbench.workloads import WORKLOADS, scenarios_hashed, "
               "timed_setup\n"
               "seconds, _ = timed_setup(WORKLOADS[sys.argv[1]], "
               "int(sys.argv[2]))\n"
               "print(json.dumps([seconds, scenarios_hashed()]))")


def cold_setups(name: str, seed: int, repeats: int) -> list[tuple[float, int]]:
    """``repeats`` set-ups of workload ``name``, each in a fresh interpreter.

    A fresh interpreter starts with every process-wide memo empty, so each
    set-up does the same work as the first one in the measuring process.
    The program is imported before the set-up clock starts.  Returns
    ``(seconds, scenarios hashed)`` per set-up.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT), str(ROOT / "src"), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _COLD_SETUP, name, str(seed)], env=env,
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        seconds, hashed = json.loads(done.stdout.splitlines()[-1])
        samples.append((seconds, hashed))
    return samples


def run_workload(name: str, seed: int, seconds: float,
                 tracer: Tracer | None = None) -> Measurement:
    workload = WORKLOADS[name]
    if isinstance(workload, EngineWorkload):
        return run_engine(workload, seed, seconds, tracer)
    return run_serve(workload, seed, seconds, tracer)
