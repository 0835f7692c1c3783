"""Registry behind ``BENCH_results.json`` (see ``benchmarks/conftest.py``).

Lives in its own uniquely-named module (not ``conftest``) so speed tests can
``import bench_results`` without colliding with the ``tests/`` conftest when
the whole repository is collected in one pytest run.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import contextmanager
from typing import Iterator

#: Soft-fail switch for shared CI runners: report the shortfall, don't flake.
SOFT_ENV = "REPRO_BENCH_SOFT"

#: Explicitly recorded results (speed tests that do their own timing).
RECORDED: dict[str, dict] = {}


def enforce_threshold(message: str) -> None:
    """Fail on a missed speedup threshold, or warn when soft mode is on.

    With ``REPRO_BENCH_SOFT=1`` (shared CI runners) the shortfall is
    reported as a warning instead of a failure; the measured numbers still
    land in ``BENCH_results.json`` either way.
    """
    if os.environ.get(SOFT_ENV) == "1":
        warnings.warn(f"soft-fail ({SOFT_ENV}=1): {message}", stacklevel=2)
    else:
        raise AssertionError(message)


def record_result(name: str, **metrics: float) -> None:
    """Record one named measurement for ``BENCH_results.json``.

    Speed tests that time both backends themselves (rather than through the
    ``benchmark`` fixture) call this with their wall-clock seconds and
    speedup ratios, e.g. ``record_result("baseline_speed[MKL]",
    scalar_seconds=…, vectorized_seconds=…, speedup=…)``.
    """
    RECORDED[name] = {key: float(value) for key, value in metrics.items()}


@contextmanager
def timed_calls(owner: type, name: str) -> Iterator[list[float]]:
    """Collect the wall seconds of every call of ``owner.name`` in the block.

    Speed tests use it to record one phase's seconds (e.g. the prefetcher's
    ``RowPrefetcher.simulate``) next to the end-to-end number.
    """
    seconds: list[float] = []
    original = vars(owner)[name]

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - start)

    setattr(owner, name, timed)
    try:
        yield seconds
    finally:
        setattr(owner, name, original)
