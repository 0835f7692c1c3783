"""Host speed: fixed kernels timed next to the program's work.

The host this benchmark was built on (2 cores of a shared machine) runs
the same code up to 1.5x slower for stretches that last from seconds to
tens of minutes, and CPU time follows wall time, so raw times of two runs
do not compare.  A fixed kernel timed in the same process right before
and right after an operation slows down with the host; the operation's
time divided by it does not.  In one minute of rMAT 5000x4 multiplies,
the medians of 5-s stretches ranged from 0.83x to 1.30x of the minute's
median; the medians of the same multiplies divided by the kernel ranged
from 0.96x to 1.02x.

An operation's *host-normalised* seconds are its seconds times
``reference / kernel seconds``, with the kernel timed before and after
it and the two averaged: the time the operation takes when the host
runs the kernel in its reference seconds.  The kernels use only the
standard library and numpy, never the program, so no change to the
program can move them; work the program leaves running in the
background (a busy thread) would slow them too, and would not show.
"""

from __future__ import annotations

import hashlib
import json
import time
from statistics import median

import numpy as np

clock = time.perf_counter

_rng = np.random.default_rng(20200222)
_KEYS = _rng.integers(0, 1 << 40, size=60_000)
_VALUES = _rng.random(60_000)


def python_kernel() -> None:
    """Dicts, string formatting, JSON and hashing: the interpreter's work."""
    records = [{"engine": f"e{i % 3}",
                "scenario": {"name": f"s{i % 17}", "rows": i, "seed": 7 * i}}
               for i in range(1200)]
    keys = {hashlib.sha256(json.dumps(record, sort_keys=True).encode())
            .hexdigest(): record for record in records}
    sum(len(record["scenario"]) for record in keys.values())


def numpy_kernel() -> None:
    """Sort, run-length reduce and search: the merge's kind of array work."""
    order = np.argsort(_KEYS, kind="stable")
    keys, values = _KEYS[order], _VALUES[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    np.add.reduceat(values, starts)
    np.searchsorted(keys, _KEYS[:20_000])


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}
#: Seconds each kernel takes on the reference host state: the median on
#: the 2-core host the benchmark was built on.  They only fix the unit.
REFERENCE_SECONDS = {"python": 0.0105, "numpy": 0.013}


class HostClock:
    """Times ``kernels`` and turns operation seconds into normalised ones."""

    def __init__(self, kernels: tuple[str, ...]) -> None:
        self.kernels = tuple(KERNELS[name] for name in kernels)
        self.reference = sum(REFERENCE_SECONDS[name] for name in kernels)

    def measure(self, repeats: int = 1) -> float:
        """Median seconds of ``repeats`` passes over the kernels."""
        samples = []
        for _ in range(repeats):
            started = clock()
            for kernel in self.kernels:
                kernel()
            samples.append(clock() - started)
        return median(samples)

    def scale(self, before: float, after: float) -> float:
        """Factor from raw to normalised seconds for an operation timed
        between kernel passes of ``before`` and ``after`` seconds."""
        return self.reference / ((before + after) / 2.0)
