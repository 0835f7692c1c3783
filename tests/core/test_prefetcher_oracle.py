"""Brute-force oracle for the row prefetcher's replacement policy (§II-D).

``RowPrefetcher.simulate`` has two implementations of one policy — the
Python loop (the reference) and the C kernel — that share their heap/FIFO
design, so a bug in that design would pass a C-vs-Python comparison.  The
oracle below shares no code with either: it keeps one priority record per
resident row and finds every victim by scanning all resident rows, in
O(accesses · lines) plus an O(accesses) scan per next-use query.

The policy, as documented in :mod:`repro.core.prefetcher`:

* An access of row ``r`` hits on the segments (buffer lines) of ``r``
  resident when it starts and fetches the others in ascending order.
  Before each fetched line, while the buffer is full, one line is spilled:
  the highest resident segment of the victim row.
* The victim is chosen among resident rows other than ``r``.  Rows whose
  priority is *unknown* go first, oldest priority first; otherwise the row
  whose known next use is furthest away.  Only when ``r`` is the only
  resident row (it is longer than the buffer) does ``r`` spill its own
  top segment.
* A row's priority is set when it is *touched*: at the end of each of its
  accesses, when a spill leaves it partially resident, and — for rows left
  resident by an earlier run — once before the first access, in ascending
  row order.  The priority is the row's next access after the touch, if it
  lies within ``window`` accesses of the touch, and unknown otherwise; it
  is not re-evaluated until the row's next touch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.prefetcher import RowPrefetcher
from repro.formats.csr import CSRMatrix

ELEMENT_BYTES = 12


def oracle(row_nnz: list[int], access: list[int], *, num_lines: int,
           line_elements: int, window: int,
           warm: dict[int, set[int]]) -> dict:
    """Simulate the documented policy by brute force."""
    def segments_of(row: int) -> int:
        return -(-row_nnz[row] // line_elements)

    def elements_in(row: int, segment: int) -> int:
        return min(line_elements, row_nnz[row] - segment * line_elements)

    resident = {row: set(segments) for row, segments in warm.items()}
    priority: dict[int, tuple] = {}
    touches = 0

    def touch(row: int, now: int) -> None:
        nonlocal touches
        touches += 1
        later = [t for t in range(now + 1, len(access)) if access[t] == row]
        if later and later[0] - now <= window:
            priority[row] = ("known", later[0], touches)
        else:
            priority[row] = ("unknown", touches)

    def victim(row: int) -> int:
        others = [other for other in resident if other != row]
        if not others:
            return row
        unknown = [other for other in others
                   if priority[other][0] == "unknown"]
        if unknown:
            return min(unknown, key=lambda other: priority[other][1])
        return max(others, key=lambda other: (priority[other][1],
                                              -priority[other][2]))

    for row in sorted(resident):
        touch(row, -1)
    lines_used = sum(len(segments) for segments in resident.values())
    totals = dict.fromkeys(
        ["element_hits", "element_misses", "segment_hits", "segment_misses",
         "evicted_lines", "dram_bytes_read", "bytes_without_buffer"], 0)
    miss_bytes, inserted = [], 0
    for now, row in enumerate(access):
        nnz = row_nnz[row]
        totals["bytes_without_buffer"] += nnz * ELEMENT_BYTES
        if segments_of(row) == 0:
            miss_bytes.append(0)
            continue
        held = set(resident.get(row, ()))
        hit_elements = sum(elements_in(row, s) for s in held)
        missing = [s for s in range(segments_of(row)) if s not in held]
        for segment in missing:
            while lines_used == num_lines:
                spilled = victim(row)
                resident[spilled].remove(max(resident[spilled]))
                if resident[spilled]:
                    touch(spilled, now)
                else:
                    del resident[spilled]
                lines_used -= 1
                totals["evicted_lines"] += 1
            resident.setdefault(row, set()).add(segment)
            lines_used += 1
            inserted += 1
        touch(row, now)
        totals["element_hits"] += hit_elements
        totals["element_misses"] += nnz - hit_elements
        totals["segment_hits"] += len(held)
        totals["segment_misses"] += len(missing)
        totals["dram_bytes_read"] += (nnz - hit_elements) * ELEMENT_BYTES
        miss_bytes.append((nnz - hit_elements) * ELEMENT_BYTES)
    return {"stats": {**totals, "accesses": len(access),
                      "per_access_miss_bytes": miss_bytes},
            "resident": resident, "lines_used": lines_used,
            "inserted": inserted}


@st.composite
def scenarios(draw):
    """Small matrices, buffers (rows may outgrow them), windows, warm starts."""
    row_nnz = draw(st.lists(st.integers(0, 12), min_size=1, max_size=8))
    num_lines = draw(st.integers(1, 6))
    line_elements = draw(st.integers(1, 5))
    access = draw(st.lists(st.integers(0, len(row_nnz) - 1),
                           min_size=1, max_size=40))
    window = draw(st.integers(0, len(access) + 1))
    warm: dict[int, set[int]] = {}
    free = num_lines
    for row, nnz in enumerate(row_nnz):
        segments = -(-nnz // line_elements)
        if not segments or not free or not draw(st.booleans()):
            continue
        # Any subset, not only prefixes: spills can leave {0, 1, 4}.
        chosen = draw(st.sets(st.integers(0, segments - 1), min_size=1,
                              max_size=min(free, segments)))
        warm[row] = chosen
        free -= len(chosen)
    return row_nnz, access, num_lines, line_elements, window, warm


def _matrix(row_nnz: list[int]) -> CSRMatrix:
    indptr = np.concatenate([[0], np.cumsum(row_nnz)]).astype(np.int64)
    indices = np.concatenate(
        [np.arange(nnz, dtype=np.int64) for nnz in row_nnz])
    return CSRMatrix(indptr, indices, np.ones(len(indices)),
                     (len(row_nnz), max(max(row_nnz), 1)))


@pytest.fixture(params=["python", "native"])
def kernel(request, monkeypatch):
    """Run ``simulate`` on the Python loop or on the C kernel."""
    if request.param == "python":
        monkeypatch.setattr(native, "LIB", None)
    elif native.LIB is None:
        pytest.skip(f"native kernels unavailable: {native.REASON}")
    return request.param


@given(scenario=scenarios())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_simulate_equals_brute_force_oracle(kernel, scenario):
    row_nnz, access, num_lines, line_elements, window, warm = scenario
    prefetcher = RowPrefetcher(_matrix(row_nnz), num_lines=num_lines,
                               line_elements=line_elements,
                               element_bytes=ELEMENT_BYTES,
                               lookahead_window=window)
    buffer = prefetcher.buffer
    for row, segments in warm.items():
        for segment in segments:
            buffer.insert(row, segment)
    warm_lines = buffer.lines_used

    stats = prefetcher.simulate(np.array(access, dtype=np.int64))
    want = oracle(row_nnz, access, num_lines=num_lines,
                  line_elements=line_elements, window=window, warm=warm)

    got = {name: getattr(stats, name) for name in want["stats"]}
    assert got == want["stats"]
    assert buffer.resident_map == want["resident"]
    assert buffer.lines_used == want["lines_used"]
    assert buffer.lines_used == (warm_lines + want["inserted"]
                                 - stats.evicted_lines)
    assert buffer.evictions == stats.evicted_lines
    assert buffer.segment_hits == stats.segment_hits
    assert buffer.segment_misses == stats.segment_misses


def test_over_long_row_leaves_a_non_prefix_resident(kernel):
    """A 5-line row through a 3-line buffer spills its own top lines."""
    prefetcher = RowPrefetcher(_matrix([5]), num_lines=3, line_elements=1,
                               element_bytes=ELEMENT_BYTES)
    stats = prefetcher.simulate(np.array([0]))
    assert prefetcher.buffer.resident_map == {0: {0, 1, 4}}
    assert stats.evicted_lines == 2


def test_out_of_range_access_names_the_access(kernel):
    prefetcher = RowPrefetcher(_matrix([1, 2]), num_lines=1,
                               line_elements=1)
    with pytest.raises(IndexError, match="access 2 reads row 2"):
        prefetcher.simulate(np.array([0, 1, 2]))
    with pytest.raises(IndexError, match="access 0 reads row -1"):
        prefetcher.simulate(np.array([-1]))
