"""MatB row prefetcher with near-optimal buffer replacement (§II-D, Fig. 9).

Matrix condensing destroys the right operand's reuse: one condensed column
touches many different rows of B.  The prefetcher restores the reuse with an
on-chip row buffer whose replacement policy approximates Bélády's optimal
policy — it can, because the future access order is *known*: it is exactly
the original-column sequence of the left-matrix elements streaming through
the look-ahead FIFO.

Replacement policy, as in the paper:

* the victim is the buffered row whose next use is furthest in the future;
* rows whose next use lies beyond the look-ahead window are indistinguishable
  from rows that are never used again, and are preferred as victims (oldest
  first among them);
* rows are spilled line by line, so a long row can be partially evicted and
  the resident remainder still produces hits later (Figure 9, step 7→8).

The simulation runs at *segment* (buffer line) granularity and reports the
DRAM bytes read for matrix B, the hit rate, and the eviction count.  Its
general loop runs as the C kernel of :mod:`repro.core.native` when that
loaded, and otherwise as :meth:`RowPrefetcher._simulate_loop`, the Python
reference; both give identical statistics and buffer state.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core import native
from repro.core.lookahead import UNKNOWN_NEXT_USE
from repro.formats.csr import CSRMatrix
from repro.memory.buffer import RowBuffer


@dataclass
class PrefetchStats:
    """Outcome of simulating the prefetcher over one access sequence."""

    accesses: int = 0
    element_hits: int = 0
    element_misses: int = 0
    segment_hits: int = 0
    segment_misses: int = 0
    evicted_lines: int = 0
    dram_bytes_read: int = 0
    bytes_without_buffer: int = 0
    per_access_miss_bytes: list[int] = field(default_factory=list, repr=False)

    @property
    def hit_rate(self) -> float:
        """Element-granularity buffer hit rate (the paper reports 62%)."""
        total = self.element_hits + self.element_misses
        return self.element_hits / total if total else 0.0

    @property
    def traffic_reduction(self) -> float:
        """How much DRAM read traffic of matrix B the buffer removed."""
        if self.dram_bytes_read == 0:
            return float("inf") if self.bytes_without_buffer else 1.0
        return self.bytes_without_buffer / self.dram_bytes_read


class RowPrefetcher:
    """Simulates the MatB row prefetcher over a known access sequence.

    Args:
        matrix_b: right operand in CSR format.
        num_lines: prefetch buffer lines (1024 in Table I).
        line_elements: elements per buffer line (48 in Table I).
        element_bytes: bytes per buffered element (12 in Table I).
        lookahead_window: look-ahead FIFO depth in elements (8192 in Table I).
    """

    def __init__(self, matrix_b: CSRMatrix, *, num_lines: int = 1024,
                 line_elements: int = 48, element_bytes: int = 12,
                 lookahead_window: int = 8192) -> None:
        self._matrix_b = matrix_b
        self._buffer = RowBuffer(num_lines, line_elements, element_bytes)
        self._lookahead_window = lookahead_window
        self._row_nnz = matrix_b.nnz_per_row()

    @property
    def buffer(self) -> RowBuffer:
        """The underlying row buffer (for occupancy/area accounting)."""
        return self._buffer

    # ------------------------------------------------------------------
    def _row_segments(self, row: int) -> int:
        return self._buffer.segments_for_row(int(self._row_nnz[row]))

    def _segment_elements(self, row: int, segment: int) -> int:
        """Number of real elements stored in segment ``segment`` of ``row``."""
        nnz = int(self._row_nnz[row])
        full = self._buffer.line_elements
        start = segment * full
        return max(0, min(full, nnz - start))

    def _segment_bytes(self, row: int, segment: int) -> int:
        return self._segment_elements(row, segment) * self._buffer.element_bytes

    # ------------------------------------------------------------------
    def simulate(self, access_sequence: np.ndarray) -> PrefetchStats:
        """Run the access sequence through the buffer and collect statistics.

        Args:
            access_sequence: right-matrix row index required by each
                successive left-matrix element (multiplier consumption order).

        Returns:
            :class:`PrefetchStats` with hit rates and DRAM byte counts.
        """
        access_sequence = np.ascontiguousarray(access_sequence, dtype=np.int64)
        stats = PrefetchStats()
        if len(access_sequence) == 0:
            return stats
        num_rows = len(self._row_nnz)
        if (int(access_sequence.min()) < 0
                or int(access_sequence.max()) >= num_rows):
            position = int(np.flatnonzero((access_sequence < 0)
                                          | (access_sequence >= num_rows))[0])
            raise IndexError(
                f"access {position} reads row {int(access_sequence[position])}"
                f" of a {num_rows}-row right operand")

        # Per-row geometry, precomputed once: segment count and size of the
        # (possibly short) last segment.  The per-access loop then runs in
        # O(resident + missing) instead of re-deriving them per segment.
        full = self._buffer.line_elements
        row_nnz = self._row_nnz
        num_segments_arr = (-(-row_nnz // full)).astype(np.int64)
        last_elements_arr = row_nnz - (np.maximum(num_segments_arr, 1) - 1) * full

        # Fast path: when the buffer starts empty and every accessed row fits
        # simultaneously, the near-Bélády policy never evicts, so the whole
        # simulation collapses to "first touch misses, repeats hit" — exactly
        # computable with one first-occurrence mask and no replacement heap.
        if self._buffer.lines_used == 0:
            touched = np.zeros(num_rows, dtype=bool)
            touched[access_sequence] = True
            distinct_rows = np.flatnonzero(touched)
            if int(num_segments_arr[distinct_rows].sum()) <= self._buffer.num_lines:
                return self._simulate_unbounded(access_sequence, distinct_rows,
                                                num_segments_arr, stats)

        if native.LIB is not None:
            inserted_lines = self._simulate_native(
                access_sequence, num_segments_arr, last_elements_arr, stats)
        else:
            inserted_lines = self._simulate_loop(
                access_sequence, num_segments_arr, last_elements_arr, stats)
        stats.accesses = len(access_sequence)
        self._buffer.record_hit(stats.segment_hits)
        self._buffer.record_miss(stats.segment_misses)
        self._buffer.apply_policy_effects(inserted_lines=inserted_lines,
                                          evicted_lines=stats.evicted_lines)
        return stats

    def _simulate_native(self, access_sequence: np.ndarray,
                         num_segments_arr: np.ndarray,
                         last_elements_arr: np.ndarray,
                         stats: PrefetchStats) -> int:
        """The replacement loop in C (:mod:`repro.core.native`).

        Residency crosses the boundary as one byte per row segment, laid
        out by the prefix sum of the segment counts: resident segments are
        not always a prefix of their row (an over-long row evicts its own
        top segments while it is fetched, and a warm start can leave any
        set).  Fills ``stats`` and ``resident_map`` exactly as
        :meth:`_simulate_loop` does and returns the inserted line count.
        """
        seg_offset = np.zeros(len(num_segments_arr) + 1, dtype=np.int64)
        np.cumsum(num_segments_arr, out=seg_offset[1:])
        resident = np.zeros(int(seg_offset[-1]), dtype=np.uint8)
        resident_map = self._buffer.resident_map
        resident[[int(seg_offset[row]) + segment
                  for row, segments in resident_map.items()
                  for segment in segments]] = 1
        miss_bytes, counters = native.prefetch_simulate(
            access_sequence, num_segments_arr,
            np.ascontiguousarray(self._row_nnz, dtype=np.int64),
            np.ascontiguousarray(last_elements_arr, dtype=np.int64),
            seg_offset, resident,
            line_elements=self._buffer.line_elements,
            element_bytes=self._buffer.element_bytes,
            window=self._lookahead_window,
            lines_free=self._buffer.lines_free)
        (stats.element_hits, stats.element_misses, stats.segment_hits,
         stats.segment_misses, stats.evicted_lines, stats.dram_bytes_read,
         stats.bytes_without_buffer, inserted_lines) = counters
        stats.per_access_miss_bytes = miss_bytes.tolist()

        lines = np.flatnonzero(resident)
        rows = np.searchsorted(seg_offset, lines, side="right") - 1
        resident_map.clear()
        for row, segment in zip(rows.tolist(),
                                (lines - seg_offset[rows]).tolist()):
            segments = resident_map.get(row)
            if segments is None:
                resident_map[row] = {segment}
            else:
                segments.add(segment)
        return inserted_lines

    def _simulate_loop(self, access_sequence: np.ndarray,
                       num_segments_arr: np.ndarray,
                       last_elements_arr: np.ndarray,
                       stats: PrefetchStats) -> int:
        """The replacement loop in Python: the reference for the C kernel.

        Fills ``stats``, mutates the buffer's ``resident_map`` and returns
        the number of lines inserted; the caller reconciles the buffer's
        counters.
        """
        full = self._buffer.line_elements
        element_bytes = self._buffer.element_bytes
        row_nnz = self._row_nnz
        initially_resident = sorted(self._buffer.resident_rows)

        # Next occurrence of the same row after each position, vectorized: a
        # stable argsort groups positions by row in ascending order, so a
        # position's successor within its group is its next use.  This
        # covers the per-access priority refresh; the irregular queries
        # (victim refresh, warm start) binary-search the same grouping via
        # ``next_use`` below, replacing the eager per-row distance lists of
        # :class:`~repro.core.lookahead.DistanceListBuilder` whose O(n)
        # construction dominated short simulations.
        n = len(access_sequence)
        grouped = np.argsort(access_sequence, kind="stable")
        next_occurrence = np.full(n, -1, dtype=np.int64)
        same_row = access_sequence[grouped[1:]] == access_sequence[grouped[:-1]]
        next_occurrence[grouped[:-1][same_row]] = grouped[1:][same_row]
        window = self._lookahead_window

        row_ranges: dict[int, tuple[int, int]] = {}

        def build_row_ranges() -> None:
            rows_in_order = access_sequence[grouped]
            starts = np.flatnonzero(np.concatenate(
                [np.ones(1, dtype=bool),
                 rows_in_order[1:] != rows_in_order[:-1]]))
            ends = np.append(starts[1:], n)
            row_ranges.update(zip(rows_in_order[starts].tolist(),
                                  zip(starts.tolist(), ends.tolist())))
            row_ranges[-1] = (0, 0)  # sentinel: mapping is built

        def next_use(row: int, now: int) -> float:
            """Next access of ``row`` strictly after ``now``, window-limited.

            Same contract as ``DistanceListBuilder.next_use``; the per-row
            position lists are slices of ``grouped`` found by binary search.
            """
            if not row_ranges:
                build_row_ranges()
            lo_hi = row_ranges.get(row)
            if lo_hi is None:
                return UNKNOWN_NEXT_USE
            lo, hi = lo_hi
            index = lo + int(np.searchsorted(grouped[lo:hi], now, side="right"))
            if index == hi:
                return UNKNOWN_NEXT_USE
            position = int(grouped[index])
            if position - now > window:
                return UNKNOWN_NEXT_USE
            return float(position)

        # Lazy max-heap of eviction candidates.  Priority is the next-use
        # position (smaller = needed sooner = keep); rows with unknown next
        # use get a large priority offset plus their insertion age so the
        # oldest unknown row is evicted first.  heapq is a min-heap, so
        # priorities are inverted.  All priorities are integers (positions or
        # ``unknown_base``-offset ages), so each entry packs
        # ``(max_priority - priority, stamp)`` into one machine int — integer
        # comparisons during sifting are several times cheaper than the
        # tuple comparisons they replace, at identical ordering: lower key ⇔
        # higher priority, ties broken by older stamp, exactly as before.
        unknown_base = len(access_sequence) + 1
        max_priority = 3 * unknown_base  # > unknown_base + (unknown_base + 1)
        stamp_shift = 40                 # stamps stay far below 2**40
        stamp_mask = (1 << stamp_shift) - 1
        counter = itertools.count()
        advance = counter.__next__
        heap: list[int] = []
        # Unknown-next-use candidates never outrank each other out of push
        # order: their priority ``unknown_base + (unknown_base - now)``
        # strictly decreases as time advances, and every unknown priority
        # exceeds every known one (positions are < unknown_base).  The
        # unknown class is therefore an exact FIFO and lives in a deque —
        # O(1) instead of a heap sift per push, which matters because most
        # refreshes fall outside the look-ahead window under pressure.
        unknown_fifo: deque[tuple[int, int]] = deque()
        stamp_rows: list[int] = []
        latest_stamp: dict[int, int] = {}
        heappush = heapq.heappush
        heappop = heapq.heappop

        def push_candidate(row: int, now: int) -> None:
            use = next_use(row, now)
            stamp = advance()
            latest_stamp[row] = stamp
            stamp_rows.append(row)
            if use == UNKNOWN_NEXT_USE:
                unknown_fifo.append((stamp, row))
            else:
                heappush(heap,
                         ((max_priority - int(use)) << stamp_shift) | stamp)

        resident_get_view = self._buffer.resident_segments_view

        def pop_victim(exclude_row: int) -> int:
            # Unknown-class candidates (oldest first) always outrank the
            # known-next-use heap, exactly as in the single-heap ordering.
            while unknown_fifo:
                stamp, row = unknown_fifo[0]
                if (latest_stamp.get(row) != stamp
                        or not resident_get_view(row)):
                    unknown_fifo.popleft()
                    continue
                if row == exclude_row:
                    unknown_fifo.popleft()
                    push_later.append(row)
                    continue
                return row
            while heap:
                stamp = heap[0] & stamp_mask
                row = stamp_rows[stamp]
                if (latest_stamp.get(row) != stamp
                        or not resident_get_view(row)):
                    heappop(heap)
                    continue
                if row == exclude_row:
                    # Never spill the row we are currently fetching; fall back
                    # to the next candidate.
                    heappop(heap)
                    push_later.append(row)
                    continue
                return row
            # Degenerate case: the row being fetched is longer than the whole
            # buffer, so its own earlier segments are the only candidates.
            if resident_get_view(exclude_row):
                return exclude_row
            raise RuntimeError("no eviction candidate available")

        # Rows left resident by an earlier simulate() call (warm start) must
        # be eviction candidates too, or they could never be replaced.
        for row in initially_resident:
            push_candidate(row, -1)

        # Local bindings and plain-int lists: the loop below runs once per
        # access, so attribute lookups and numpy scalar boxing dominate it
        # unless hoisted out.
        buffer = self._buffer
        resident_map = buffer.resident_map
        resident_get = resident_map.get
        nseg_list = num_segments_arr.tolist()
        nnz_list = row_nnz.tolist()
        last_elements_list = last_elements_arr.tolist()
        next_occ_list = next_occurrence.tolist()
        lines_free = buffer.lines_free
        stamp_rows_append = stamp_rows.append
        unknown_append = unknown_fifo.append
        per_access_miss_bytes = stats.per_access_miss_bytes
        element_hits = element_misses = segment_hits = segment_misses = 0
        dram_bytes_read = bytes_without_buffer = inserted_lines = 0

        for now, row in enumerate(access_sequence.tolist()):
            num_segments = nseg_list[row]
            row_elements = nnz_list[row]
            bytes_without_buffer += row_elements * element_bytes

            if num_segments == 0:
                per_access_miss_bytes.append(0)
                continue

            resident = resident_get(row)
            num_resident = len(resident) if resident is not None else 0
            if num_resident == num_segments:
                num_missing = 0
                hit_elements = row_elements
                miss_bytes = 0
            else:
                if num_resident:
                    missing = [s for s in range(num_segments) if s not in resident]
                    # All resident segments are full lines except possibly
                    # the row's last one, so the hit count is a closed form.
                    hit_elements = full * num_resident
                    if num_segments - 1 in resident:
                        hit_elements -= full - last_elements_list[row]
                else:
                    missing = list(range(num_segments))
                    hit_elements = 0
                num_missing = len(missing)
                miss_bytes = (row_elements - hit_elements) * element_bytes

                # Insert/evict straight on the residency mapping; the
                # buffer's counters are reconciled once after the loop via
                # apply_policy_effects().
                push_later: list[int] = []
                for segment in missing:
                    # Make room line by line, spilling the furthest-next-use
                    # row (its highest-numbered resident segment first).
                    while lines_free == 0:
                        victim = pop_victim(exclude_row=row)
                        victim_segments = resident_map[victim]
                        victim_segments.remove(max(victim_segments))
                        if victim_segments:
                            push_candidate(victim, now)
                        else:
                            del resident_map[victim]
                        lines_free += 1
                        stats.evicted_lines += 1
                    segments = resident_get(row)
                    if segments is None:
                        resident_map[row] = {segment}
                    else:
                        segments.add(segment)
                    lines_free -= 1
                    inserted_lines += 1
                for deferred_row in push_later:
                    push_candidate(deferred_row, now)

            element_hits += hit_elements
            element_misses += row_elements - hit_elements
            segment_hits += num_segments - num_missing
            segment_misses += num_missing
            dram_bytes_read += miss_bytes
            per_access_miss_bytes.append(miss_bytes)
            # The row was just touched: refresh its eviction priority using
            # the precomputed next-occurrence table (inlined push_candidate).
            stamp = advance()
            latest_stamp[row] = stamp
            stamp_rows_append(row)
            next_position = next_occ_list[now]
            if next_position < 0 or next_position - now > window:
                unknown_append((stamp, row))
            else:
                heappush(heap,
                         ((max_priority - next_position) << stamp_shift) | stamp)

        stats.element_hits = element_hits
        stats.element_misses = element_misses
        stats.segment_hits = segment_hits
        stats.segment_misses = segment_misses
        stats.dram_bytes_read = dram_bytes_read
        stats.bytes_without_buffer = bytes_without_buffer
        return inserted_lines

    def _simulate_unbounded(self, access_sequence: np.ndarray,
                            distinct_rows: np.ndarray,
                            num_segments_arr: np.ndarray,
                            stats: PrefetchStats) -> PrefetchStats:
        """Eviction-free simulation (everything fits), fully vectorized.

        Produces byte-for-byte the same :class:`PrefetchStats` and final
        buffer state as the general replacement loop would when no eviction
        ever fires.
        """
        element_bytes = self._buffer.element_bytes
        access_nnz = self._row_nnz[access_sequence]
        access_segments = num_segments_arr[access_sequence]
        first_touch = np.zeros(len(access_sequence), dtype=bool)
        _, first_positions = np.unique(access_sequence, return_index=True)
        first_touch[first_positions] = True

        total_elements = int(access_nnz.sum())
        miss_elements = int(access_nnz[first_touch].sum())
        stats.accesses = len(access_sequence)
        stats.bytes_without_buffer = total_elements * element_bytes
        stats.element_misses = miss_elements
        stats.element_hits = total_elements - miss_elements
        stats.segment_misses = int(access_segments[first_touch].sum())
        stats.segment_hits = int(access_segments.sum()) - stats.segment_misses
        stats.dram_bytes_read = miss_elements * element_bytes
        stats.per_access_miss_bytes = np.where(
            first_touch, access_nnz * element_bytes, 0).tolist()

        self._buffer.record_hit(stats.segment_hits)
        self._buffer.record_miss(stats.segment_misses)
        for row in distinct_rows.tolist():
            for segment in range(int(num_segments_arr[row])):
                self._buffer.insert(row, segment)
        return stats

    def simulate_without_buffer(self, access_sequence: np.ndarray) -> PrefetchStats:
        """Model the no-prefetcher case: every access re-reads its full row."""
        access_sequence = np.asarray(access_sequence, dtype=np.int64)
        stats = PrefetchStats()
        element_bytes = self._buffer.element_bytes
        for row in access_sequence:
            row_elements = int(self._row_nnz[int(row)])
            row_bytes = row_elements * element_bytes
            stats.accesses += 1
            stats.element_misses += row_elements
            stats.segment_misses += self._row_segments(int(row))
            stats.dram_bytes_read += row_bytes
            stats.bytes_without_buffer += row_bytes
            stats.per_access_miss_bytes.append(row_bytes)
        return stats
