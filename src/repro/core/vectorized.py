"""Batched metadata and accounting shared by the fast SpArch engine.

The scalar backend walks the multiply/merge hot path one Python object at a
time: :meth:`~repro.hardware.multiplier_array.MultiplierArray.multiply_column`
loops over left-matrix elements and the merge tree runs a pairwise stable
tournament with one ``argsort`` per node pair.  Both are faithful to the
hardware structure but dominate the simulation runtime.

The fast engine (``SpArchConfig.engine`` ``"vectorized"`` or its alias
``"streaming"``) computes *exactly* the same functional result and *exactly*
the same statistics with batched numpy kernels.  This module holds its
size-independent halves; the bounded execution on top of them lives in
:mod:`repro.core.streaming`:

* :class:`VectorizedLeafStreamer` — groups the left operand's elements by
  merge-plan leaf once (O(nnz(A)) metadata), keeps the multiplier counters
  as prefix sums, and generates the partial products of any set of
  elements with ``np.repeat`` + fancy indexing (one gather instead of one
  Python iteration per left element);
* :class:`VectorizedMergeTree` — replays the pairwise tournament's cycle,
  comparator-operation and per-layer traffic counters in closed form from
  the input stream *lengths*, without moving any elements, and leaves the
  functional merge+fold to the subclass.

Why the results are bit-identical to the scalar backend:

* A pairwise tournament of stable two-way merges over the input list is a
  bottom-up stable mergesort, which orders equal keys by original stream
  position — exactly what a stable ``argsort`` over the concatenation
  produces.  Since the merged element order matches, the duplicate folds —
  :func:`~repro.core.fastpath.fold_sorted_runs`, which sums each run with
  the association of ``np.add.reduceat``, the kernel
  :class:`~repro.hardware.adder.AdderSlice` uses for the scalar tree —
  reduce the same value sequences with the same association and produce
  the same IEEE-754 results.
* Partial products are generated by multiplying the same operand pairs in
  the same order (``value * B[k, c]``), only batched.
* Every counter the scalar model accumulates per element or per node pair is
  a function of the stream lengths only, so it can be summed directly.

``tests/integration/test_engine_equivalence.py`` enforces the equivalence
over synthetic + rMAT matrices and every ablation combination.
"""

from __future__ import annotations

import numpy as np

from repro.core.condensing import (
    original_column_partial_sizes,
    partial_matrix_sizes,
)
from repro.core.fastpath import row_offsets
from repro.formats.condensed import CondensedMatrix
from repro.formats.convert import csr_to_csc
from repro.formats.csr import CSRMatrix
from repro.formats.keys import linear_key_dtype
from repro.hardware.merge_tree import MergeTree
from repro.hardware.multiplier_array import MultiplierArray


class VectorizedLeafStreamer:
    """Leaf metadata and batched product generation for the fast engine.

    Exposes the scalar leaf streamer's metadata interface (``num_leaves``,
    ``leaf_weights``, ``leaf_a_elements``, ``leaf_access_order``) but
    pre-groups the left operand's elements by merge-plan leaf once, so each
    query is a constant number of numpy gathers.  ``__init__`` builds only
    this O(nnz(A)) metadata — element boundaries, left operand arrays in
    leaf order, per-element product counts and multiplier-cycle prefix
    sums; :class:`~repro.core.streaming.StreamingLeafStreamer` adds
    ``leaf_stream`` on top of :meth:`_generate_products`.

    Args:
        matrix_a: left operand in CSR format.
        matrix_b: right operand in CSR format.
        multipliers: multiplier array whose activity counters are kept in
            sync with the scalar backend.
        condensing: whether a leaf is a condensed column (True) or an
            original column (False).
    """

    def __init__(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix,
                 multipliers: MultiplierArray, *, condensing: bool) -> None:
        self._matrix_a = matrix_a
        self._matrix_b = matrix_b
        self._multipliers = multipliers
        self._condensing = condensing
        self._b_row_nnz = matrix_b.nnz_per_row()
        self._condensed = CondensedMatrix(matrix_a) if condensing else None
        self._csc = csr_to_csc(matrix_a) if not condensing else None

        if condensing:
            # Group the stored elements by condensed column in one pass: the
            # condensed column of element p (row-major storage order) is its
            # offset within its row, and a stable sort by that offset keeps
            # rows ascending within each group — the column fetcher's order.
            row_lengths = matrix_a.nnz_per_row()
            offsets_in_row = row_offsets(matrix_a.indptr)
            order = np.argsort(offsets_in_row, kind="stable")
            num_cc = self._condensed.num_condensed_columns
            counts = np.bincount(offsets_in_row, minlength=max(num_cc, 1))
            # Element boundaries of each leaf within the leaf-grouped order.
            self._elem_starts = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts[:num_cc])])
            left_rows = np.repeat(
                np.arange(matrix_a.num_rows, dtype=np.int64), row_lengths)[order]
            left_cols = matrix_a.indices[order]
            left_vals = matrix_a.data[order]
            self._leaf_columns = list(range(num_cc))
        else:
            occupied = np.unique(matrix_a.indices)
            self._leaf_columns = [int(c) for c in occupied]
            # Leaf-grouped element order is exactly CSC storage order (empty
            # columns contribute no elements, so the occupied columns'
            # ranges tile the whole array).
            csc = self._csc
            self._elem_starts = np.append(csc.indptr[occupied],
                                          np.int64(csc.nnz))
            left_rows = csc.indices
            left_cols = np.repeat(np.arange(matrix_a.num_cols, dtype=np.int64),
                                  csc.nnz_per_col())
            left_vals = csc.data

        self._left_rows = left_rows
        self._left_cols = left_cols
        self._left_vals = left_vals
        # Per-element product counts and per-leaf product boundaries.  When
        # the (row, col) keyspace fits in 32 bits the keys are built as
        # int32: the per-round stable sorts run noticeably faster and the
        # key values (hence all downstream results) are unchanged; the
        # promotion rule lives in repro.formats.keys.
        counts = self._b_row_nnz[left_cols]
        self._counts = counts
        self._key_dtype = linear_key_dtype(matrix_a.num_rows,
                                           matrix_b.num_cols)
        prod_ends = np.cumsum(counts)
        products_before = np.concatenate([np.zeros(1, dtype=np.int64),
                                          prod_ends])
        self._prod_starts = products_before[self._elem_starts]
        # Multiplier-cycle prefix sums over the leaf-grouped elements, so
        # the per-leaf counter updates are O(1) lookups.
        throughput = multipliers.throughput
        self._cycles_prefix = np.concatenate(
            [np.zeros(1, dtype=np.int64),
             np.cumsum((counts + throughput - 1) // throughput)])

    # ------------------------------------------------------------------
    def _generate_products(self, elem_idx: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Partial products of the given leaf-grouped element positions.

        Each element's products are ``value * B[col, :]`` with keys
        ``row * num_cols + B column`` — independent per element, so any
        batching (all elements at once, one chunk of leaves, a single
        leaf) produces identical bits.
        """
        matrix_b = self._matrix_b
        counts = self._counts[elem_idx]
        prod_ends = np.cumsum(counts)
        total = int(prod_ends[-1]) if len(prod_ends) else 0
        gather = (np.arange(total, dtype=np.int64)
                  + np.repeat(matrix_b.indptr[self._left_cols[elem_idx]]
                              - (prod_ends - counts), counts))
        key_dtype = self._key_dtype
        row_keys = (self._left_rows[elem_idx]
                    * matrix_b.num_cols).astype(key_dtype, copy=False)
        keys = (np.repeat(row_keys, counts)
                + matrix_b.indices[gather].astype(key_dtype, copy=False))
        vals = (np.repeat(self._left_vals[elem_idx], counts)
                * matrix_b.data[gather])
        return keys, vals

    # ------------------------------------------------------------------
    @property
    def condensed(self) -> CondensedMatrix | None:
        return self._condensed

    @property
    def num_leaves(self) -> int:
        return len(self._leaf_columns)

    @property
    def leaf_columns(self) -> list[int]:
        """Column index (condensed or original) backing every leaf."""
        return list(self._leaf_columns)

    # ------------------------------------------------------------------
    def leaf_weights(self) -> np.ndarray:
        """Estimated partial-matrix size of every leaf (Huffman weights)."""
        if self._condensing:
            return partial_matrix_sizes(self._condensed, self._matrix_b)
        sizes = original_column_partial_sizes(self._matrix_a, self._matrix_b)
        return sizes[self._leaf_columns]

    def leaf_a_elements(self, leaf: int) -> int:
        """Left-matrix elements the column fetcher reads for this leaf."""
        return int(self._elem_starts[leaf + 1] - self._elem_starts[leaf])

    def leaf_access_order(self, leaf: int) -> np.ndarray:
        """Right-matrix rows needed by this leaf, in consumption order."""
        start, stop = self._elem_starts[leaf], self._elem_starts[leaf + 1]
        return self._left_cols[start:stop].copy()

    def _record_leaf_counters(self, leaf: int) -> None:
        """Multiplier activity, identical to the scalar per-element updates."""
        start, stop = self._prod_starts[leaf], self._prod_starts[leaf + 1]
        stats = self._multipliers.stats
        stats.left_elements += self.leaf_a_elements(leaf)
        stats.multiplications += int(stop - start)
        stats.cycles += int(self._cycles_prefix[self._elem_starts[leaf + 1]]
                            - self._cycles_prefix[self._elem_starts[leaf]])


class VectorizedMergeTree(MergeTree):
    """Merge tree whose activity counters are replayed in closed form.

    :meth:`merge` validates the input streams, replays the pairwise
    tournament's per-layer merger counters from the stream lengths alone
    (so ``stats`` and the shared layer mergers' / adder's counters match
    the scalar tree exactly) and delegates the functional merge + duplicate
    folding to the ``_merge_and_fold`` hook, which
    :class:`~repro.core.streaming.StreamingMergeTree` implements with
    bounded sort blocks.
    """

    def merge(self, streams: list[tuple[np.ndarray, np.ndarray]]
              ) -> tuple[np.ndarray, np.ndarray]:
        if len(streams) > self.num_ways:
            raise ValueError(
                f"cannot merge {len(streams)} streams on a {self.num_ways}-way tree"
            )
        # Unlike the scalar tree this skips the per-stream sortedness scan:
        # the accelerator only ever feeds it streams that are sorted by
        # construction (multiplier output and previously folded rounds), and
        # the scalar engine remains the validating reference.  An unsorted
        # stream would be silently sorted here rather than rejected.
        cleaned: list[tuple[np.ndarray, np.ndarray]] = []
        for keys, values in streams:
            if not (isinstance(keys, np.ndarray)
                    and keys.dtype.kind == "i"):  # keep int32 keys as-is
                keys = np.asarray(keys, dtype=np.int64)
            values = np.asarray(values, dtype=np.float64)
            if len(keys) != len(values):
                raise ValueError("keys and values must have equal length")
            cleaned.append((keys, values))
        if not cleaned:
            return np.empty(0, dtype=np.int64), np.empty(0)

        total_elements = self._account_tournament(
            [len(keys) for keys, _ in cleaned])
        out_keys, out_vals = self._merge_and_fold(cleaned)

        self.stats.additions = self._adder.stats.additions
        self.stats.elements_out += len(out_keys)
        self.stats.comparator_ops = sum(
            m.stats.comparator_ops for m in self._layer_mergers
        )
        root_cycles = (-(-total_elements // self._merger_width)
                       if total_elements else 0)
        self.stats.cycles += root_cycles + self._num_layers
        return out_keys, out_vals

    # ------------------------------------------------------------------
    def _account_tournament(self, lengths: list[int]) -> int:
        """Replay the pairwise tournament counters from lengths only.

        Returns the element count entering the root, which bounds the
        round's cycle count.
        """
        current = list(lengths)
        layer = 0
        while len(current) > 1:
            merger = self._layer_mergers[min(layer, self._num_layers - 1)]
            merger_stats = merger.stats
            width = merger.total_width          # == merger.throughput
            num_comparators = merger.num_comparators
            next_level: list[int] = []
            layer_traffic = 0
            for i in range(0, len(current), 2):
                if i + 1 >= len(current):
                    next_level.append(current[i])
                    continue
                total = current[i] + current[i + 1]
                cycles = -(-total // width) if total else 0
                merger_stats.cycles += cycles
                merger_stats.comparator_ops += cycles * num_comparators
                merger_stats.elements_merged += total
                layer_traffic += total
                next_level.append(total)
            self.stats.record_layer(layer, layer_traffic)
            current = next_level
            layer += 1
        total_elements = current[0]
        self.stats.elements_into_root += total_elements
        return total_elements
