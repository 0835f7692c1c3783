"""The fast SpArch engine's bounded execution.

``SpArchConfig(engine="vectorized")`` and its alias ``engine="streaming"``
both run the two classes here, on top of the batched metadata and counter
accounting of :mod:`repro.core.vectorized`.  The host working set is bounded
by three module constants rather than configuration, so one engine serves
the scaled proxies and paper-scale (10⁵+-row) scenarios alike:

* :class:`StreamingLeafStreamer` generates partial products lazily in the
  order the merge plan consumes leaves (bound via
  :meth:`StreamingLeafStreamer.bind_plan`), in chunks of whole leaves
  holding up to :data:`PRODUCT_BUDGET` products — so a multiply with at
  most that many products is generated in one pass.  Product generation
  is elementwise-independent — each element's products are
  ``value * B[col, :]`` regardless of batching — so any chunking is
  bit-identical.
* :class:`StreamingMergeTree` drains a merge round as one block — one
  ``concatenate`` + stable ``argsort`` + fold — once its remaining elements
  fit :data:`ROUND_BUDGET`.  A larger round is first cut into key-cutoff
  blocks: every iteration picks a key *cutoff*, drains all elements
  ``≤ cutoff`` from every input stream, and sorts/folds only that block
  (roughly :data:`BLOCK_ELEMENTS` elements per contributing stream).

Why the blocked merge is exact:

* The cutoff is the minimum over active streams of the key
  :data:`BLOCK_ELEMENTS` positions ahead (or the stream's last key), and
  *every* element ``≤ cutoff`` is taken from *every* stream via
  ``searchsorted(side="right")``.  Keys in later blocks are therefore
  strictly greater than every key in this block, so (a) concatenating the
  per-block outputs reproduces the globally sorted order, and (b) no
  equal-key run ever straddles a block boundary — the per-block
  :func:`~repro.core.fastpath.fold_sorted_runs` folds exactly the runs the
  global fold would, with the same left-to-right association, no carry
  logic needed.
* Within a block, the drained slices are concatenated in ascending stream
  order — the same order the global concatenation uses — so the per-block
  stable argsort breaks key ties identically to the global stable argsort.
* Progress is guaranteed: the stream achieving the cutoff advances by at
  least ``min(BLOCK_ELEMENTS, remaining)`` elements each iteration.

All statistics are unaffected by construction: the tournament accounting is
computed from stream lengths before any element moves, and the adder
counters accumulated per block sum to the global values because runs never
straddle blocks.

The differential harness (``tests/integration/test_engine_equivalence.py``)
pins this engine == scalar over all 16 ablation combinations, and a
hypothesis property test pins invariance under every budget including the
extremes (1 and ≥ everything).
"""

from __future__ import annotations

import numpy as np

from repro.core.fastpath import fold_sorted_runs
from repro.core.huffman import MergePlan
from repro.core.vectorized import VectorizedLeafStreamer, VectorizedMergeTree
from repro.formats.csr import CSRMatrix
from repro.hardware.multiplier_array import MultiplierArray

#: Partial products generated per batched pass (a chunk always holds at
#: least one whole leaf).
PRODUCT_BUDGET = 1 << 20
#: Remaining elements of a merge round that are sorted as one block.
ROUND_BUDGET = 1 << 20
#: Elements drained per stream per key-cutoff block of a larger round.
BLOCK_ELEMENTS = 1 << 16


class StreamingLeafStreamer(VectorizedLeafStreamer):
    """Leaf streamer that generates partial products chunk by chunk.

    Reuses the vectorized streamer's metadata (element grouping, product
    counts, cycle prefix sums — all O(nnz(A))) and generates products for
    consecutive leaves of the consumption order, up to
    :data:`PRODUCT_BUDGET` products per pass.  Consumed leaves are popped,
    so at most one chunk's products are live at a time.

    Args:
        matrix_a: left operand in CSR format.
        matrix_b: right operand in CSR format.
        multipliers: multiplier array whose counters mirror the scalar model.
        condensing: whether leaves are condensed or original columns.
    """

    def __init__(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix,
                 multipliers: MultiplierArray, *, condensing: bool) -> None:
        super().__init__(matrix_a, matrix_b, multipliers,
                         condensing=condensing)
        self._pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._generated = np.zeros(self.num_leaves, dtype=bool)
        self._set_order(np.arange(self.num_leaves, dtype=np.int64))

    # ------------------------------------------------------------------
    def bind_plan(self, plan: MergePlan) -> None:
        """Form generation chunks over the plan's leaf consumption order.

        Unbound, the streamer chunks over ascending leaf ids — still
        correct for any request order, just less aligned with consumption.
        """
        self._set_order(np.asarray(plan.leaf_order(), dtype=np.int64))

    def _set_order(self, order: np.ndarray) -> None:
        self._order = order
        self._order_pos = np.empty(self.num_leaves, dtype=np.int64)
        self._order_pos[order] = np.arange(len(order))
        leaf_products = np.diff(self._prod_starts)[order]
        self._order_products = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(leaf_products)])

    def _chunk_at(self, leaf: int) -> list[int]:
        """``leaf`` and the never-generated leaves consumed after it, up to
        :data:`PRODUCT_BUDGET` products in the order's window."""
        start = int(self._order_pos[leaf])
        products = self._order_products
        stop = int(np.searchsorted(products, products[start] + PRODUCT_BUDGET,
                                   side="right")) - 1
        window = self._order[start + 1:stop]
        return [leaf] + window[~self._generated[window]].tolist()

    def _generate_chunk(self, leaves: list[int]) -> None:
        """Generate the partial products of the given leaves in one pass."""
        leaves = np.asarray(leaves, dtype=np.int64)
        elem_starts = self._elem_starts[leaves]
        elem_counts = self._elem_starts[leaves + 1] - elem_starts
        elem_idx = (np.arange(int(elem_counts.sum()), dtype=np.int64)
                    + np.repeat(elem_starts - (np.cumsum(elem_counts)
                                               - elem_counts), elem_counts))
        keys, vals = self._generate_products(elem_idx)
        self._generated[leaves] = True
        ends = np.cumsum(self._prod_starts[leaves + 1]
                         - self._prod_starts[leaves])
        for leaf, start, stop in zip(leaves.tolist(),
                                     [0] + ends[:-1].tolist(), ends.tolist()):
            self._pending[leaf] = (keys[start:stop], vals[start:stop])

    def leaf_stream(self, leaf: int) -> tuple[np.ndarray, np.ndarray]:
        """Return one leaf's sorted (key, value) partial-product stream.

        Generates the chunk starting at this leaf if it is not pending yet;
        the returned arrays are popped, so a consumed leaf's products are
        immediately collectable.
        """
        self._record_leaf_counters(leaf)
        if leaf not in self._pending:
            self._generate_chunk(self._chunk_at(leaf))
        return self._pending.pop(leaf)


class StreamingMergeTree(VectorizedMergeTree):
    """Merge tree that sorts and folds each round in bounded blocks.

    Tournament accounting and epilogue come from the vectorized tree (both
    are lengths-only); this class adds the functional merge+fold described
    in the module docstring.
    """

    def _merge_and_fold(self, cleaned: list[tuple[np.ndarray, np.ndarray]]
                        ) -> tuple[np.ndarray, np.ndarray]:
        key_dtype = np.result_type(*[keys.dtype for keys, _ in cleaned])
        streams = [(keys, vals) for keys, vals in cleaned if len(keys)]
        remaining = sum(len(keys) for keys, _ in streams)
        if remaining <= ROUND_BUDGET:
            return self._fold_block(streams, key_dtype)

        # Folded blocks land in one buffer sized by the input, so the
        # round's output is never held twice (once as parts, once joined).
        out_keys = np.empty(remaining, dtype=key_dtype)
        out_vals = np.empty(remaining)
        size = 0
        lengths = [len(keys) for keys, _ in streams]
        cursors = [0] * len(streams)
        while remaining:
            if remaining <= ROUND_BUDGET:
                stops = lengths
            else:
                # Largest key this block may contain: the smallest "block
                # positions ahead" key over the active streams.  Every
                # stream contributes *all* of its elements ≤ cutoff, so
                # later blocks hold strictly greater keys only.
                cutoff = min(
                    keys[min(cursor + BLOCK_ELEMENTS, length) - 1]
                    for (keys, _), cursor, length
                    in zip(streams, cursors, lengths) if cursor < length)
                stops = [cursor + int(np.searchsorted(keys[cursor:], cutoff,
                                                      side="right"))
                         for (keys, _), cursor in zip(streams, cursors)]
            block = [(keys[cursor:stop], vals[cursor:stop])
                     for (keys, vals), cursor, stop
                     in zip(streams, cursors, stops) if stop > cursor]
            remaining -= sum(stop - cursor
                             for cursor, stop in zip(cursors, stops))
            cursors = stops
            folded_keys, folded_vals = self._fold_block(block, key_dtype)
            out_keys[size:size + len(folded_keys)] = folded_keys
            out_vals[size:size + len(folded_vals)] = folded_vals
            size += len(folded_keys)
        # Shrink in place: no view of the buffers exists yet.
        out_keys.resize(size, refcheck=False)
        out_vals.resize(size, refcheck=False)
        return out_keys, out_vals

    def _fold_block(self, block: list[tuple[np.ndarray, np.ndarray]],
                    key_dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
        """Stable-sort one block's slices (in stream order) and fold them."""
        if not block:
            return np.empty(0, dtype=key_dtype), np.empty(0)
        if len(block) == 1:
            keys, vals = block[0]
        else:
            all_keys = np.concatenate([keys for keys, _ in block])
            all_vals = np.concatenate([vals for _, vals in block])
            order = np.argsort(all_keys, kind="stable")
            keys, vals = all_keys[order], all_vals[order]
        # The gathered arrays are this block's own, so they fold in place.
        out_keys, out_vals, num_runs = fold_sorted_runs(
            keys, vals, overwrite=len(block) > 1)
        self._adder.stats.elements_processed += len(keys)
        self._adder.stats.additions += len(keys) - num_runs
        return out_keys, out_vals
