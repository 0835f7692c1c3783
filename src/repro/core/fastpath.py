"""Numpy kernels for the merge/condensing hot loops.

The fast engine funnels its per-block work through the two kernels here:

* :func:`fold_sorted_runs` — duplicate-key folding + exact-zero elimination
  of one sorted stream, the inner loop of every merge round;
* :func:`row_offsets` — the offset-within-row of every stored CSR element,
  the quantity matrix condensing groups by.
"""

from __future__ import annotations

import numpy as np


# ----------------------------------------------------------------------
# Duplicate folding + zero elimination
# ----------------------------------------------------------------------
def fold_sorted_runs(keys: np.ndarray, values: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, int]:
    """Fold equal-key runs of a sorted stream and drop exact zeros.

    Same ``np.add.reduceat`` kernel as
    :meth:`repro.hardware.adder.AdderSlice.fold` (so the float sums are
    bit-identical to the scalar backend), with the surviving keys gathered
    once after the zero mask.  Returns ``(out_keys, out_values, num_runs)``
    — the run count is what the adder's addition counter derives from.
    """
    if not len(keys):
        return keys.copy(), values.copy(), 0
    run_starts = np.empty(len(keys), dtype=bool)
    run_starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=run_starts[1:])
    num_runs = int(np.count_nonzero(run_starts))
    if num_runs == len(keys):
        # All keys distinct: nothing folds, only zeros could drop.
        keep = values != 0.0
        if keep.all():
            return keys, values, num_runs
        return keys[keep], values[keep], num_runs
    starts = np.flatnonzero(run_starts)
    folded_vals = np.add.reduceat(values, starts)
    keep = folded_vals != 0.0
    return keys[starts[keep]], folded_vals[keep], num_runs


# ----------------------------------------------------------------------
# Condensing offsets
# ----------------------------------------------------------------------
def row_offsets(indptr: np.ndarray) -> np.ndarray:
    """Offset of every stored element within its CSR row.

    Element ``p`` of row-major CSR storage lives in condensed column
    ``p - indptr[row(p)]``; this is the grouping key of matrix condensing
    (§II-B) and of the leaf streamers' element grouping.
    """
    nnz = int(indptr[-1])
    row_lengths = np.diff(indptr)
    return (np.arange(nnz, dtype=np.int64)
            - np.repeat(indptr[:-1], row_lengths))
