"""Kernels for the merge/condensing hot loops.

The fast engine funnels its per-block work through the two kernels here:

* :func:`fold_sorted_runs` — duplicate-key folding + exact-zero elimination
  of one sorted stream, the inner loop of every merge round.  It runs as
  the C kernel of :mod:`repro.core.native` when that loaded, which sums
  every run with ``np.add.reduceat``'s own association (``v0`` plus
  numpy's pairwise sum of the rest, DESIGN.md §11), and otherwise as
  :func:`_fold_sorted_runs_numpy`, the reference; the two are
  byte-identical.  Streams with NaN values always fold in numpy, the only
  code that reproduces which NaN its sums propagate.
* :func:`row_offsets` — the offset-within-row of every stored CSR element,
  the quantity matrix condensing groups by (numpy).
"""

from __future__ import annotations

import numpy as np

from repro.core import native

#: Key dtypes the C fold takes; any other stream folds in numpy.
_NATIVE_KEY_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))

# ----------------------------------------------------------------------
# Duplicate folding + zero elimination
# ----------------------------------------------------------------------
def fold_sorted_runs(keys: np.ndarray, values: np.ndarray, *,
                     overwrite: bool = False
                     ) -> tuple[np.ndarray, np.ndarray, int]:
    """Fold equal-key runs of a sorted stream and drop exact zeros.

    Every run sums exactly as ``np.add.reduceat`` sums it — the kernel of
    :meth:`repro.hardware.adder.AdderSlice.fold` — so the float sums are
    bit-identical to the scalar backend.  Returns ``(out_keys, out_values,
    num_runs)`` with the input key dtype; the run count is what the adder's
    addition counter derives from.

    With ``overwrite=True`` the caller hands the arrays over: the C kernel
    folds in place and the outputs are prefixes of the inputs.
    """
    if not len(keys):
        return keys.copy(), values.copy(), 0
    if (native.LIB is not None and keys.dtype in _NATIVE_KEY_DTYPES
            and values.dtype == np.float64 and keys.flags.c_contiguous
            and values.flags.c_contiguous and len(keys) == len(values)):
        if overwrite:
            out_keys, out_values = keys, values
        else:
            out_keys, out_values = np.empty_like(keys), np.empty_like(values)
        folded = native.fold_runs(keys, values, out_keys, out_values)
        if folded is not None:
            kept, num_runs = folded
            return out_keys[:kept], out_values[:kept], num_runs
    return _fold_sorted_runs_numpy(keys, values)


def _fold_sorted_runs_numpy(keys: np.ndarray, values: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, int]:
    """The numpy reference of :func:`fold_sorted_runs` (non-empty input)."""
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
