"""Unit tests for the fast-path kernels (`repro.core.fastpath`)."""

from __future__ import annotations

import numpy as np

from repro.core.fastpath import fold_sorted_runs, row_offsets


def reference_fold(keys, values):
    """Straight-line reference: reduceat folding + zero elimination."""
    if not len(keys):
        return keys.copy(), values.copy(), 0
    starts = np.flatnonzero(np.concatenate(
        [[True], keys[1:] != keys[:-1]]))
    folded = np.add.reduceat(values, starts)
    keep = folded != 0.0
    return keys[starts[keep]], folded[keep], len(starts)


class TestFoldSortedRuns:
    def test_empty_stream(self):
        keys, vals, runs = fold_sorted_runs(np.empty(0, np.int64),
                                            np.empty(0))
        assert len(keys) == 0 and len(vals) == 0 and runs == 0

    def test_all_distinct_no_zeros_passes_through(self):
        keys = np.array([1, 4, 9], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0])
        out_keys, out_vals, runs = fold_sorted_runs(keys, vals)
        np.testing.assert_array_equal(out_keys, keys)
        np.testing.assert_array_equal(out_vals, vals)
        assert runs == 3

    def test_duplicates_fold_and_zeros_drop(self):
        keys = np.array([2, 2, 5, 7, 7, 7], dtype=np.int64)
        vals = np.array([1.5, -1.5, 2.0, 1.0, 1.0, 1.0])
        out_keys, out_vals, runs = fold_sorted_runs(keys, vals)
        np.testing.assert_array_equal(out_keys, [5, 7])
        np.testing.assert_array_equal(out_vals, [2.0, 3.0])
        assert runs == 3  # the cancelled run still counts as a run

    def test_explicit_zero_without_duplicates_drops(self):
        keys = np.array([1, 2, 3], dtype=np.int64)
        vals = np.array([1.0, 0.0, 3.0])
        out_keys, out_vals, runs = fold_sorted_runs(keys, vals)
        np.testing.assert_array_equal(out_keys, [1, 3])
        assert runs == 3

    def test_matches_reference_on_random_streams(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(1, 400))
            keys = np.sort(rng.integers(0, max(2, n // 3), size=n)
                           ).astype(np.int64)
            vals = rng.standard_normal(n)
            # Sprinkle exact cancellations: mirror some adjacent pairs.
            for i in range(0, n - 1, 7):
                if keys[i] == keys[i + 1]:
                    vals[i + 1] = -vals[i]
            got = fold_sorted_runs(keys, vals)
            want = reference_fold(keys, vals)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2] == want[2]

    def test_int32_keys_preserved(self):
        keys = np.array([3, 3, 8], dtype=np.int32)
        vals = np.array([1.0, 2.0, 4.0])
        out_keys, _, _ = fold_sorted_runs(keys, vals)
        assert out_keys.dtype == np.int32

    def test_folded_run_and_negative_value_match_reference(self):
        keys = np.array([1, 1, 2], dtype=np.int64)
        vals = np.array([0.5, 0.5, -1.0])
        got = fold_sorted_runs(keys, vals)
        want = reference_fold(keys, vals)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]


class TestRowOffsets:
    def test_matches_manual_walk(self):
        indptr = np.array([0, 3, 3, 5, 9], dtype=np.int64)
        expected = [0, 1, 2, 0, 1, 0, 1, 2, 3]
        np.testing.assert_array_equal(row_offsets(indptr), expected)

    def test_empty_matrix(self):
        assert len(row_offsets(np.array([0, 0, 0], dtype=np.int64))) == 0

    def test_random_indptr(self):
        rng = np.random.default_rng(11)
        lengths = rng.integers(0, 6, size=50)
        indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        offsets = row_offsets(indptr)
        expected = [off for length in lengths for off in range(length)]
        np.testing.assert_array_equal(offsets, expected)
