"""Unit tests for the fast-path kernels (`repro.core.fastpath`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.fastpath import fold_sorted_runs, row_offsets


def reference_fold(keys, values):
    """Straight-line reference: reduceat folding + zero elimination."""
    if not len(keys):
        return keys.copy(), values.copy(), 0
    starts = np.flatnonzero(np.concatenate(
        [[True], keys[1:] != keys[:-1]]))
    with np.errstate(invalid="ignore", over="ignore"):
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


#: Values that stress the fold's bit identity beyond ordinary rounding.
SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                           -5e-324, 2.2250738585072014e-308, 1e308, -1e308])


@st.composite
def sorted_streams(draw):
    """Sorted key streams whose runs exercise every pairwise_sum branch.

    A run of ``k`` values sums as ``v0 + pairwise(v1..)``, so run lengths
    up to 1000 reach the sequential (< 8), eight-accumulator (<= 128) and
    recursive-split branches.  Values are drawn by kind: ordinary, wide
    exponents (overflow to ±inf), subnormals, exact cancellation to ±0.0,
    and sprinkled specials (±0, ±inf, NaN).
    """
    lengths = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=5)
                   | st.lists(st.integers(1, 9), min_size=1, max_size=40))
    key_dtype = draw(st.sampled_from([np.int32, np.int64]))
    kind = draw(st.sampled_from(["normal", "wide", "subnormal", "cancel",
                                 "special"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(lengths)
    gaps = rng.integers(1, 4, size=len(lengths))
    keys = np.repeat(np.cumsum(gaps) - 1, lengths).astype(key_dtype)
    if kind == "wide":
        with np.errstate(over="ignore"):
            values = (rng.standard_normal(n)
                      * 10.0 ** rng.integers(-320, 309, size=n))
    elif kind == "subnormal":
        values = rng.integers(-2**20, 2**20, size=n) * 5e-324
    elif kind == "cancel":
        half = rng.standard_normal(n)
        values = np.where(rng.random(n) < 0.5, half, -half)
        start = 0
        for length in lengths:  # make whole runs cancel exactly
            pairs = length // 2
            values[start + pairs:start + 2 * pairs] = \
                -values[start:start + pairs]
            if length % 2:
                values[start + length - 1] = rng.choice([0.0, -0.0])
            start += length
    else:
        values = rng.standard_normal(n)
    if kind == "special":
        spots = rng.integers(0, n, size=max(1, n // 50))
        values[spots] = rng.choice(SPECIAL_VALUES, size=len(spots))
    return keys, values


@pytest.fixture(params=["numpy", "native"])
def fold_path(request, monkeypatch):
    """Fold through numpy (fallback) or through the C kernel."""
    if request.param == "numpy":
        monkeypatch.setattr(native, "LIB", None)
    elif native.LIB is None:
        pytest.skip(f"native kernels unavailable: {native.REASON}")
    return request.param


@given(stream=sorted_streams(), overwrite=st.booleans())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fold_is_byte_identical_to_reduceat(fold_path, stream, overwrite):
    keys, values = stream
    want = reference_fold(keys, values)
    with np.errstate(invalid="ignore", over="ignore"):
        got = fold_sorted_runs(keys.copy(), values.copy(),
                               overwrite=overwrite)
    assert got[0].dtype == keys.dtype
    assert got[1].dtype == np.float64
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]


def test_native_fold_declines_only_nan_streams():
    """The C kernel folds every NaN-free stream; NaN streams go to numpy,
    whose choice among NaN payloads only numpy reproduces."""
    if native.LIB is None:
        pytest.skip(f"native kernels unavailable: {native.REASON}")
    keys = np.array([1, 1, 2], dtype=np.int64)
    for values, folded in ((np.array([np.inf, -np.inf, 1.0]), True),
                           (np.array([1.0, np.nan, 1.0]), False)):
        out_keys, out_values = np.empty_like(keys), np.empty_like(values)
        result = native.fold_runs(keys, values, out_keys, out_values)
        assert (result is not None) == folded


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
