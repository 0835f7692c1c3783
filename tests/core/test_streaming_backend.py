"""Unit tests for the fast engine's two bounded building blocks.

The end-to-end contract (fast engine == scalar under both engine names)
lives in ``tests/integration/test_engine_equivalence.py`` and the
budget-invariance property test; this module exercises the pieces in
isolation — the blocked merge+fold and the lazy leaf streamer, each against
its scalar reference — with the working-set budgets of
:mod:`repro.core.streaming` forced through ``monkeypatch``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import streaming
from repro.core.accelerator import SpArch, _LeafStreamer
from repro.core.config import SpArchConfig
from repro.core.huffman import huffman_schedule
from repro.core.streaming import StreamingLeafStreamer, StreamingMergeTree
from repro.hardware.merge_tree import MergeTree
from repro.hardware.multiplier_array import MultiplierArray
from repro.matrices.rmat import RMATConfig, generate_rmat
from repro.matrices.synthetic import random_matrix


def random_sorted_streams(rng, num_streams, max_len=120, max_key=60):
    """Sorted (key, value) streams with plenty of cross-stream ties."""
    streams = []
    for _ in range(num_streams):
        n = int(rng.integers(0, max_len))
        keys = np.sort(rng.integers(0, max_key, size=n)).astype(np.int64)
        vals = rng.standard_normal(n)
        streams.append((keys, vals))
    return streams


def assert_merges_agree(streams, num_layers):
    """Merge on the scalar tree and the fast tree; compare everything."""
    reference = MergeTree(num_layers=num_layers)
    fast = StreamingMergeTree(num_layers=num_layers)
    ref_keys, ref_vals = reference.merge([(k.copy(), v.copy())
                                          for k, v in streams])
    got_keys, got_vals = fast.merge([(k.copy(), v.copy())
                                     for k, v in streams])
    np.testing.assert_array_equal(ref_keys, got_keys)
    np.testing.assert_array_equal(ref_vals, got_vals)
    for field in ("cycles", "comparator_ops", "additions",
                  "elements_into_root", "elements_out", "layer_elements"):
        assert getattr(reference.stats, field) == getattr(fast.stats, field), \
            field


def plan_order(streamer, ways):
    plan = huffman_schedule([float(w) for w in streamer.leaf_weights()], ways)
    return plan, plan.leaf_order()


class TestStreamingMergeTree:
    @pytest.mark.parametrize("round_budget, block",
                             [(0, 1), (0, 2), (0, 7), (0, 64), (0, 10**9),
                              (25, 3), (10**9, 1)])
    def test_blocked_merge_matches_scalar(self, monkeypatch, round_budget,
                                          block):
        monkeypatch.setattr(streaming, "ROUND_BUDGET", round_budget)
        monkeypatch.setattr(streaming, "BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(3)
        for _ in range(10):
            streams = random_sorted_streams(rng, int(rng.integers(1, 9)))
            assert_merges_agree(streams, num_layers=3)

    def test_tie_break_order_across_streams(self, monkeypatch):
        # Equal keys must fold in ascending stream order (stable global
        # sort semantics): a block boundary must never split a run.
        streams = [
            (np.array([5, 5, 9], dtype=np.int64),
             np.array([1.0, 2.0, 4.0])),
            (np.array([5, 9, 9], dtype=np.int64),
             np.array([8.0, 16.0, 32.0])),
        ]
        monkeypatch.setattr(streaming, "ROUND_BUDGET", 0)
        for block in (1, 2, 3, 100):
            monkeypatch.setattr(streaming, "BLOCK_ELEMENTS", block)
            assert_merges_agree(streams, num_layers=2)

    def test_round_within_budget_is_sorted_once(self, monkeypatch):
        # Many streams whose total fits ROUND_BUDGET: one block, one sort.
        # A per-stream cutoff larger than every stream would instead drain
        # about one stream per block — O(streams²) work per round.
        rng = np.random.default_rng(11)
        streams = random_sorted_streams(rng, 64, max_len=400, max_key=5000)
        assert sum(len(k) for k, _ in streams) <= streaming.ROUND_BUDGET
        assert all(len(k) < streaming.BLOCK_ELEMENTS for k, _ in streams)
        blocks, sorts = [], []
        fold = streaming.fold_sorted_runs
        argsort = np.argsort
        monkeypatch.setattr(streaming, "fold_sorted_runs",
                            lambda k, v, **kw: blocks.append(len(k))
                            or fold(k, v, **kw))
        monkeypatch.setattr(np, "argsort",
                            lambda *a, **kw: sorts.append(1)
                            or argsort(*a, **kw))
        StreamingMergeTree(num_layers=6).merge(streams)
        assert blocks == [sum(len(k) for k, _ in streams)]
        assert len(sorts) == 1

    def test_empty_streams(self):
        tree = StreamingMergeTree(num_layers=2)
        keys, vals = tree.merge([(np.empty(0, np.int64), np.empty(0))])
        assert len(keys) == 0 and len(vals) == 0

    @pytest.mark.parametrize("round_budget", [0, 10**9])
    def test_full_cancellation(self, monkeypatch, round_budget):
        monkeypatch.setattr(streaming, "ROUND_BUDGET", round_budget)
        monkeypatch.setattr(streaming, "BLOCK_ELEMENTS", 1)
        streams = [
            (np.array([3], dtype=np.int64), np.array([2.5])),
            (np.array([3], dtype=np.int64), np.array([-2.5])),
        ]
        tree = StreamingMergeTree(num_layers=2)
        keys, vals = tree.merge(streams)
        assert len(keys) == 0
        assert tree.stats.additions == 1


class TestStreamingLeafStreamer:
    @pytest.mark.parametrize("condensing", [True, False])
    @pytest.mark.parametrize("budget", [1, 3, 40, 10**6])
    def test_leaf_streams_match_scalar(self, monkeypatch, condensing,
                                       budget):
        monkeypatch.setattr(streaming, "PRODUCT_BUDGET", budget)
        matrix = generate_rmat(RMATConfig(num_rows=120, edge_factor=4,
                                          seed=5))
        ref_mults = MultiplierArray(16)
        reference = _LeafStreamer(matrix, matrix, ref_mults,
                                  condensing=condensing)
        lazy_mults = MultiplierArray(16)
        lazy = StreamingLeafStreamer(matrix, matrix, lazy_mults,
                                     condensing=condensing)
        plan, order = plan_order(lazy, 8)
        lazy.bind_plan(plan)
        assert lazy.num_leaves == reference.num_leaves
        np.testing.assert_array_equal(lazy.leaf_weights(),
                                      reference.leaf_weights())
        # Consume in plan order, as the accelerator does.
        for leaf in order:
            want_keys, want_vals = reference.leaf_stream(leaf)
            got_keys, got_vals = lazy.leaf_stream(leaf)
            np.testing.assert_array_equal(want_keys, got_keys)
            np.testing.assert_array_equal(want_vals, got_vals)
        # The multiplier counters replay identically.
        assert lazy_mults.stats.multiplications == ref_mults.stats.multiplications
        assert lazy_mults.stats.left_elements == ref_mults.stats.left_elements
        assert lazy_mults.stats.cycles == ref_mults.stats.cycles

    @pytest.mark.parametrize("budget", [1, 30, 10**6])
    def test_unbound_streamer_serves_any_order(self, monkeypatch, budget):
        monkeypatch.setattr(streaming, "PRODUCT_BUDGET", budget)
        matrix = random_matrix(60, 60, 240, seed=2)
        reference = _LeafStreamer(matrix, matrix, MultiplierArray(16),
                                  condensing=True)
        lazy = StreamingLeafStreamer(matrix, matrix, MultiplierArray(16),
                                     condensing=True)
        generated = []
        generate = lazy._generate_products
        monkeypatch.setattr(lazy, "_generate_products",
                            lambda idx: generated.append(len(idx))
                            or generate(idx))
        # No bind_plan: chunks follow leaf ids, requests come shuffled.
        order = np.random.default_rng(8).permutation(lazy.num_leaves)
        for leaf in order.tolist():
            want = reference.leaf_stream(leaf)
            got = lazy.leaf_stream(leaf)
            np.testing.assert_array_equal(want[0], got[0])
            np.testing.assert_array_equal(want[1], got[1])
        # Every left element is multiplied once: consumed leaves are never
        # generated again as part of a later chunk.
        assert sum(generated) == matrix.nnz
        assert not lazy._pending

    @pytest.mark.parametrize("budget", [1, 25, 10**6])
    def test_pending_products_stay_within_budget(self, monkeypatch, budget):
        monkeypatch.setattr(streaming, "PRODUCT_BUDGET", budget)
        matrix = random_matrix(80, 80, 320, seed=4)
        lazy = StreamingLeafStreamer(matrix, matrix, MultiplierArray(16),
                                     condensing=True)
        plan, order = plan_order(lazy, 4)
        lazy.bind_plan(plan)
        for leaf in order:
            lazy.leaf_stream(leaf)
            # Consumed leaves are popped: what waits is the rest of one
            # chunk, never more than the budget.
            assert sum(len(keys) for keys, _ in lazy._pending.values()) \
                <= budget
        assert not lazy._pending

    def test_small_multiply_generates_in_one_pass(self, monkeypatch):
        matrix = generate_rmat(RMATConfig(num_rows=400, edge_factor=4,
                                          seed=7))
        passes = []
        generate = StreamingLeafStreamer._generate_products
        monkeypatch.setattr(
            StreamingLeafStreamer, "_generate_products",
            lambda self, idx: passes.append(len(idx)) or generate(self, idx))
        result = SpArch(SpArchConfig()).multiply(matrix, matrix)
        assert result.stats.multiplications <= streaming.PRODUCT_BUDGET
        assert passes == [matrix.nnz]


@pytest.mark.parametrize("engine", ["vectorized", "streaming"])
def test_both_engine_names_run_the_fast_engine(monkeypatch, engine):
    seen = set()
    for cls, name in ((StreamingLeafStreamer, "leaf_stream"),
                      (StreamingMergeTree, "_merge_and_fold")):
        original = getattr(cls, name)
        monkeypatch.setattr(
            cls, name,
            lambda self, *args, _original=original:
                seen.add(type(self)) or _original(self, *args))
    matrix = random_matrix(60, 60, 240, seed=2)
    SpArch(SpArchConfig(engine=engine)).multiply(matrix, matrix)
    assert seen == {StreamingLeafStreamer, StreamingMergeTree}
