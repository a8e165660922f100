"""Tests for the Definition 2 max-weight-edge sketch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphgen.random_graphs import gnm_graph
from repro.graphgen.weighted import with_uniform_weights
from repro.sketch.max_weight import MaxWeightEdgeSketch, find_max_weight_edge
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger


class TestMaxWeightEdgeSketch:
    def test_top_edge_in_heaviest_class(self):
        sk = MaxWeightEdgeSketch(8, w_min=1.0, w_max=1024.0, seed=1)
        sk.update(0, 1, 3.0)
        sk.update(2, 3, 700.0)
        sk.update(4, 5, 12.0)
        got = sk.top_edge()
        assert got is not None
        u, v, t = got
        assert (u, v) == (2, 3)
        assert t == int(np.floor(np.log2(700.0)))

    def test_deletion_unmasks_lighter_class(self):
        sk = MaxWeightEdgeSketch(8, w_min=1.0, w_max=1024.0, seed=2)
        sk.update(0, 1, 900.0)
        sk.update(2, 3, 5.0)
        sk.update(0, 1, 900.0, delta=-1)  # heavy edge deleted
        got = sk.top_edge()
        assert got is not None
        assert (got[0], got[1]) == (2, 3)

    def test_empty_structure(self):
        sk = MaxWeightEdgeSketch(4, seed=3)
        assert sk.top_edge() is None

    def test_merge_linearity(self):
        a = MaxWeightEdgeSketch(8, w_min=1.0, w_max=64.0, seed=4)
        b = MaxWeightEdgeSketch(8, w_min=1.0, w_max=64.0, seed=4)
        a.update(0, 1, 2.0)
        b.update(2, 3, 50.0)
        a.merge(b)
        got = a.top_edge()
        assert got is not None and (got[0], got[1]) == (2, 3)

    def test_merge_rejects_mismatched_range(self):
        a = MaxWeightEdgeSketch(8, w_min=1.0, w_max=64.0, seed=5)
        b = MaxWeightEdgeSketch(8, w_min=1.0, w_max=128.0, seed=5)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_out_of_range_weight_rejected(self):
        sk = MaxWeightEdgeSketch(4, w_min=1.0, w_max=4.0, seed=6)
        with pytest.raises(ValueError):
            sk.update(0, 1, 100.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            MaxWeightEdgeSketch(4, w_min=0.0)

    @pytest.mark.parametrize(
        "u, v", [(4, 1), (1, 4), (-1, 2), (2, 2)], ids=["u>=n", "v>=n", "neg", "loop"]
    )
    def test_impossible_edges_rejected(self, u, v):
        # (4, 1) on n=4 encodes to 8, which decodes to the never-inserted
        # (2, 0); a self-loop would come back as the class witness
        sk = MaxWeightEdgeSketch(4, w_min=1.0, w_max=64.0, seed=7)
        with pytest.raises(ValueError, match="out of range|self-loop"):
            sk.update(u, v, 40.0)
        with pytest.raises(ValueError, match="out of range|self-loop"):
            sk.update_many(np.asarray([0, u]), np.asarray([3, v]), np.asarray([2.0, 40.0]))
        assert sk.top_edge() is None

    def test_top_class_survives_decode_failure(self):
        """Regression (hypothesis seed 3011): when the heaviest nonempty
        class's ℓ0 decode fails across all repetitions, ``top_edge``
        falls through to a lighter class -- but ``top_class`` must still
        report the heaviest exponent (the counters prove nonemptiness),
        or ``find_max_weight_edge`` loses its factor-2/exactness
        guarantee."""
        seed = 3011
        g = gnm_graph(12, 30, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        g.weight = rng.uniform(1.0, 1000.0, size=g.m)
        sk = MaxWeightEdgeSketch(
            g.n, w_min=float(g.weight.min()), w_max=float(g.weight.max()), seed=seed
        )
        sk.ingest(g)
        got = sk.top_class()
        assert got is not None
        t, _witness = got
        assert t == int(np.floor(np.log2(g.weight.max())))
        e, w = find_max_weight_edge(g, seed=seed)
        assert w == pytest.approx(float(g.weight.max()))
        assert g.weight[e] == pytest.approx(w)


class TestFindMaxWeightEdge:
    def test_exact_on_random_graphs(self):
        for seed in range(5):
            g = with_uniform_weights(
                gnm_graph(15, 50, seed=seed), 1, 500, seed=seed + 1
            )
            e, w = find_max_weight_edge(g, seed=seed)
            assert w == pytest.approx(float(g.weight.max()))
            assert g.weight[e] == pytest.approx(w)

    def test_factor_two_without_second_pass(self):
        g = with_uniform_weights(gnm_graph(15, 50, seed=9), 1, 500, seed=10)
        _e, w_est = find_max_weight_edge(g, seed=11, exact_second_pass=False)
        w_star = float(g.weight.max())
        assert w_star / 2 <= w_est <= w_star

    def test_rounds_charged(self):
        g = with_uniform_weights(gnm_graph(10, 30, seed=12), 1, 100, seed=13)
        ledger = ResourceLedger()
        find_max_weight_edge(g, seed=14, ledger=ledger)
        assert 1 <= ledger.sampling_rounds <= 3  # O(1) data accesses
        assert ledger.central_space.peak > 0

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            find_max_weight_edge(Graph.empty(3))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_property_always_exact_with_second_pass(self, seed):
        g = gnm_graph(12, 30, seed=seed % 1000)
        if g.m == 0:
            return
        rng = np.random.default_rng(seed)
        g.weight = rng.uniform(1.0, 1000.0, size=g.m)
        _e, w = find_max_weight_edge(g, seed=seed)
        assert w == pytest.approx(float(g.weight.max()))
