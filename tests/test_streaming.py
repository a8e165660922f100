"""Tests for the semi-streaming model and dynamic-stream algorithms."""

import networkx as nx
import numpy as np
import pytest

from repro.graphgen import gnm_graph
from repro.streaming.semi_streaming import (
    dynamic_stream_spanning_forest,
    streaming_greedy_matching,
    streaming_sparsify,
)
from repro.streaming.stream import DynamicEdgeStream, EdgeStream
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger


class TestEdgeStream:
    def test_pass_counting(self, small_graph):
        st = EdgeStream(small_graph)
        list(st)
        list(st)
        assert st.passes == 2

    def test_ledger_charged_per_pass(self, small_graph):
        led = ResourceLedger()
        st = EdgeStream(small_graph, ledger=led)
        list(st)
        assert led.sampling_rounds == 1
        assert led.edges_streamed == small_graph.m


class TestDynamicStream:
    def test_net_graph_respects_deletions(self):
        ds = DynamicEdgeStream(4)
        ds.insert(0, 1)
        ds.insert(1, 2)
        ds.delete(0, 1)
        net = ds.net_graph()
        assert net.m == 1
        assert (int(net.src[0]), int(net.dst[0])) == (1, 2)

    def test_empty_net(self):
        ds = DynamicEdgeStream(3)
        ds.insert(0, 1)
        ds.delete(0, 1)
        assert ds.net_graph().m == 0

    def test_dynamic_forest_matches_net_graph(self):
        rng = np.random.default_rng(3)
        g = gnm_graph(10, 25, seed=4)
        ds = DynamicEdgeStream(10)
        for i, j, w in g.edges():
            ds.insert(i, j, w)
        doomed = rng.choice(g.m, size=10, replace=False)
        for e in doomed:
            ds.delete(int(g.src[e]), int(g.dst[e]), float(g.weight[e]))
        forest = dynamic_stream_spanning_forest(ds, seed=5)
        net = ds.net_graph()
        ncc = nx.number_connected_components(net.to_networkx())
        assert len(forest) == net.n - ncc

    def test_dynamic_forest_ledger(self):
        ds = DynamicEdgeStream(6)
        for i in range(5):
            ds.insert(i, i + 1)
        led = ResourceLedger()
        dynamic_stream_spanning_forest(ds, seed=6, ledger=led)
        assert led.sampling_rounds == 1  # single pass
        assert led.refinement_steps >= 1


#: ``chunk_edges`` the parity tests sweep over a file-backed copy of
#: the graph: degenerate (1 edge per chunk), awkward prime, power of
#: two, and more than m + 5 (the whole file in one chunk).
CHUNK_SIZES = [1, 7, 64, 8192]


class TestStreamingAlgorithms:
    @pytest.mark.parametrize("chunk_edges", CHUNK_SIZES)
    def test_streaming_sparsify_single_pass(self, chunk_edges, file_graph):
        g = gnm_graph(25, 200, seed=7)
        st = EdgeStream(file_graph(g, chunk_edges))
        sample, sp = streaming_sparsify(st, xi=0.3, seed=8)
        assert st.passes == 1
        assert len(sample) > 0
        assert np.all(sample.edge_ids < g.m)

    @pytest.mark.parametrize("chunk_edges", CHUNK_SIZES)
    def test_streaming_sparsify_chunk_invariant(self, chunk_edges, file_graph):
        """Hash-decided level membership makes the sparsifier sample a
        pure function of the edge multiset -- chunk boundaries must not
        leak into the output bits."""
        g = gnm_graph(25, 200, seed=7)
        ref, _ = streaming_sparsify(EdgeStream(g), xi=0.3, seed=8)
        got, _ = streaming_sparsify(
            EdgeStream(file_graph(g, chunk_edges)), xi=0.3, seed=8
        )
        np.testing.assert_array_equal(got.edge_ids, ref.edge_ids)
        np.testing.assert_array_equal(got.weights, ref.weights)

    def test_streaming_greedy_is_maximal_matching(self):
        g = gnm_graph(20, 80, seed=9)
        taken = streaming_greedy_matching(EdgeStream(g))
        loads = np.zeros(g.n, dtype=int)
        for e in taken:
            loads[g.src[e]] += 1
            loads[g.dst[e]] += 1
        assert loads.max() <= 1
        # maximality: every edge touches a matched vertex
        matched = loads > 0
        assert np.all(matched[g.src] | matched[g.dst])

    def test_streaming_greedy_half_approx_cardinality(self):
        g = gnm_graph(30, 120, seed=10)
        taken = streaming_greedy_matching(EdgeStream(g))
        opt = len(nx.max_weight_matching(g.to_networkx(), maxcardinality=True))
        assert len(taken) >= opt / 2
