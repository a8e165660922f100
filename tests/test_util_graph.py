"""Unit tests for the Graph substrate."""

import tracemalloc

import numpy as np
import pytest

from repro.util.graph import DEFAULT_CHUNK_EDGES, Graph, edge_key, merge_parallel_edges


class TestEdgeKey:
    def test_symmetric(self):
        assert edge_key(3, 7, 10) == edge_key(7, 3, 10)

    def test_distinct_edges_distinct_keys(self):
        n = 20
        keys = set()
        for i in range(n):
            for j in range(i + 1, n):
                keys.add(int(edge_key(i, j, n)))
        assert len(keys) == n * (n - 1) // 2

    def test_vectorized(self):
        i = np.array([0, 5, 2])
        j = np.array([3, 1, 9])
        ks = edge_key(i, j, 10)
        assert list(ks) == [int(edge_key(a, b, 10)) for a, b in zip(i, j)]


class TestMergeParallelEdges:
    def test_merges_duplicates_summing_weights(self):
        src = np.array([0, 1, 0])
        dst = np.array([1, 0, 2])
        w = np.array([1.0, 2.0, 5.0])
        s, d, ww = merge_parallel_edges(src, dst, w, 3)
        assert len(s) == 2
        pairs = {(int(a), int(b)): float(c) for a, b, c in zip(s, d, ww)}
        assert pairs[(0, 1)] == 3.0
        assert pairs[(0, 2)] == 5.0

    def test_drops_self_loops(self):
        s, d, w = merge_parallel_edges(
            np.array([2, 0]), np.array([2, 1]), np.array([1.0, 1.0]), 3
        )
        assert len(s) == 1

    def test_empty(self):
        s, d, w = merge_parallel_edges(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([]), 5
        )
        assert len(s) == 0


class TestGraph:
    def test_from_edges_canonical(self):
        g = Graph.from_edges(4, [(2, 0), (3, 1)], [1.0, 2.0])
        assert np.all(g.src < g.dst)
        assert g.m == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(
                n=2,
                src=np.array([0]),
                dst=np.array([5]),
                weight=np.array([1.0]),
            )

    def test_rejects_noncanonical(self):
        with pytest.raises(ValueError):
            Graph(n=3, src=np.array([2]), dst=np.array([1]), weight=np.array([1.0]))

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError, match="capacities must be >= 0"):
            Graph(n=4, src=[0, 1, 2, 0], dst=[1, 2, 3, 3], weight=[5, 4, 3, 2], b=[2, -1, 2, 1])
        with pytest.raises(ValueError, match="capacities must be >= 0"):
            Graph.from_edges(2, [(0, 1)], b=[1, -3])
        # b = 0 stays legal: residual graphs saturate vertices
        assert Graph(n=2, src=[0], dst=[1], weight=[1.0], b=[0, 1]).b.tolist() == [0, 1]

    def test_default_capacities_are_one(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert np.all(g.b == 1)
        assert g.total_capacity == 3

    def test_degrees(self, path_graph):
        deg = path_graph.degrees()
        assert list(deg) == [1, 2, 2, 2, 1]

    def test_weighted_degrees(self, path_graph):
        wd = path_graph.weighted_degrees()
        assert wd[0] == 1.0
        assert wd[1] == 3.0
        assert wd[4] == 4.0

    def test_weighted_degrees_override(self, path_graph):
        wd = path_graph.weighted_degrees(np.ones(path_graph.m))
        assert list(wd) == [1, 2, 2, 2, 1]

    def test_csr_neighbors(self, path_graph):
        assert set(path_graph.neighbors(1)) == {0, 2}
        assert set(path_graph.neighbors(0)) == {1}

    def test_csr_incident_edges_cover_each_edge_twice(self, small_graph):
        csr = small_graph.csr()
        counts = np.bincount(csr.edge_id, minlength=small_graph.m)
        assert np.all(counts == 2)

    def test_edge_subgraph_mask(self, path_graph):
        sub = path_graph.edge_subgraph(np.array([True, False, True, False]))
        assert sub.m == 2
        assert sub.n == path_graph.n

    def test_edge_subgraph_with_weights(self, path_graph):
        sub = path_graph.edge_subgraph(np.array([0, 2]), weights=np.array([9.0, 9.0]))
        assert list(sub.weight) == [9.0, 9.0]

    def test_cut_value(self, path_graph):
        side = np.array([True, True, False, False, False])
        assert path_graph.cut_value(side) == 2.0

    def test_cut_value_override_weights(self, path_graph):
        side = np.array([True, False, False, False, False])
        assert path_graph.cut_value(side, np.full(4, 7.0)) == 7.0

    def test_induced_edge_mask(self, triangle):
        members = np.array([True, True, False])
        mask = triangle.induced_edge_mask(members)
        assert mask.sum() == 1

    def test_to_networkx_roundtrip(self, weighted_graph):
        g = weighted_graph.to_networkx()
        assert g.number_of_edges() == weighted_graph.m
        assert g.number_of_nodes() == weighted_graph.n

    def test_copy_independent(self, path_graph):
        c = path_graph.copy()
        c.weight[0] = 99.0
        assert path_graph.weight[0] == 1.0

    def test_with_b(self, triangle):
        g = triangle.with_b(np.array([2, 2, 2]))
        assert g.total_capacity == 6
        assert triangle.total_capacity == 3

    def test_empty_graph(self):
        g = Graph.empty(5)
        assert g.m == 0
        assert g.total_weight() == 0.0

    def test_edge_keys_unique(self, small_graph):
        keys = small_graph.edge_keys()
        assert len(np.unique(keys)) == small_graph.m


class TestEdgeRanges:
    """Graph.edge_ranges(): the ranges every per-edge solver scan reads."""

    def test_in_ram_graph_spans_ranges_of_scan_edges(self):
        m = 2 * DEFAULT_CHUNK_EDGES + 5
        g = Graph(
            n=2,
            src=np.zeros(m, dtype=np.int64),
            dst=np.ones(m, dtype=np.int64),
            weight=np.ones(m),
        )
        assert list(g.edge_ranges()) == [
            (0, DEFAULT_CHUNK_EDGES),
            (DEFAULT_CHUNK_EDGES, 2 * DEFAULT_CHUNK_EDGES),
            (2 * DEFAULT_CHUNK_EDGES, m),
        ]

    def test_small_and_empty_graphs(self, small_graph):
        assert list(small_graph.edge_ranges()) == [(0, small_graph.m)]
        assert list(Graph.empty(3).edge_ranges()) == []

    def test_file_backed_graph_uses_its_chunk(self, small_graph, tmp_path):
        from repro.ingest import FileBackedGraph, write_graph_file

        path = tmp_path / "g.edges"
        write_graph_file(path, small_graph)
        fg = FileBackedGraph(path, chunk_edges=3, materialize_policy="forbid")
        ranges = list(fg.edge_ranges())
        assert ranges[0] == (0, 3) and ranges[-1][1] == small_graph.m
        assert all(b == c for (_, b), (c, _) in zip(ranges, ranges[1:]))
        assert not fg.is_materialized


class TestFingerprint:
    """Graph.fingerprint(): the content address of an instance."""

    def test_stable_across_edge_insertion_order(self):
        edges = [(0, 1), (2, 3), (1, 2), (0, 3)]
        weights = [1.0, 2.0, 3.0, 4.0]
        a = Graph.from_edges(4, edges, weights)
        perm = [2, 0, 3, 1]
        b = Graph.from_edges(4, [edges[i] for i in perm], [weights[i] for i in perm])
        assert a.fingerprint() == b.fingerprint()

    def test_stable_across_stored_order(self):
        """Direct construction with a non-key-sorted canonical edge list
        must hash like the sorted one."""
        sorted_g = Graph(
            n=3,
            src=np.array([0, 1]),
            dst=np.array([1, 2]),
            weight=np.array([1.0, 2.0]),
        )
        shuffled = Graph(
            n=3,
            src=np.array([1, 0]),
            dst=np.array([2, 1]),
            weight=np.array([2.0, 1.0]),
        )
        assert sorted_g.fingerprint() == shuffled.fingerprint()

    def test_orientation_is_canonicalized(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)], [1.0, 2.0])
        b = Graph.from_edges(3, [(1, 0), (2, 1)], [1.0, 2.0])
        assert a.fingerprint() == b.fingerprint()

    def test_changes_when_weights_change(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)], [1.0, 2.0])
        b = Graph.from_edges(3, [(0, 1), (1, 2)], [1.0, 2.5])
        assert a.fingerprint() != b.fingerprint()

    def test_changes_when_structure_changes(self):
        a = Graph.from_edges(4, [(0, 1), (1, 2)], [1.0, 2.0])
        b = Graph.from_edges(4, [(0, 1), (1, 3)], [1.0, 2.0])
        c = Graph.from_edges(5, [(0, 1), (1, 2)], [1.0, 2.0])  # n differs
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_changes_when_capacities_change(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)], [1.0, 2.0])
        b = Graph.from_edges(3, [(0, 1), (1, 2)], [1.0, 2.0], b=[2, 1, 1])
        assert a.fingerprint() != b.fingerprint()

    def test_cached_and_copy_consistent(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], [1.0, 2.0])
        first = g.fingerprint()
        assert g.fingerprint() is first  # cached
        assert g.copy().fingerprint() == first

    def test_keeps_no_edge_length_array(self):
        """Only the digest outlives the call: the O(m) key array of the
        sortedness check is not cached on the graph."""
        m = 100_000
        g = Graph(
            n=2 * m,
            src=2 * np.arange(m),
            dst=2 * np.arange(m) + 1,
            weight=np.random.default_rng(0).uniform(1.0, 2.0, m),
        )
        tracemalloc.start()
        try:
            g.fingerprint()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 8 * m
