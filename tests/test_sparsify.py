"""Tests for union-find, NI indices, cut sparsifiers and deferred sparsifiers."""

import numpy as np
import pytest

from repro.graphgen import gnm_graph, with_uniform_weights
from repro.sparsify.connectivity import NIForestDecomposition, ni_forest_index
from repro.sparsify.cut_sparsifier import (
    StreamingCutSparsifier,
    connectivity_sampling_probs,
    default_rho,
    sparsify_by_connectivity,
)
from repro.sparsify.deferred import DeferredSparsifier, DeferredSparsifierChain
from repro.sparsify.union_find import UnionFind
from repro.util.graph import Graph, edge_key
from repro.util.rng import make_rng


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(5)
        assert uf.n_components == 5
        assert not uf.connected(0, 1)

    def test_union_connects(self):
        uf = UnionFind(5)
        assert uf.union(0, 1)
        assert uf.connected(0, 1)
        assert uf.n_components == 4

    def test_union_idempotent(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        assert not uf.union(1, 0)
        assert uf.n_components == 4

    def test_transitive(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(4, 5)
        assert uf.connected(0, 2)
        assert not uf.connected(2, 4)

    def test_component_labels(self):
        uf = UnionFind(4)
        uf.union(0, 3)
        labels = uf.component_labels()
        assert labels[0] == labels[3]
        assert labels[1] != labels[0]

    def test_find_many(self):
        uf = UnionFind(4)
        uf.union(1, 2)
        roots = uf.find_many(np.array([1, 2]))
        assert roots[0] == roots[1]


class TestNIIndex:
    def test_path_all_index_one(self):
        # a path is a forest: every edge goes into forest 1
        idx = ni_forest_index(5, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]))
        assert list(idx) == [1, 1, 1, 1]

    def test_parallel_structure_increments(self):
        # triangle: third edge closes a cycle -> forest 2
        idx = ni_forest_index(3, np.array([0, 1, 0]), np.array([1, 2, 2]))
        assert sorted(idx) == [1, 1, 2]

    def test_k_cap(self):
        # K4 has edges of index up to 3; cap at 1 marks extras as k+1
        src = np.array([0, 0, 0, 1, 1, 2])
        dst = np.array([1, 2, 3, 2, 3, 3])
        idx = ni_forest_index(4, src, dst, k=1)
        assert int(idx.max()) == 2  # k+1 sentinel
        assert int((idx == 1).sum()) == 3  # one spanning tree

    def test_index_lower_bounds_connectivity(self):
        """Edges inside a dense block get higher indices than bridges."""
        g = gnm_graph(12, 50, seed=3)
        # append a pendant edge; it must be index 1 (scanned last)
        src = np.concatenate([g.src, [0]])
        dst = np.concatenate([g.dst, [11]])
        # ensure it's a fresh vertex pair by extending n
        idx = ni_forest_index(13, np.concatenate([g.src, [5]]), np.concatenate([g.dst, [12]]))
        assert idx[-1] == 1

    def test_decomposition_place_and_separated(self):
        d = NIForestDecomposition(4, k=2)
        assert d.place(0, 1) == 1
        assert d.place(0, 1) == 2
        assert d.place(0, 1) == 3  # overflow sentinel
        assert not d.separated_in_last(0, 1)
        assert d.separated_in_last(2, 3)

    def test_rejects_zero_forests(self):
        with pytest.raises(ValueError):
            NIForestDecomposition(3, k=0)

    def test_table_holds_at_most_twice_the_forests_in_use(self):
        rng = np.random.default_rng(5)
        d = NIForestDecomposition(40, k=50)
        sizes = []
        for _ in range(30):
            d.place_many(rng.integers(0, 40, 25), rng.integers(0, 40, 25))
            assert d.table.shape[1] == 40 and d.table.dtype == np.int32
            assert d.count <= len(d.table) <= max(1, 2 * d.count)
            sizes.append(len(d.table))
        assert len(set(sizes)) > 2  # the table grew more than once

    @pytest.mark.parametrize("k", [1, 2, 3, None])
    def test_matches_list_forests(self, k):
        """Indices, the k-th forest's partition, and one-edge ``place``
        against the pre-kernel parent lists (:class:`ListForests`)."""
        rng = np.random.default_rng([6, k or 0])
        n = 25
        src, dst = rng.integers(0, n, 500), rng.integers(0, n, 500)
        ref = ListForests(n, n if k is None else k)
        want = [ref.place(u, v) for u, v in zip(src.tolist(), dst.tolist())]
        assert ni_forest_index(n, src, dst, k=k).tolist() == want
        d = NIForestDecomposition(n, ref.k)
        got = [d.place(u, v) for u, v in zip(src[:250], dst[:250])]
        got += d.place_many(src[250:], dst[250:]).tolist()
        assert got == want
        pairs = [(u, v) for u in range(n) for v in range(n)]
        assert [d.separated_in_last(u, v) for u, v in pairs] == [
            ref.separated_in_last(u, v) for u, v in pairs
        ]


def _max_cut_error(graph: Graph, sample, trials: int = 300, seed: int = 0) -> float:
    """Max relative cut error over random cuts (empirical sparsifier check)."""
    rng = make_rng(seed)
    sub_w = np.zeros(graph.m)
    sub_w[sample.edge_ids] = sample.weights
    worst = 0.0
    for _ in range(trials):
        side = rng.random(graph.n) < rng.uniform(0.2, 0.8)
        orig = graph.cut_value(side)
        if orig <= 0:
            continue
        approx = graph.cut_value(side, sub_w)
        worst = max(worst, abs(approx - orig) / orig)
    return worst


class TestOfflineSparsifier:
    def test_probabilities_in_range_and_zero_weight(self):
        g = with_uniform_weights(gnm_graph(20, 80, seed=1), seed=2)
        w = g.weight.copy()
        w[:10] = 0.0
        p = connectivity_sampling_probs(g, w, rho=default_rho(g.n, 0.25))
        assert np.all((0 <= p) & (p <= 1))
        assert np.all(p[:10] == 0)

    def test_unbiased_weights(self):
        """Kept edges carry w/p, so expected total weight matches."""
        g = gnm_graph(30, 200, seed=5)
        totals = []
        for s in range(30):
            sample = sparsify_by_connectivity(g, xi=0.5, seed=s, rho=2.0)
            totals.append(sample.weights.sum())
        assert abs(np.mean(totals) - g.total_weight()) / g.total_weight() < 0.15

    def test_cut_preservation_dense_graph(self):
        g = gnm_graph(40, 500, seed=7)
        sample = sparsify_by_connectivity(g, xi=0.25, seed=8)
        assert _max_cut_error(g, sample) < 0.25

    def test_compresses_dense_graph(self):
        g = gnm_graph(60, 1500, seed=9)
        sample = sparsify_by_connectivity(g, xi=0.5, seed=10, rho=6.0)
        assert len(sample) < g.m

    def test_empty_graph(self):
        sample = sparsify_by_connectivity(Graph.empty(5), xi=0.3, seed=0)
        assert len(sample) == 0

    def test_as_graph(self):
        g = gnm_graph(15, 40, seed=11)
        sample = sparsify_by_connectivity(g, xi=0.3, seed=12)
        h = sample.as_graph(g)
        assert h.n == g.n
        assert h.m == len(sample)


class ListForests:
    """The pre-kernel :class:`NIForestDecomposition`: one parent list per
    forest, path-halving finds, bisection for the first separating
    forest.  The per-edge reference for the kernel-backed class."""

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.parents: list[list[int]] = []

    @staticmethod
    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def place(self, u: int, v: int) -> int:
        if u == v:
            return self.k + 1
        find, parents = self.find, self.parents
        lo, hi = 0, len(parents)
        while lo < hi:
            mid = (lo + hi) // 2
            if find(parents[mid], u) == find(parents[mid], v):
                lo = mid + 1
            else:
                hi = mid
        if lo < len(parents):
            parent = parents[lo]
            parent[find(parent, u)] = find(parent, v)
            return lo + 1
        if len(parents) < self.k:
            parent = list(range(self.n))
            parent[u] = v
            parents.append(parent)
            return len(parents)
        return self.k + 1

    def separated_in_last(self, u: int, v: int) -> bool:
        if len(self.parents) < self.k:
            return u != v
        parent = self.parents[-1]
        return self.find(parent, u) != self.find(parent, v)


def list_place_chunk(forests, k, u, v, survs):
    """The pre-kernel ``_place_chunk``: every level per edge, in order."""
    kept = np.zeros(len(u), dtype=bool)
    top = len(forests) - 1
    for t, (uu, vv, ss) in enumerate(zip(u.tolist(), v.tolist(), survs.tolist())):
        for i in range(min(ss, top) + 1):
            if forests[i].place(uu, vv) <= k:
                kept[t] = True
    return kept


def list_extract(forests, stored):
    """The pre-kernel ``extract``: each stored ``(u, v, id, surv, w)``
    takes the first level whose k-th forest separates its endpoints."""
    ids, ws = [], []
    for u, v, eid, surv, w in stored:
        i_prime = next(
            (i for i, f in enumerate(forests) if f.separated_in_last(u, v)), 0
        )
        if surv >= i_prime:
            ids.append(eid)
            ws.append(w * (2.0**i_prime))
    return ids, ws


class TestStreamingSparsifier:
    @pytest.mark.parametrize("k", [1, 2, 3, 8, None])
    def test_matches_per_edge_reference(self, k):
        """Kept masks, extracted ids and weights equal the pre-kernel
        per-edge loops over list forests, on a multigraph with parallel
        edges and self-loops fed in 13-edge chunks."""
        rng = np.random.default_rng([7, k or 0])
        n, m = 60, 900
        u, v = rng.integers(0, n, m), rng.integers(0, n, m)
        w = rng.uniform(0.5, 3.0, m)
        sp = StreamingCutSparsifier(n, xi=0.5, seed=9, k=k)
        masks = []
        place_chunk = sp._place_chunk

        def recording(*args):
            masks.append(place_chunk(*args))
            return masks[-1]

        sp._place_chunk = recording
        forests = [ListForests(n, sp.k) for _ in range(sp.levels)]
        stored = []
        for start in range(0, m, 13):
            cu, cv, cw = u[start : start + 13], v[start : start + 13], w[start : start + 13]
            sp.insert_many(cu, cv, cw)
            survs = sp._level_hash.level(edge_key(cu, cv, n), sp.levels - 1)
            kept = list_place_chunk(forests, sp.k, cu, cv, np.atleast_1d(survs))
            assert np.array_equal(masks[-1], kept)
            for t in np.flatnonzero(kept).tolist():
                stored.append((int(cu[t]), int(cv[t]), start + t, int(survs[t]), cw[t]))
        sample = sp.extract()
        ids, ws = list_extract(forests, stored)
        assert sample.edge_ids.tolist() == ids
        assert sample.weights.tolist() == ws
        assert sp.stored_count() == len(stored) < m

    def test_single_pass_preserves_cuts(self):
        g = gnm_graph(30, 300, seed=13)
        sp = StreamingCutSparsifier(g.n, xi=0.3, seed=14)
        sp.insert_graph(g)
        sample = sp.extract()
        assert _max_cut_error(g, sample) < 0.35

    def test_stored_count_bounded_by_m(self):
        g = gnm_graph(25, 150, seed=15)
        sp = StreamingCutSparsifier(g.n, xi=0.3, seed=16)
        sp.insert_graph(g)
        assert sp.stored_count() <= g.m

    def test_deterministic_given_seed(self):
        g = gnm_graph(20, 100, seed=17)
        outs = []
        for _ in range(2):
            sp = StreamingCutSparsifier(g.n, xi=0.3, seed=42)
            sp.insert_graph(g)
            outs.append(sp.extract())
        assert np.array_equal(outs[0].edge_ids, outs[1].edge_ids)
        assert np.allclose(outs[0].weights, outs[1].weights)

    def test_space_words_reported(self):
        sp = StreamingCutSparsifier(10, xi=0.5, seed=0, k=2, max_levels=3)
        assert sp.space_words() >= 2 * 10 * 2 * 3


class TestDeferredSparsifier:
    def test_refine_rejects_wrong_length(self):
        g = gnm_graph(10, 20, seed=18)
        d = DeferredSparsifier(g, promise=g.weight, chi=1.5, xi=0.3, seed=19)
        with pytest.raises(ValueError):
            d.refine(np.ones(g.m + 1))

    def test_rejects_chi_below_one(self):
        g = gnm_graph(10, 20, seed=18)
        with pytest.raises(ValueError):
            DeferredSparsifier(g, promise=g.weight, chi=0.5, xi=0.3)

    def test_refined_weights_unbias(self):
        """E[refined total] ~ true total when u is within the promise."""
        g = gnm_graph(30, 250, seed=20)
        rng = make_rng(21)
        u = g.weight * rng.uniform(0.6, 1.6, g.m)
        totals = []
        for s in range(25):
            d = DeferredSparsifier(g, promise=g.weight, chi=2.0, xi=0.5, seed=s, rho=2.0)
            totals.append(d.refine(u).weights.sum())
        assert abs(np.mean(totals) - u.sum()) / u.sum() < 0.15

    def test_cut_preservation_after_refinement(self):
        g = gnm_graph(40, 600, seed=22)
        rng = make_rng(23)
        u = g.weight * rng.uniform(0.7, 1.4, g.m)
        d = DeferredSparsifier(g, promise=g.weight, chi=1.5, xi=0.25, seed=24)
        sample = d.refine(u)
        gu = Graph(n=g.n, src=g.src, dst=g.dst, weight=u)
        assert _max_cut_error(gu, sample) < 0.3

    def test_zero_revealed_weight_dropped(self):
        g = gnm_graph(10, 30, seed=25)
        d = DeferredSparsifier(g, promise=g.weight, chi=1.0, xi=0.5, seed=26)
        u = np.zeros(g.m)
        assert len(d.refine(u)) == 0

    def test_multiple_refinements_same_structure(self):
        g = gnm_graph(15, 60, seed=27)
        d = DeferredSparsifier(g, promise=g.weight, chi=2.0, xi=0.4, seed=28)
        r1 = d.refine(g.weight)
        r2 = d.refine(g.weight * 2)
        assert np.array_equal(r1.edge_ids, r2.edge_ids)
        assert np.allclose(r2.weights, 2 * r1.weights)

    def test_higher_chi_stores_more(self):
        g = gnm_graph(40, 400, seed=29)
        small = DeferredSparsifier(g, promise=g.weight, chi=1.0, xi=0.5, seed=30, rho=1.0)
        big = DeferredSparsifier(g, promise=g.weight, chi=4.0, xi=0.5, seed=30, rho=1.0)
        assert big.stored_count() >= small.stored_count()


class TestDeferredChain:
    def test_chain_basics(self):
        g = gnm_graph(20, 100, seed=31)
        chain = DeferredSparsifierChain(
            g, promise=g.weight, gamma=2.0, xi=0.4, count=3, seed=32
        )
        assert len(chain) == 3
        union = chain.union_edge_ids()
        assert len(union) <= g.m
        assert len(np.unique(union)) == len(union)

    def test_sequential_cursor(self):
        g = gnm_graph(10, 30, seed=33)
        chain = DeferredSparsifierChain(
            g, promise=g.weight, gamma=1.5, xi=0.5, count=2, seed=34
        )
        assert chain.next() is chain[0]
        assert chain.next() is chain[1]
        assert chain.next() is None

    def test_rejects_empty_chain(self):
        g = gnm_graph(5, 6, seed=35)
        with pytest.raises(ValueError):
            DeferredSparsifierChain(g, promise=g.weight, gamma=2, xi=0.5, count=0)
