"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.levels import discretize
from repro.kernels import mulmod
from repro.matching.greedy import greedy_bmatching
from repro.matching.maximal import is_maximal, maximal_bmatching
from repro.matching.structures import BMatching
from repro.sketch.hashing import MERSENNE_P, PolyHash
from repro.sketch.l0_sampler import L0Sampler
from repro.sparsify.union_find import UnionFind
from repro.util.graph import Graph, merge_parallel_edges

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def graphs(draw, max_n=14, max_m=40, weighted=True, max_b=1):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m,
            max_size=m,
        )
    )
    pairs = [(i, j) for i, j in pairs if i != j]
    if weighted:
        ws = draw(
            st.lists(
                st.floats(0.1, 100.0, allow_nan=False),
                min_size=len(pairs),
                max_size=len(pairs),
            )
        )
    else:
        ws = [1.0] * len(pairs)
    b = None
    if max_b > 1:
        b = draw(
            st.lists(st.integers(1, max_b), min_size=n, max_size=n)
        )
        b = np.asarray(b)
    return Graph.from_edges(n, np.asarray(pairs).reshape(-1, 2), np.asarray(ws), b=b)


class TestHashProperties:
    @SETTINGS
    @given(st.integers(0, 2**62), st.integers(0, 2**62))
    def test_mulmod_exact(self, a, b):
        a %= MERSENNE_P
        b %= MERSENNE_P
        assert int(mulmod(np.uint64(a), np.uint64(b))) == (a * b) % MERSENNE_P

    @SETTINGS
    @given(st.integers(0, 2**40), st.integers(1, 2**31))
    def test_hash_deterministic(self, x, seed):
        assert PolyHash(2, seed=seed)(x) == PolyHash(2, seed=seed)(x)


class TestL0Properties:
    @SETTINGS
    @given(
        st.lists(
            st.tuples(st.integers(0, 99), st.integers(-5, 5)),
            min_size=0,
            max_size=40,
        ),
        st.integers(0, 2**31),
    )
    def test_sample_is_true_support_member(self, updates, seed):
        s = L0Sampler(100, seed=seed)
        truth = np.zeros(100, dtype=np.int64)
        for i, d in updates:
            s.update(i, d)
            truth[i] += d
        got = s.sample()
        if got is not None:
            idx, val = got
            assert truth[idx] == val and val != 0

    @SETTINGS
    @given(
        st.lists(
            st.tuples(st.integers(0, 49), st.integers(-3, 3)),
            min_size=1,
            max_size=20,
        ),
        st.integers(0, 2**31),
    )
    def test_linearity_split_merge(self, updates, seed):
        whole = L0Sampler(50, seed=seed)
        a = L0Sampler(50, seed=seed)
        b = L0Sampler(50, seed=seed)
        for t, (i, d) in enumerate(updates):
            whole.update(i, d)
            (a if t % 2 == 0 else b).update(i, d)
        a.merge(b)
        assert a.sample() == whole.sample()


class TestUnionFindProperties:
    @SETTINGS
    @given(
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)),
            min_size=0,
            max_size=30,
        )
    )
    def test_matches_reference_partition(self, unions):
        uf = UnionFind(12)
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(12))
        for a, b in unions:
            uf.union(a, b)
            g.add_edge(a, b)
        for comp in nx.connected_components(g):
            comp = sorted(comp)
            for v in comp[1:]:
                assert uf.connected(comp[0], v)
        assert uf.n_components == nx.number_connected_components(g)


class TestGraphProperties:
    @SETTINGS
    @given(graphs())
    def test_merge_idempotent(self, g):
        s, d, w = merge_parallel_edges(g.src, g.dst, g.weight, g.n)
        assert np.array_equal(s, g.src)
        assert np.array_equal(d, g.dst)
        assert np.allclose(w, g.weight)

    @SETTINGS
    @given(graphs())
    def test_degrees_sum_twice_edges(self, g):
        assert int(g.degrees().sum()) == 2 * g.m

    @SETTINGS
    @given(graphs(), st.integers(0, 2**31))
    def test_cut_never_exceeds_total(self, g, seed):
        rng = np.random.default_rng(seed)
        side = rng.random(g.n) < 0.5
        assert g.cut_value(side) <= g.total_weight() + 1e-9


class TestMatchingProperties:
    @SETTINGS
    @given(graphs(max_b=3))
    def test_greedy_always_valid(self, g):
        m = greedy_bmatching(g)
        assert m.is_valid()

    @SETTINGS
    @given(graphs(max_b=3))
    def test_maximal_always_maximal(self, g):
        m = maximal_bmatching(g)
        assert m.is_valid()
        assert is_maximal(m)

    @SETTINGS
    @given(graphs())
    def test_matching_loads_never_negative(self, g):
        m = greedy_bmatching(g)
        assert np.all(m.vertex_loads() >= 0)


class TestLevelProperties:
    @SETTINGS
    @given(graphs(), st.sampled_from([0.1, 0.2, 0.4]))
    def test_levels_partition_and_bracket(self, g, eps):
        if g.m == 0:
            return
        lv = discretize(g, eps)
        live = lv.live_edges()
        if len(live) == 0:
            return
        k = lv.level[live]
        nominal = lv.scale * (1 + eps) ** k.astype(float)
        w = g.weight[live]
        assert np.all(nominal <= w * (1 + 1e-9))
        assert np.all(w < nominal * (1 + eps) * (1 + 1e-9))

    @SETTINGS
    @given(graphs(), st.sampled_from([0.2, 0.4]))
    def test_dropped_edges_below_scale(self, g, eps):
        if g.m == 0:
            return
        lv = discretize(g, eps)
        dropped = lv.level < 0
        assert np.all(g.weight[dropped] < lv.scale * (1 + 1e-9))
