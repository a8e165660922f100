"""Unit tests for the dynamic turnstile subsystem (``repro.dynamic``)
and the ``delete_many`` turnstile support pushed into the sketch layer.

The cross-cutting parity batteries (session == offline backend on the
materialized graph, forests == one-shot dynamic-stream pipeline) live
in ``tests/test_dynamic_parity.py``; here we pin the component
mechanics: the canonical update encoding, strict-turnstile state
bookkeeping, sketch-level insert/delete cancellation, and the session's
caching/warm-start behavior.
"""

import numpy as np
import pytest

from repro.core.matching_solver import SolverConfig, WarmStart
from repro.dynamic import (
    DynamicGraphSession,
    DynamicSketchState,
    GraphUpdate,
    TurnstileGraphState,
    canonical_updates,
    normalize_updates,
)
from repro.sketch.graph_sketch import VertexIncidenceSketch, encode_edge
from repro.sketch.l0_sampler import L0Sampler
from repro.util.graph import Graph

FAST = dict(eps=0.3, inner_steps=40, offline="local", round_cap_factor=0.6)


# ======================================================================
# Canonical update encoding
# ======================================================================
class TestGraphUpdate:
    def test_insert_roundtrip(self):
        up = GraphUpdate.insert(3, 1, 2.5)
        assert up.canonical() == ["+", 3, 1, 2.5]
        assert GraphUpdate.from_canonical(["+", 3, 1, 2.5]) == up

    def test_delete_roundtrip(self):
        up = GraphUpdate.delete(4, 2)
        assert up.canonical() == ["-", 4, 2]
        assert GraphUpdate.from_canonical(("-", 4, 2)) == up

    def test_insert_weight_defaults_to_one(self):
        assert GraphUpdate.from_canonical(["+", 0, 1]).w == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            ["*", 0, 1],
            ["+", 0, 1, 1.0, 9],
            ["-", 0, 1, 2.0],
            ["+"],
            [],
            "nope",
            42,
        ],
    )
    def test_malformed_updates_raise(self, bad):
        with pytest.raises(ValueError):
            GraphUpdate.from_canonical(bad)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            GraphUpdate.insert(2, 2)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GraphUpdate.insert(0, 1, 0.0)

    def test_canonical_updates_is_json_fingerprintable(self):
        from repro.api import Problem

        ops = canonical_updates([("+", 0, 1, 2.0), GraphUpdate.delete(0, 1)])
        p = Problem(Graph.empty(4), options={"updates": ops})
        a = p.fingerprint()
        assert a == Problem(Graph.empty(4), options={"updates": ops}).fingerprint()

    def test_normalize_mixed_forms(self):
        ops = normalize_updates(
            [GraphUpdate.insert(0, 1), ("-", 0, 1), ["+", 1, 2, 3.0]]
        )
        assert [o.op for o in ops] == ["+", "-", "+"]


# ======================================================================
# Strict-turnstile edge state
# ======================================================================
class TestTurnstileGraphState:
    def test_strict_duplicate_insert_raises(self):
        st = TurnstileGraphState(4)
        st.insert(0, 1, 2.0)
        with pytest.raises(ValueError, match="already present"):
            st.insert(1, 0, 3.0)  # same undirected edge, either orientation

    def test_delete_absent_raises(self):
        st = TurnstileGraphState(4)
        with pytest.raises(ValueError, match="not present"):
            st.delete(0, 1)

    def test_delete_returns_stored_weight(self):
        st = TurnstileGraphState(4)
        st.insert(2, 1, 7.5)
        assert st.delete(1, 2) == 7.5
        assert st.m == 0

    def test_version_counts_every_edit(self):
        st = TurnstileGraphState(4)
        st.insert(0, 1)
        st.insert(0, 2)
        st.delete(0, 1)
        assert st.version == 3

    def test_graph_matches_from_edges_canonical(self):
        st = TurnstileGraphState(6)
        edges = [(4, 5, 1.0), (0, 3, 2.0), (2, 1, 3.0)]
        for u, v, w in edges:
            st.insert(u, v, w)
        ref = Graph.from_edges(6, [(u, v) for u, v, _ in edges], [w for *_, w in edges])
        g = st.graph()
        assert np.array_equal(g.src, ref.src)
        assert np.array_equal(g.dst, ref.dst)
        assert np.array_equal(g.weight, ref.weight)
        assert g.fingerprint() == ref.fingerprint()

    def test_graph_cached_until_mutation(self):
        st = TurnstileGraphState(4)
        st.insert(0, 1)
        g1 = st.graph()
        assert st.graph() is g1
        st.insert(2, 3)
        assert st.graph() is not g1

    def test_base_graph_capacities_carry_through(self):
        base = Graph.from_edges(3, [(0, 1)], [1.0], b=[2, 2, 1])
        st = TurnstileGraphState(3, base_graph=base)
        st.insert(1, 2, 4.0)
        assert np.array_equal(st.graph().b, [2, 2, 1])

    def test_out_of_range_endpoint_raises(self):
        st = TurnstileGraphState(3)
        with pytest.raises(ValueError, match="out of range"):
            st.insert(0, 3)


# ======================================================================
# Turnstile support in the sketch layer (vectorized negative updates)
# ======================================================================
class TestSketchDeleteMany:
    def test_l0_sampler_delete_many(self):
        sk = L0Sampler(256, seed=11)
        sk.update_many(np.arange(40), np.ones(40, dtype=np.int64))
        sk.delete_many(np.arange(1, 40))
        assert sk.sample() == (0, 1)
        sk.delete_many(np.asarray([0]))
        assert sk.is_zero()

    def test_incidence_update_edges_matches_graph_build(self):
        rng = np.random.default_rng(3)
        n = 10
        pairs = [(0, 1), (2, 7), (3, 9), (1, 5), (4, 8)]
        g = Graph.from_edges(n, pairs)
        built = VertexIncidenceSketch(g, t=2, seed=77)
        grown = VertexIncidenceSketch.empty(n, t=2, seed=77)
        # insert extra edges then delete them: net state must match
        grown.insert_edges(
            np.asarray([u for u, _ in pairs]), np.asarray([v for _, v in pairs])
        )
        extra_u, extra_v = np.asarray([0, 2]), np.asarray([9, 5])
        grown.insert_edges(extra_u, extra_v)
        grown.delete_edges(extra_u, extra_v)
        for row in range(2):
            for v in range(n):
                a = built.merged_sketch(np.asarray([v]), row).sample()
                b = grown.merged_sketch(np.asarray([v]), row).sample()
                assert a == b

    def test_incidence_update_edges_rejects_self_loop(self):
        sk = VertexIncidenceSketch.empty(4, t=1, seed=0)
        with pytest.raises(ValueError, match="self-loop"):
            sk.insert_edges(np.asarray([2]), np.asarray([2]))

    @pytest.mark.parametrize(
        "u, v", [(4, 1), (0, 4), (-1, 2)], ids=["u>=n", "v>=n", "neg"]
    )
    def test_incidence_update_edges_rejects_out_of_range_endpoint(self, u, v):
        sk = VertexIncidenceSketch.empty(4, t=1, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            sk.insert_edges(np.asarray([0, u]), np.asarray([3, v]))
        # the whole batch is rejected before any cell moves
        assert sk.sample_cut_edge(np.asarray([0]), row=0) is None

    def test_dynamic_edge_stream_bulk_helpers(self):
        from repro.streaming import DynamicEdgeStream

        stream = DynamicEdgeStream(6)
        stream.insert_many(np.asarray([0, 1]), np.asarray([2, 3]), np.asarray([1.0, 2.0]))
        stream.delete_many(np.asarray([0]), np.asarray([2]))
        net = stream.net_graph()
        assert net.m == 1
        assert (int(net.src[0]), int(net.dst[0])) == (1, 3)


# ======================================================================
# DynamicSketchState
# ======================================================================
class TestDynamicSketchState:
    def test_cancellation_to_empty(self):
        st = DynamicSketchState(8, seed=1)
        u = np.asarray([0, 1, 2])
        v = np.asarray([3, 4, 5])
        st.apply_updates(u, v, np.ones(3, dtype=np.int64))
        assert not st.looks_empty()
        st.apply_updates(u, v, np.full(3, -1, dtype=np.int64))
        assert st.looks_empty()
        assert st.forest() == []

    def test_forest_matches_fresh_build(self):
        rng = np.random.default_rng(9)
        n = 12
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, (30, 2)) if a != b}
        pairs = sorted((min(p), max(p)) for p in pairs)
        u = np.asarray([p[0] for p in pairs])
        v = np.asarray([p[1] for p in pairs])
        grown = DynamicSketchState(n, seed=42)
        # two waves with an intervening deletion of the first wave
        grown.apply_updates(u, v, np.ones(len(pairs), dtype=np.int64))
        grown.apply_updates(u[:10], v[:10], np.full(10, -1, dtype=np.int64))
        grown.apply_updates(u[:10], v[:10], np.ones(10, dtype=np.int64))
        fresh = DynamicSketchState(n, seed=42)
        fresh.apply_updates(u, v, np.ones(len(pairs), dtype=np.int64))
        assert grown.forest() == fresh.forest()

    def test_space_words_accounts_all_components(self):
        """The incidence tensor is the state's only component."""
        st = DynamicSketchState(8, seed=0)
        assert st.space_words() == st.incidence.space_words() > 0


# ======================================================================
# DynamicGraphSession mechanics
# ======================================================================
class TestDynamicGraphSession:
    def make_session(self, **kw):
        kw.setdefault("config", SolverConfig(seed=7, **FAST))
        return DynamicGraphSession(10, **kw)

    def test_unchanged_query_returns_same_object(self):
        sess = self.make_session()
        sess.insert(0, 1, 3.0)
        r1 = sess.query_matching()
        r2 = sess.query_matching()
        assert r2 is r1
        assert sess.session_stats().unchanged_hits == 1
        sess.insert(2, 3, 1.0)
        r3 = sess.query_matching()
        assert r3 is not r1

    def test_forest_memo_and_refresh(self):
        sess = self.make_session()
        sess.insert(0, 1)
        f1 = sess.query_forest()
        assert sess.query_forest() is f1
        sess.insert(2, 3)
        f2 = sess.query_forest()
        assert sorted(f2.forest) == [(0, 1), (2, 3)]

    def test_bulk_updates_equal_looped(self):
        a = self.make_session()
        b = self.make_session()
        u = np.asarray([0, 1, 2, 3])
        v = np.asarray([5, 6, 7, 8])
        w = np.asarray([1.0, 2.0, 3.0, 4.0])
        a.insert_many(u, v, w)
        a.delete_many(u[:2], v[:2])
        for i in range(4):
            b.insert(int(u[i]), int(v[i]), float(w[i]))
        for i in range(2):
            b.delete(int(u[i]), int(v[i]))
        assert a.fingerprint() == b.fingerprint()
        assert a.version == b.version == 6
        assert a.query_forest().forest == b.query_forest().forest

    def test_apply_canonical_log(self):
        sess = self.make_session()
        sess.apply([["+", 0, 1, 2.0], ["+", 2, 3, 4.0], ["-", 0, 1]])
        assert sess.m == 1
        assert sess.contains(2, 3)

    def test_insert_many_length_mismatch(self):
        sess = self.make_session()
        with pytest.raises(ValueError, match="equal length"):
            sess.insert_many(np.asarray([0]), np.asarray([1, 2]))

    def test_failed_bulk_insert_is_atomic(self):
        """A burst with a strictness violation must mutate nothing --
        neither the exact map nor the sketch state (review regression:
        a half-applied prefix desynchronized the two forever)."""
        sess = self.make_session()
        sess.insert(0, 1, 1.0)
        with pytest.raises(ValueError, match="already present"):
            sess.insert_many(np.asarray([2, 0]), np.asarray([3, 1]))
        assert sess.m == 1 and sess.version == 1
        assert not sess.contains(2, 3)
        assert sess.query_forest().forest == [(0, 1)]
        # same edge twice within one burst is also atomic
        with pytest.raises(ValueError, match="twice in one insert burst"):
            sess.insert_many(np.asarray([4, 5]), np.asarray([5, 4]))
        assert sess.m == 1
        # failed bulk delete leaves everything intact
        with pytest.raises(ValueError, match="not present"):
            sess.delete_many(np.asarray([0, 2]), np.asarray([1, 3]))
        assert sess.contains(0, 1)
        assert sess.query_forest().forest == [(0, 1)]
        sess.delete(0, 1)
        assert sess.sketches.looks_empty()

    def test_out_of_range_weight_rejected_before_mutation(self):
        """A weight that is not positive and finite fails at the insert
        (not at a later deferred flush); any other weight is accepted."""
        sess = self.make_session()
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="positive and finite"):
                sess.insert(0, 1, bad)
            with pytest.raises(ValueError, match="positive and finite"):
                sess.insert_many(np.asarray([2, 0]), np.asarray([3, 1]), [1.0, bad])
        assert sess.m == 0 and sess.version == 0
        sess.insert(0, 1, 0.5)  # session still fully usable
        sess.insert(2, 3, 2.0**50)
        assert sorted(sess.query_forest().forest) == [(0, 1), (2, 3)]

    def test_empty_graph_capacities_not_aliased(self):
        base = Graph.empty(3, b=np.asarray([2, 2, 2]))
        st = TurnstileGraphState(3, base_graph=base)
        g = st.graph()
        g.b[0] = 99
        assert st.graph() is g  # cached
        st.insert(0, 1)
        assert np.array_equal(st.graph().b, [2, 2, 2])

    def test_query_forest_without_sketches_raises(self):
        sess = self.make_session(maintain_sketches=False)
        sess.insert(0, 1)
        with pytest.raises(RuntimeError, match="maintain_sketches"):
            sess.query_forest()

    def test_warm_start_results_stay_certified(self):
        """Warm-started answers must keep the verified guarantee: a
        feasible matching plus a certificate whose ratio meets the
        solver's own stopping target whenever it reports rounds=0."""
        cfg = SolverConfig(seed=3, **FAST)
        sess = self.make_session(config=cfg, warm_start=True)
        rng = np.random.default_rng(0)
        live = set()
        for step in range(6):
            for _ in range(4):
                u, v = int(rng.integers(0, 10)), int(rng.integers(0, 10))
                if u == v or (min(u, v), max(u, v)) in live:
                    continue
                sess.insert(u, v, float(rng.integers(1, 9)))
                live.add((min(u, v), max(u, v)))
            res = sess.query_matching()
            assert res.matching.is_valid()
            raw = res.raw
            if raw.rounds == 0 and res.extras.get("warm_started"):
                assert res.certified_ratio >= 1.0 - cfg.eps
        stats = sess.session_stats()
        assert stats.warm_solves >= 1
        assert stats.matching_queries == 6

    def test_warm_start_falls_back_cold_after_large_burst(self):
        sess = self.make_session(
            config=SolverConfig(seed=3, **FAST),
            warm_start=True,
            warm_start_max_edits=2,
        )
        sess.insert(0, 1, 2.0)
        sess.query_matching()
        u = np.arange(5)
        v = np.arange(5, 10)
        sess.insert_many(u, v, np.ones(5))  # 5 edits > max 2
        sess.query_matching()
        stats = sess.session_stats()
        assert stats.cold_solves == 2
        assert stats.warm_solves == 0

    def test_session_stats_row_shape(self):
        sess = self.make_session()
        sess.insert(0, 1)
        sess.query_matching()
        row = sess.session_stats().as_row()
        assert row["inserts"] == 1
        assert row["matching_queries"] == 1
        assert row["sketch_space_words"] > 0


# ======================================================================
# WarmStart folding semantics
# ======================================================================
class TestWarmStartFolding:
    def test_fold_drops_vanished_edges_and_respects_capacity(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)], [5.0, 4.0])
        warm = WarmStart(
            x=np.zeros(4),
            pairs=[(0, 1, 1), (1, 2, 1), (2, 3, 1)],  # (1,2) does not exist
        )
        folded = warm.fold_matching(g)
        assert folded.is_valid()
        assert folded.weight() == 9.0

    def test_fold_clips_multiplicity(self):
        g = Graph.from_edges(2, [(0, 1)], [3.0], b=[2, 2])
        folded = WarmStart(x=np.zeros(2), pairs=[(0, 1, 5)]).fold_matching(g)
        assert folded.is_valid()
        assert folded.weight() == 6.0  # multiplicity clipped to b = 2

    def test_fold_empty_pairs(self):
        g = Graph.from_edges(2, [(0, 1)], [1.0])
        assert WarmStart(x=np.zeros(2), pairs=[]).fold_matching(g).size() == 0

    def test_warm_shape_mismatch_raises(self):
        from repro.core.matching_solver import DualPrimalMatchingSolver

        g = Graph.from_edges(3, [(0, 1)], [1.0])
        solver = DualPrimalMatchingSolver(SolverConfig(seed=0, **FAST))
        with pytest.raises(ValueError, match="shape"):
            solver.solve(g, warm_start=WarmStart(x=np.zeros(7), pairs=[]))
