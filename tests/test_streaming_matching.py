"""Tests for the semi-streaming solver binding."""

import numpy as np
import pytest

from repro.core.matching_solver import SolverConfig
from repro.graphgen import gnm_graph, with_uniform_weights
from repro.matching.exact import max_weight_matching_exact
from repro.streaming.stream import EdgeStream
from repro.streaming.streaming_matching import (
    SemiStreamingMatchingSolver,
    StreamingDeferredChain,
    StreamingDeferredSparsifier,
)
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger
from test_solver_batch import assert_results_equal


def weighted(n, m, seed):
    return with_uniform_weights(gnm_graph(n, m, seed=seed), 1, 40, seed=seed + 1)


class TestStreamingDeferredSparsifier:
    def test_insert_and_finalize_contract(self):
        g = weighted(20, 80, seed=1)
        sp = StreamingDeferredSparsifier(g.n, chi=2.0, xi=0.3, seed=2)
        for e in range(g.m):
            sp.insert(int(g.src[e]), int(g.dst[e]), float(g.weight[e]), e)
        sp.finalize()
        assert sp.stored_count() > 0
        assert len(sp.stored_edge_ids) == len(sp.stored_probs)
        assert np.all(sp.stored_probs > 0) and np.all(sp.stored_probs <= 1.0)
        # stored ids are valid and unique
        assert len(np.unique(sp.stored_edge_ids)) == sp.stored_count()
        assert sp.stored_edge_ids.max() < g.m

    def test_zero_promise_never_stored(self):
        sp = StreamingDeferredSparsifier(4, chi=1.5, xi=0.3, seed=3)
        sp.insert(0, 1, 0.0, 0)
        sp.insert(1, 2, 1.0, 1)
        sp.finalize()
        assert 0 not in set(sp.stored_edge_ids.tolist())

    def test_finalize_idempotent_and_guards(self):
        sp = StreamingDeferredSparsifier(4, chi=1.0, xi=0.3, seed=4)
        with pytest.raises(RuntimeError):
            _ = sp.stored_edge_ids  # before finalize
        sp.insert(0, 1, 1.0, 0)
        sp.finalize()
        sp.finalize()  # no-op
        with pytest.raises(RuntimeError):
            sp.insert(1, 2, 1.0, 1)  # after finalize

    def test_chi_validation(self):
        with pytest.raises(Exception):
            StreamingDeferredSparsifier(4, chi=0.5, xi=0.3)

    def test_higher_chi_stores_more(self):
        g = weighted(40, 400, seed=5)
        counts = []
        for chi in (1.0, 3.0):
            sp = StreamingDeferredSparsifier(g.n, chi=chi, xi=0.4, seed=6, k=2)
            for e in range(g.m):
                sp.insert(int(g.src[e]), int(g.dst[e]), float(g.weight[e]), e)
            sp.finalize()
            counts.append(sp.stored_count())
        assert counts[1] >= counts[0]


#: Same sweep as tests/test_streaming.py: ``chunk_edges`` of a
#: file-backed copy -- degenerate, awkward prime, power of two, and
#: more than m + 5 (the whole file in one chunk).
CHUNK_SIZES = [1, 7, 64, 8192]


class TestStreamingDeferredChain:
    @pytest.mark.parametrize("chunk_edges", CHUNK_SIZES)
    def test_one_pass_fills_whole_chain(self, chunk_edges, file_graph):
        g = weighted(25, 120, seed=7)
        ledger = ResourceLedger()
        stream = EdgeStream(file_graph(g, chunk_edges), ledger=ledger)
        chain = StreamingDeferredChain(
            stream, promise=g.weight, gamma=2.0, xi=0.3, count=3, seed=8
        )
        assert len(chain) == 3
        assert stream.passes == 1  # the whole chain = one data access
        assert ledger.sampling_rounds == 1
        assert len(chain.union_edge_ids()) > 0

    @pytest.mark.parametrize("chunk_edges", CHUNK_SIZES)
    def test_chain_chunk_invariant(self, chunk_edges, file_graph):
        """Every chain member must store the identical edge set and
        probabilities no matter how the one shared pass is chunked."""
        g = weighted(25, 120, seed=7)
        ref = StreamingDeferredChain(
            EdgeStream(g), promise=g.weight, gamma=2.0, xi=0.3, count=3, seed=8
        )
        got = StreamingDeferredChain(
            EdgeStream(file_graph(g, chunk_edges)),
            promise=g.weight, gamma=2.0, xi=0.3, count=3, seed=8,
        )
        for sp_ref, sp_got in zip(ref.sparsifiers, got.sparsifiers):
            np.testing.assert_array_equal(
                sp_got.stored_edge_ids, sp_ref.stored_edge_ids
            )
            np.testing.assert_array_equal(sp_got.stored_probs, sp_ref.stored_probs)

    def test_chain_members_independent(self):
        g = weighted(25, 120, seed=9)
        chain = StreamingDeferredChain(
            EdgeStream(g), promise=g.weight, gamma=2.0, xi=0.3, count=2, seed=10
        )
        a = set(chain[0].stored_edge_ids.tolist())
        b = set(chain[1].stored_edge_ids.tolist())
        # independent seeds: the stored sets should not be identical
        # (they may overlap heavily -- that is fine)
        assert a or b
        union = chain.union_edge_ids()
        assert set(union.tolist()) == (a | b)


class TestSemiStreamingSolver:
    def test_quality_matches_in_memory_path(self):
        g = weighted(30, 180, seed=11)
        opt = max_weight_matching_exact(g).weight()
        res = SemiStreamingMatchingSolver(
            eps=0.25, p=2.0, seed=12, inner_steps=120
        ).solve(g)
        assert res.matching.is_valid()
        assert res.weight >= 0.75 * opt

    def test_passes_equal_data_accesses(self):
        g = weighted(25, 120, seed=13)
        solver = SemiStreamingMatchingSolver(
            SolverConfig(eps=0.3, p=2.0, seed=14, inner_steps=60)
        )
        res = solver.solve(g)
        # every outer round consumes exactly one pass
        assert solver.passes == res.rounds

    @pytest.mark.parametrize("chunk_edges", CHUNK_SIZES)
    def test_solver_chunk_invariant(self, chunk_edges, file_graph):
        """Full solver parity across stream chunk sizes: matching ids,
        multiplicities, weight and certificate bound are bit-identical."""
        g = weighted(25, 120, seed=19)
        cfg = SolverConfig(eps=0.3, p=2.0, seed=20, inner_steps=60)
        ref = SemiStreamingMatchingSolver(cfg).solve(g)
        got = SemiStreamingMatchingSolver(cfg).solve(file_graph(g, chunk_edges))
        np.testing.assert_array_equal(
            got.matching.edge_ids, ref.matching.edge_ids
        )
        np.testing.assert_array_equal(
            got.matching.multiplicity, ref.matching.multiplicity
        )
        assert got.weight == ref.weight
        assert got.certificate.upper_bound == ref.certificate.upper_bound

    def test_solve_many_streams_each_instance(self):
        """Every chain streams the graph it is built for, so a batch
        equals looped solves value for value and the passes add up."""
        cfg = SolverConfig(eps=0.3, offline="local", seed=0)
        g1, g2 = weighted(40, 120, seed=21), weighted(40, 60, seed=22)
        solver = SemiStreamingMatchingSolver(cfg)
        got = solver.solve_many([g1, g2])
        ref = [SemiStreamingMatchingSolver(cfg).solve(g) for g in (g1, g2)]
        for r, gr in zip(ref, got):
            assert_results_equal(r, gr)
        assert solver.passes == ref[0].rounds + ref[1].rounds

    def test_pass_budget_is_p_over_eps_shaped(self):
        g = weighted(25, 120, seed=15)
        solver = SemiStreamingMatchingSolver(
            SolverConfig(eps=0.25, p=2.0, seed=16, inner_steps=60)
        )
        solver.solve(g)
        assert solver.passes <= int(np.ceil(3.0 * 2.0 / 0.25)) + 1

    def test_empty_graph(self):
        res = SemiStreamingMatchingSolver(eps=0.2, seed=0).solve(Graph.empty(5))
        assert res.weight == 0.0

    def test_certificate_sound(self):
        g = weighted(20, 90, seed=17)
        res = SemiStreamingMatchingSolver(eps=0.3, seed=18, inner_steps=60).solve(g)
        opt = max_weight_matching_exact(g).weight()
        assert res.certificate.upper_bound >= opt - 1e-6
