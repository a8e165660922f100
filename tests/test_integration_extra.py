"""Cross-module integration: execution bindings against each other.

The same algorithm runs over three data-access layers (in-memory
arrays, semi-streaming passes, simulated MapReduce / congested clique);
these tests pin the layers to each other and to the exact optimum.
"""

import numpy as np
import pytest

from repro.api import Problem, run
from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig
from repro.graphgen import gnm_graph, with_uniform_weights
from repro.mapreduce.accounting import ResourceModel
from repro.mapreduce.engine import MapReduceEngine
from repro.matching.exact import max_weight_matching_exact
from repro.streaming.streaming_matching import SemiStreamingMatchingSolver
from repro.util.graph import Graph


def weighted(n, m, seed):
    return with_uniform_weights(gnm_graph(n, m, seed=seed), 1, 30, seed=seed + 1)


class TestBindingsAgree:
    def test_memory_and_stream_solvers_within_band(self):
        g = weighted(28, 150, seed=1)
        opt = max_weight_matching_exact(g).weight()
        cfg = dict(eps=0.25, p=2.0, seed=2, inner_steps=100)
        mem = DualPrimalMatchingSolver(SolverConfig(**cfg)).solve(g)
        stream = SemiStreamingMatchingSolver(SolverConfig(**cfg)).solve(g)
        assert mem.weight >= 0.75 * opt
        assert stream.weight >= 0.75 * opt
        # both certificates dominate the same optimum
        assert mem.certificate.upper_bound >= opt - 1e-6
        assert stream.certificate.upper_bound >= opt - 1e-6

    def test_spanning_forest_three_ways(self):
        """MapReduce jobs, clique shipping, and networkx agree on the
        number of forest edges."""
        import networkx as nx

        g = gnm_graph(18, 60, seed=3)
        expected = g.n - nx.number_connected_components(g.to_networkx())
        engine = MapReduceEngine()
        mr = run(
            Problem(g, task="spanning_forest", options={"engine": engine, "seed": 4}),
            backend="mapreduce",
        ).forest
        clique = run(
            Problem(g, task="spanning_forest", config=SolverConfig(seed=5)),
            backend="congested_clique",
        ).forest
        assert len(mr) == expected
        assert len(clique) == expected


class TestModelComplianceEndToEnd:
    def test_solver_run_is_model_compliant(self):
        g = weighted(40, 300, seed=6)
        cfg = SolverConfig(eps=0.25, p=2.0, seed=7, inner_steps=80)
        res = DualPrimalMatchingSolver(cfg).solve(g)
        model = ResourceModel(n=g.n, p=2.0, eps=0.25)
        from repro.util.instrumentation import ResourceLedger

        ledger = ResourceLedger()
        ledger.sampling_rounds = res.resources["sampling_rounds"]
        ledger.charge_space(res.resources["peak_central_space"])
        report = model.check(ledger, input_size=g.m)
        assert report.ok_rounds, report.as_row()

    def test_streaming_solver_pass_budget(self):
        g = weighted(30, 160, seed=8)
        solver = SemiStreamingMatchingSolver(
            SolverConfig(eps=0.3, p=2.0, seed=9, inner_steps=60)
        )
        solver.solve(g)
        model = ResourceModel(n=g.n, p=2.0, eps=0.3)
        assert solver.passes <= model.rounds_budget()


class TestWitnessPathIntegration:
    def test_witness_route_harvests_primal(self):
        """Force tiny target beta so the oracle's witness fires and the
        harvested matching is folded into the result."""
        g = weighted(20, 100, seed=10)
        opt = max_weight_matching_exact(g).weight()
        cfg = SolverConfig(eps=0.25, p=2.0, seed=11, inner_steps=80)
        res = DualPrimalMatchingSolver(cfg).solve(g)
        # whether or not the witness fired, the result must carry a valid
        # near-optimal matching; if any round recorded a witness, the
        # history says so
        assert res.matching.is_valid()
        assert res.weight >= 0.75 * opt
        assert all(isinstance(h.get("witness"), bool) for h in res.history)


class TestDeterminism:
    def test_identical_seeds_identical_results(self):
        g = weighted(24, 120, seed=12)
        cfg = dict(eps=0.25, p=2.0, seed=13, inner_steps=60)
        a = DualPrimalMatchingSolver(SolverConfig(**cfg)).solve(g)
        b = DualPrimalMatchingSolver(SolverConfig(**cfg)).solve(g)
        assert a.weight == b.weight
        assert a.rounds == b.rounds
        assert np.array_equal(a.matching.edge_ids, b.matching.edge_ids)

    def test_streaming_binding_deterministic(self):
        g = weighted(24, 120, seed=14)
        cfg = dict(eps=0.25, p=2.0, seed=15, inner_steps=60)
        a = SemiStreamingMatchingSolver(SolverConfig(**cfg)).solve(g)
        b = SemiStreamingMatchingSolver(SolverConfig(**cfg)).solve(g)
        assert a.weight == b.weight
        assert np.array_equal(a.matching.edge_ids, b.matching.edge_ids)
