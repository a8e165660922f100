"""Failure-injection and adversarial-input tests across the stack.

Resource-constrained algorithms are Monte Carlo and operate on partial
views of the input; these tests verify the library *fails loudly or
degrades gracefully* -- never returns silently-wrong answers -- under
deletion storms, degenerate graphs, promise violations, and budget
starvation.
"""

import numpy as np
import pytest

from repro.core.levels import discretize
from repro.core.matching_solver import DualPrimalMatchingSolver
from repro.mapreduce.engine import (
    MapReduceEngine,
    MapReduceJob,
    ReducerMemoryExceeded,
)
from repro.sketch.graph_sketch import encode_edge
from repro.sketch.l0_sampler import L0Sampler
from repro.sparsify.deferred import DeferredSparsifier
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger


class TestDeletionStorms:
    def test_l0_sampler_empty_after_full_cancellation(self):
        s = L0Sampler(1 << 12, seed=1)
        rng = np.random.default_rng(0)
        idx = rng.choice(1 << 12, size=300, replace=False)
        s.update_many(idx, np.ones(300, dtype=np.int64))
        s.update_many(idx, -np.ones(300, dtype=np.int64))
        assert s.is_zero()
        assert s.sample() is None

    def test_l0_sampler_survivor_found_after_storm(self):
        s = L0Sampler(1 << 12, seed=2, repetitions=8)
        rng = np.random.default_rng(1)
        idx = rng.choice((1 << 12) - 1, size=200, replace=False)
        s.update_many(idx, np.ones(200, dtype=np.int64))
        s.update_many(idx, -np.ones(200, dtype=np.int64))
        s.update((1 << 12) - 1, 1)  # the lone survivor
        got = s.sample()
        assert got is not None
        assert got[0] == (1 << 12) - 1

    def test_interleaved_insert_delete_on_incidence(self):
        # the net incidence of a vertex whose edges all vanished is zero
        n = 16
        s = L0Sampler(n * n, seed=4)
        for j in range(1, n):
            s.update(int(encode_edge(0, j, n)), +1)
        for j in range(1, n):
            s.update(int(encode_edge(0, j, n)), -1)
        assert s.is_zero()


class TestDegenerateGraphs:
    def test_solver_on_empty_graph(self):
        res = DualPrimalMatchingSolver(eps=0.2, seed=0).solve(Graph.empty(10))
        assert res.weight == 0.0
        assert res.certificate.upper_bound == 0.0

    def test_solver_on_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)], [7.0])
        res = DualPrimalMatchingSolver(eps=0.2, seed=0).solve(g)
        assert res.weight == pytest.approx(7.0)
        assert res.matching.is_valid()

    def test_solver_on_disconnected_components(self):
        g = Graph.from_edges(
            8, [(0, 1), (2, 3), (4, 5), (6, 7)], [1.0, 2.0, 3.0, 4.0]
        )
        res = DualPrimalMatchingSolver(eps=0.2, seed=0).solve(g)
        assert res.weight == pytest.approx(10.0)

    def test_solver_on_star(self):
        # a star can match exactly one edge; the dual must certify that
        g = Graph.from_edges(6, [(0, j) for j in range(1, 6)], [1.0] * 5)
        res = DualPrimalMatchingSolver(eps=0.15, seed=1).solve(g)
        assert res.weight == pytest.approx(1.0)
        assert res.certificate.upper_bound < 2.0

    def test_solver_extreme_weight_spread(self):
        # W*/w_min = 1e6: low edges fall below the discretization threshold
        g = Graph.from_edges(
            6, [(0, 1), (2, 3), (4, 5)], [1e6, 1.0, 1e-6 * 1e6]
        )
        res = DualPrimalMatchingSolver(eps=0.2, seed=2).solve(g)
        # the heavy edge dominates; solution must be near 1e6 regardless
        assert res.weight >= 1e6

    def test_levels_drop_only_cheap_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)], [1e9, 1e-3])
        levels = discretize(g, 0.2)
        assert levels.level[0] >= 0
        assert levels.level[1] == -1  # below eps W*/B
        assert levels.dropped_weight_bound() <= 0.2 * 1e9

    def test_zero_weight_rejected(self):
        g = Graph.from_edges(2, [(0, 1)], [0.0])
        with pytest.raises(Exception):
            discretize(g, 0.2)


class TestPromiseViolations:
    def test_zero_promise_edges_never_stored(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], [1.0, 1.0, 1.0])
        promise = np.array([1.0, 0.0, 1.0])
        sp = DeferredSparsifier(g, promise, chi=2.0, xi=0.25, seed=5)
        assert 1 not in set(sp.stored_edge_ids.tolist())

    def test_refine_drops_zero_revealed_weights(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        sp = DeferredSparsifier(g, np.ones(3), chi=1.5, xi=0.25, seed=6)
        sample = sp.refine(np.zeros(3))
        assert len(sample.edge_ids) == 0

    def test_negative_promise_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(Exception):
            DeferredSparsifier(g, np.array([-1.0]), chi=2.0, xi=0.25)

    def test_chi_below_one_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(Exception):
            DeferredSparsifier(g, np.ones(1), chi=0.5, xi=0.25)

    def test_wrong_length_vectors_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        sp = DeferredSparsifier(g, np.ones(1), chi=2.0, xi=0.25, seed=7)
        with pytest.raises(Exception):
            sp.refine(np.ones(5))


class TestBudgetStarvation:
    def test_reducer_memory_cap_trips(self):
        engine = MapReduceEngine(reducer_memory_budget=3)

        def mapper(rec):
            yield (0, rec)  # everything to one reducer

        job = MapReduceJob(mapper=mapper, reducer=lambda k, vs: vs, name="flood")
        with pytest.raises(ReducerMemoryExceeded):
            engine.run_round(job, list(range(10)))

    def test_ledger_release_never_goes_negative(self):
        ledger = ResourceLedger()
        ledger.charge_space(5)
        ledger.release_space(100)
        assert ledger.central_space.current == 0
        assert ledger.central_space.peak == 5

    def test_solver_with_one_round_budget_still_sound(self):
        # starving the solver of rounds must degrade quality, not validity
        from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig
        from repro.graphgen import gnm_graph, with_uniform_weights

        g = with_uniform_weights(gnm_graph(30, 150, seed=8), 1, 30, seed=9)
        cfg = SolverConfig(eps=0.3, p=2.0, seed=10, round_cap_factor=0.1,
                           inner_steps=10)
        res = DualPrimalMatchingSolver(cfg).solve(g)
        assert res.matching.is_valid()
        # certificate soundness is unconditional
        assert res.certificate.upper_bound >= res.weight - 1e-9

    def test_solver_tiny_inner_budget_sound(self):
        from repro.graphgen import gnm_graph, with_uniform_weights

        g = with_uniform_weights(gnm_graph(20, 80, seed=11), 1, 20, seed=12)
        res = DualPrimalMatchingSolver(eps=0.3, seed=13, inner_steps=1).solve(g)
        assert res.matching.is_valid()
        assert res.certificate.upper_bound >= res.weight - 1e-9
