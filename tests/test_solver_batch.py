"""Batch-of-N against batch-of-1 parity of the lockstep solver engine.

``solve`` is the engine at batch size one; ``solve_many`` must reproduce
``[solve(g) for g in graphs]`` *exactly* -- same matchings, same
certificates, same per-round history, same resource ledgers -- because
the engine claims bit-identical lockstep execution whatever else shares
the batch (see ``repro/core/batch.py`` for the parity rules).  Every
assertion here is equality, not approximate closeness; absolute values
are pinned by ``tests/test_golden.py``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batch import GraphBatch
from repro.core.levels import discretize
from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig
from repro.graphgen import (
    gnm_graph,
    odd_cycle_chain,
    triangle_gadget,
    with_random_capacities,
    with_uniform_weights,
)
from repro.util.graph import Graph

FAST = dict(inner_steps=80, round_cap_factor=2.0)


def assert_results_equal(ref, got):
    """Exact, field-by-field equality of two MatchingResults."""
    assert ref.weight == got.weight
    assert ref.rounds == got.rounds
    assert ref.lambda_min == got.lambda_min
    assert ref.beta_final == got.beta_final
    assert np.array_equal(ref.matching.edge_ids, got.matching.edge_ids)
    assert np.array_equal(ref.matching.multiplicity, got.matching.multiplicity)
    assert ref.certificate.upper_bound == got.certificate.upper_bound
    assert ref.certificate.lambda_min == got.certificate.lambda_min
    assert np.array_equal(ref.certificate.x, got.certificate.x)
    assert ref.certificate.z == got.certificate.z
    assert ref.history == got.history
    assert ref.resources == got.resources


def _mixed_graphs():
    return [
        with_uniform_weights(gnm_graph(18, 60, seed=1), 1, 30, seed=2),
        odd_cycle_chain(2, 3),
        with_uniform_weights(gnm_graph(30, 120, seed=3), 1, 50, seed=4),
        Graph.from_edges(2, [(0, 1)], [7.0]),
    ]


class TestBatchParity:
    def test_batch_matches_looped_solve(self):
        graphs = _mixed_graphs()
        seeds = [10, 11, 12, 13]
        ref = [
            DualPrimalMatchingSolver(eps=0.25, seed=s, **FAST).solve(g)
            for g, s in zip(graphs, seeds)
        ]
        got = DualPrimalMatchingSolver(eps=0.25, **FAST).solve_many(graphs, seeds=seeds)
        for r, g2 in zip(ref, got):
            assert_results_equal(r, g2)

    def test_batch_of_one(self):
        g = with_uniform_weights(gnm_graph(20, 70, seed=5), seed=6)
        ref = DualPrimalMatchingSolver(eps=0.25, seed=3, **FAST).solve(g)
        (got,) = DualPrimalMatchingSolver(eps=0.25, **FAST).solve_many([g], seeds=[3])
        assert_results_equal(ref, got)

    def test_empty_graph_in_batch(self):
        graphs = [Graph.empty(4), with_uniform_weights(gnm_graph(12, 30, seed=7), seed=8)]
        got = DualPrimalMatchingSolver(eps=0.3, **FAST).solve_many(graphs, seeds=[0, 1])
        assert got[0].weight == 0.0
        assert got[0].rounds == 0
        ref = DualPrimalMatchingSolver(eps=0.3, seed=1, **FAST).solve(graphs[1])
        assert_results_equal(ref, got[1])

    def test_all_empty_batch(self):
        got = DualPrimalMatchingSolver(eps=0.3).solve_many([Graph.empty(3), Graph.empty(1)])
        assert [r.weight for r in got] == [0.0, 0.0]

    def test_oddset_route_parity(self):
        """Configs where the z (odd-set) route fires must stay pinned."""
        g = odd_cycle_chain(2, 3)
        kw = dict(eps=0.3, p=4.0, inner_steps=150, round_cap_factor=3.0)
        ref = DualPrimalMatchingSolver(seed=7, **kw).solve(g)
        (got,) = DualPrimalMatchingSolver(**kw).solve_many([g], seeds=[7])
        assert sum(h["oddset"] for h in ref.history) > 0  # route exercised
        assert_results_equal(ref, got)

    def test_witness_route_parity(self):
        """The bipartite-style oracle (odd sets off) reaches LP7 witnesses."""
        g = odd_cycle_chain(2, 3)
        kw = dict(
            eps=0.3, p=4.0, inner_steps=150, odd_sets=False, round_cap_factor=3.0
        )
        ref = DualPrimalMatchingSolver(seed=7, **kw).solve(g)
        (got,) = DualPrimalMatchingSolver(**kw).solve_many([g], seeds=[7])
        assert any(h["witness"] for h in ref.history)  # route exercised
        assert_results_equal(ref, got)

    def test_bmatching_capacities(self):
        g = with_random_capacities(
            with_uniform_weights(gnm_graph(16, 50, seed=9), 1, 20, seed=10), 1, 3, seed=11
        )
        ref = DualPrimalMatchingSolver(eps=0.3, seed=5, **FAST).solve(g)
        (got,) = DualPrimalMatchingSolver(eps=0.3, **FAST).solve_many([g], seeds=[5])
        assert_results_equal(ref, got)

    def test_shared_config_seed(self):
        """Without explicit seeds, every instance uses config.seed."""
        graphs = [triangle_gadget(0.1), with_uniform_weights(gnm_graph(14, 40, seed=12), seed=13)]
        solver = DualPrimalMatchingSolver(SolverConfig(eps=0.3, seed=99, **FAST))
        got = solver.solve_many(graphs)
        for g, r in zip(graphs, got):
            ref = DualPrimalMatchingSolver(SolverConfig(eps=0.3, seed=99, **FAST)).solve(g)
            assert_results_equal(ref, r)

    def test_seeds_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one entry per graph"):
            DualPrimalMatchingSolver().solve_many([Graph.empty(2)], seeds=[1, 2])

    def test_none_seed_entry_falls_back_to_config_seed(self):
        g = with_uniform_weights(gnm_graph(14, 40, seed=1), seed=2)
        cfg = SolverConfig(eps=0.3, seed=5, **FAST)
        got = DualPrimalMatchingSolver(cfg).solve_many([g], seeds=[None])[0]
        ref = DualPrimalMatchingSolver(SolverConfig(eps=0.3, seed=5, **FAST)).solve(g)
        assert_results_equal(ref, got)


class TestBatchRepresentation:
    def test_offsets_and_views(self):
        graphs = [
            with_uniform_weights(gnm_graph(10, 25, seed=1), seed=2),
            with_uniform_weights(gnm_graph(7, 15, seed=3), 1, 9, seed=4),
        ]
        b = GraphBatch.from_graphs(graphs, eps=0.25)
        assert b.size == 2
        assert b.vl_off[-1] == sum(g.n * lv.num_levels for g, lv in zip(graphs, b.levels))
        buf = b.zeros_vl()
        v0 = b.vl_view(buf, 0)
        assert v0.shape == (graphs[0].n, b.levels[0].num_levels)
        v0[:] = 1.0
        assert buf[: v0.size].sum() == v0.size  # views alias the flat buffer
        # wk tables match each instance's own level weights exactly
        for i, lv in enumerate(b.levels):
            expect = lv.level_weight(np.arange(lv.num_levels))
            assert np.array_equal(b.l_view(b.wk_l, i), expect)

    def test_vl_runs_cover_space(self):
        graphs = [gnm_graph(6, 12, seed=1), gnm_graph(9, 20, seed=2)]
        b = GraphBatch.from_graphs(graphs, eps=0.3)
        covered = sum(hi - lo for lo, hi, _, _, _ in b.vl_runs)
        assert covered == int(b.vl_off[-1])


# ----------------------------------------------------------------------
# Property test: solve_many == k independent solves, value for value
# ----------------------------------------------------------------------
@st.composite
def small_instances(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    m = draw(st.integers(min_value=1, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    wmax = draw(st.sampled_from([1.0, 4.0, 33.0]))
    g = gnm_graph(n, m, seed=seed)
    if wmax > 1.0:
        g = with_uniform_weights(g, 1.0, wmax, seed=seed + 1)
    if draw(st.booleans()):
        g = with_random_capacities(g, 1, 3, seed=seed + 2)
    return g


@given(
    graphs=st.lists(small_instances(), min_size=1, max_size=4),
    eps=st.sampled_from([0.2, 0.3]),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_solve_many_matches_independent_solves(graphs, eps, seed):
    seeds = [seed + i for i in range(len(graphs))]
    kw = dict(inner_steps=40, round_cap_factor=1.0)
    ref = [
        DualPrimalMatchingSolver(eps=eps, seed=s, **kw).solve(g) for g, s in zip(graphs, seeds)
    ]
    got = DualPrimalMatchingSolver(eps=eps, **kw).solve_many(graphs, seeds=seeds)
    for r, g2 in zip(ref, got):
        assert_results_equal(r, g2)


def test_discretize_consistency():
    """GraphBatch levels equal per-instance discretize output."""
    graphs = [with_uniform_weights(gnm_graph(8, 20, seed=1), seed=2)]
    b = GraphBatch.from_graphs(graphs, eps=0.25)
    solo = discretize(graphs[0], 0.25)
    assert np.array_equal(b.levels[0].level, solo.level)
    assert b.levels[0].num_levels == solo.num_levels
    assert b.levels[0].scale == solo.scale
