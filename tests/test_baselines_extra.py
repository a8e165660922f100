"""Tests for the gamma-charging and auction baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Problem, run
from repro.baselines.auction import bipartite_sides
from repro.baselines.streaming_weighted import charging_approximation_bound
from repro.graphgen.bipartite import random_bipartite
from repro.graphgen.random_graphs import gnm_graph
from repro.graphgen.weighted import with_uniform_weights
from repro.matching.exact import max_weight_matching_exact
from repro.streaming.stream import EdgeStream
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger


def one_pass(source, **options):
    """The ``baseline:one_pass`` backend's matching over a graph or a
    pre-built :class:`EdgeStream` (options: gamma)."""
    if isinstance(source, EdgeStream):
        options["stream"] = source
        source = source.graph
    return run(Problem(source, options=options), backend="baseline:one_pass").matching


def auction(g, **options):
    """The ``baseline:auction`` backend's matching (options: eps, ledger)."""
    return run(Problem(g, options=options), backend="baseline:auction").matching


def weighted_gnm(n, m, seed=0):
    return with_uniform_weights(gnm_graph(n, m, seed=seed), 1.0, 10.0, seed=seed + 1)


class TestChargingBound:
    def test_known_values(self):
        # gamma = 1 gives the classic Feigenbaum et al. 1/6
        assert charging_approximation_bound(1.0) == pytest.approx(1.0 / 3.0)
        # bound at the McGregor-optimal gamma exceeds the gamma=2 bound
        assert charging_approximation_bound(2**-0.5) > charging_approximation_bound(4.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            charging_approximation_bound(0.0)


class TestOnePassWeighted:
    def test_valid_matching(self):
        g = weighted_gnm(30, 100, seed=3)
        m = one_pass(g)
        assert m.is_valid()
        assert np.all(m.multiplicity == 1)

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)], [5.0])
        m = one_pass(g)
        assert m.weight() == pytest.approx(5.0)

    def test_replacement_needs_gamma_factor(self):
        # second edge barely heavier: must NOT replace at gamma=1
        g = Graph.from_edges(3, [(0, 1), (1, 2)], [10.0, 11.0])
        m = one_pass(EdgeStream(g), gamma=1.0)
        assert set(m.edge_ids.tolist()) == {0}
        # but a 3x heavier edge does replace
        g2 = Graph.from_edges(3, [(0, 1), (1, 2)], [10.0, 30.0])
        m2 = one_pass(EdgeStream(g2), gamma=1.0)
        assert set(m2.edge_ids.tolist()) == {1}

    def test_beats_its_guarantee(self):
        gamma = 2**-0.5
        bound = charging_approximation_bound(gamma)
        for seed in range(6):
            g = weighted_gnm(20, 60, seed=seed)
            m = one_pass(EdgeStream(g), gamma=gamma)
            opt = max_weight_matching_exact(g).weight()
            if opt > 0:
                assert m.weight() / opt >= bound - 1e-9

    def test_one_pass_only(self):
        ledger = ResourceLedger()
        g = weighted_gnm(15, 40, seed=9)
        stream = EdgeStream(g, ledger=ledger)
        one_pass(stream)
        assert ledger.sampling_rounds == 1

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            one_pass(Graph.empty(2), gamma=0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_always_valid(self, seed):
        g = weighted_gnm(12, 25, seed=seed)
        m = one_pass(g)
        assert m.is_valid()


class TestBipartiteSides:
    def test_bipartite_detected(self):
        g = random_bipartite(5, 7, 18, seed=1)
        sides = bipartite_sides(g)
        assert sides is not None
        left, right = sides
        # no edge inside a side
        assert not np.any(left[g.src] & left[g.dst])
        assert not np.any(right[g.src] & right[g.dst])

    def test_odd_cycle_rejected(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert bipartite_sides(g) is None

    def test_even_cycle_ok(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert bipartite_sides(g) is not None

    def test_isolated_vertices(self):
        g = Graph.from_edges(5, [(0, 1)])
        sides = bipartite_sides(g)
        assert sides is not None


class TestAuction:
    def test_rejects_nonbipartite(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            auction(g)

    def test_near_optimal_on_random_bipartite(self):
        for seed in range(5):
            g = random_bipartite(8, 8, 32, seed=seed)
            if g.m == 0:
                continue
            m = auction(g, eps=0.05)
            assert m.is_valid()
            opt = max_weight_matching_exact(g).weight()
            # additive guarantee: OPT - n_left * delta = OPT - eps * max_w
            assert m.weight() >= opt - 0.05 * float(g.weight.max()) * 8 - 1e-9
            assert m.weight() >= 0.85 * opt

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)], [3.0])
        m = auction(g, eps=0.1)
        assert m.weight() == pytest.approx(3.0)

    def test_competition_resolves_correctly(self):
        # two left vertices want the same right vertex; the heavier wins
        # and the loser takes its alternative
        g = Graph.from_edges(
            4, [(0, 2), (1, 2), (1, 3)], [5.0, 6.0, 4.0]
        )
        m = auction(g, eps=0.01)
        assert m.weight() == pytest.approx(9.0)  # (0,2)+(1,3)

    def test_rounds_counted(self):
        ledger = ResourceLedger()
        g = random_bipartite(6, 6, 22, seed=3)
        auction(g, eps=0.1, ledger=ledger)
        assert ledger.sampling_rounds >= 1

    def test_rounds_grow_as_eps_shrinks(self):
        g = random_bipartite(10, 10, 70, seed=4)
        rounds = []
        for eps in (0.5, 0.05):
            ledger = ResourceLedger()
            auction(g, eps=eps, ledger=ledger)
            rounds.append(ledger.sampling_rounds)
        # the motivating contrast with O(p/eps): auction sweeps increase
        # (or at least do not decrease) as the guarantee tightens
        assert rounds[1] >= rounds[0]

    def test_empty_graph(self):
        assert auction(Graph.empty(4)).size() == 0

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            auction(Graph.empty(2), eps=0.0)
