"""Tests for b-matching algorithms (repro.matching.bmatching)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphgen.random_graphs import gnm_graph
from repro.graphgen.weighted import with_uniform_weights


def gnm_random_graph(n, m, seed=0, weighted=False):
    g = gnm_graph(n, m, seed=seed)
    return with_uniform_weights(g, 1.0, 10.0, seed=seed + 1) if weighted else g
from repro.matching.bmatching import (
    bmatching_local_search,
    capacitated_bmatching_greedy,
    round_fractional_bmatching,
)
from repro.core.lp_library import solve_lp1
from repro.matching.exact import max_weight_bmatching_exact
from repro.util.graph import Graph


def triangle(b=(1, 1, 1), w=(1.0, 1.0, 1.0)):
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)], w, b=np.asarray(b))


class TestCapacitatedGreedy:
    def test_respects_per_edge_cap(self):
        g = triangle(b=(3, 3, 3))
        m = capacitated_bmatching_greedy(g)
        assert np.all(m.multiplicity == 1)
        assert m.is_valid()

    def test_takes_all_edges_when_capacity_allows(self):
        g = triangle(b=(2, 2, 2))
        m = capacitated_bmatching_greedy(g)
        assert m.size() == 3  # the whole triangle fits

    def test_b_one_equals_plain_matching_size(self):
        g = triangle(b=(1, 1, 1))
        m = capacitated_bmatching_greedy(g)
        assert m.size() == 1

    def test_prefers_heavy_edges(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], [1.0, 10.0, 1.0])
        m = capacitated_bmatching_greedy(g)
        taken = set(map(tuple, np.column_stack([g.src[m.edge_ids], g.dst[m.edge_ids]])))
        assert (1, 2) in taken

    def test_empty_graph(self):
        m = capacitated_bmatching_greedy(Graph.empty(5))
        assert m.size() == 0

    def test_half_approximation_on_random(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            g = gnm_random_graph(12, 30, seed=seed, weighted=True)
            g = g.with_b(rng.integers(1, 3, size=12))
            m = capacitated_bmatching_greedy(g)
            assert m.is_valid()
            # compare against uncapacitated optimum (an upper bound)
            opt = max_weight_bmatching_exact(g).weight()
            assert m.weight() >= 0.5 * opt - 1e-9 or opt == 0.0


class TestRoundFractional:
    def test_integral_input_passthrough(self):
        g = triangle(b=(2, 2, 2))
        y = np.array([1.0, 1.0, 1.0])
        m = round_fractional_bmatching(g, y, sweeten=False)
        assert m.size() == 3
        assert m.is_valid()

    def test_fractional_half_triangle(self):
        # LP1 without odd sets allows y = 1/2 everywhere on a triangle
        g = triangle()
        y = np.full(3, 0.5)
        m = round_fractional_bmatching(g, y)
        assert m.is_valid()
        assert m.size() == 1  # integral optimum of the unit triangle

    def test_rounding_never_loses_more_than_fraction(self):
        # on bipartite instances with LP-optimal y the rounding keeps
        # at least the floor part, and sweetening recovers maximality
        g = Graph.from_edges(4, [(0, 2), (1, 3), (0, 3)], [3.0, 2.0, 1.0])
        lp = solve_lp1(g)
        m = round_fractional_bmatching(g, lp.variables["y"])
        assert m.weight() >= lp.value - 1e-6  # bipartite LP is integral

    def test_validates_length(self):
        with pytest.raises(ValueError):
            round_fractional_bmatching(triangle(), np.zeros(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            round_fractional_bmatching(triangle(), np.array([-0.5, 0, 0]))

    def test_zero_vector_sweetens_to_maximal(self):
        g = triangle(b=(1, 1, 1))
        m = round_fractional_bmatching(g, np.zeros(3))
        assert m.size() == 1  # sweetening pass grabs an edge

    def test_respects_capacities_on_overfull_y(self):
        # y deliberately infeasible: rounding must still emit a valid matching
        g = triangle(b=(1, 1, 1))
        m = round_fractional_bmatching(g, np.array([5.0, 5.0, 5.0]))
        assert m.is_valid()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_always_valid_on_random_y(self, seed):
        rng = np.random.default_rng(seed)
        g = gnm_random_graph(10, 20, seed=seed % 100, weighted=True)
        g = g.with_b(rng.integers(1, 4, size=10))
        y = rng.random(g.m) * 2.0
        m = round_fractional_bmatching(g, y)
        assert m.is_valid()


class TestBMatchingLocalSearch:
    def test_improves_or_matches_greedy(self):
        for seed in range(8):
            g = gnm_random_graph(14, 40, seed=seed, weighted=True)
            g = g.with_b(np.random.default_rng(seed).integers(1, 3, size=14))
            from repro.matching.greedy import greedy_bmatching

            greedy_w = greedy_bmatching(g).weight()
            ls = bmatching_local_search(g)
            assert ls.is_valid()
            assert ls.weight() >= greedy_w - 1e-9

    def test_near_optimal_on_small_instances(self):
        for seed in range(5):
            g = gnm_random_graph(8, 16, seed=seed, weighted=True)
            g = g.with_b(np.random.default_rng(seed).integers(1, 3, size=8))
            ls = bmatching_local_search(g)
            opt = max_weight_bmatching_exact(g).weight()
            if opt > 0:
                assert ls.weight() / opt >= 0.6

    def test_steal_move_applies(self):
        # path a-b-c with heavy middle: greedy with order pathology can
        # be improved by stealing a unit
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], [5.0, 8.0, 5.0])
        ls = bmatching_local_search(g)
        # optimum is {(0,1),(2,3)} = 10
        assert ls.weight() == pytest.approx(10.0)

    def test_empty_graph(self):
        assert bmatching_local_search(Graph.empty(3)).size() == 0
