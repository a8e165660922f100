"""Tests for the graph generators."""

import numpy as np
import pytest

from repro.graphgen import (
    assignment_instance,
    barbell_odd,
    crown_graph,
    geometric_graph,
    gnm_graph,
    gnp_graph,
    odd_cycle_chain,
    power_law_graph,
    random_bipartite,
    triangle_gadget,
    with_exponential_weights,
    with_level_weights,
    with_random_capacities,
    with_uniform_weights,
)
from repro.core.lp_library import solve_lp1
from repro.matching.exact import max_weight_matching_exact


class TestRandomFamilies:
    def test_gnm_edge_count(self):
        g = gnm_graph(50, 300, seed=0)
        assert g.m == 300
        assert g.n == 50

    def test_gnm_deterministic(self):
        a, b = gnm_graph(30, 100, seed=5), gnm_graph(30, 100, seed=5)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_gnm_caps_at_complete(self):
        g = gnm_graph(5, 100, seed=1)
        assert g.m == 10

    def test_gnm_no_duplicates_or_loops(self):
        g = gnm_graph(25, 120, seed=2)
        assert len(np.unique(g.edge_keys())) == g.m
        assert np.all(g.src != g.dst)

    def test_gnp_density(self):
        g = gnp_graph(40, 0.3, seed=3)
        expected = 0.3 * 40 * 39 / 2
        assert abs(g.m - expected) < 0.3 * expected + 20

    def test_power_law_degree_skew(self):
        g = power_law_graph(200, exponent=2.3, avg_degree=4, seed=4)
        deg = g.degrees()
        assert deg.max() >= 4 * max(1, np.median(deg))

    def test_geometric_weights_decrease_with_distance(self):
        g = geometric_graph(60, radius=0.3, seed=5)
        assert g.m > 0
        assert np.all(g.weight > 0)


class TestBipartite:
    def test_random_bipartite_sides(self):
        g = random_bipartite(10, 15, 40, seed=6)
        assert np.all(g.src < 10)
        assert np.all(g.dst >= 10)

    def test_assignment_instance_structure(self):
        g = assignment_instance(8, 12, seed=7)
        assert g.n == 20
        assert np.all(g.weight >= 1.0)


class TestHardInstances:
    def test_triangle_alone_needs_odd_set(self):
        """Unit triangle: bipartite LP 1.5 vs integral 1 (the odd-set gap).

        Expectation derivation: on the unit triangle {0,1,2} the vertex
        LP admits ``y_e = 1/2`` on all three edges (each vertex
        constraint is tight at 1), value ``3/2``; any integral matching
        uses at most one triangle edge, value ``1``; the odd-set
        constraint ``y(0,1,2) <= floor(3/2) = 1`` closes the gap.

        Seed-test defect this replaces: ``Graph.from_edges``
        canonicalizes edge order (sorted by ``(src, dst)``), so the
        gadget's edges are ``(0,1),(0,2),(0,3),(1,2)`` and the triangle
        is edge ids ``{0, 1, 3}`` -- the original
        ``edge_subgraph([0, 1, 2])`` selected the *star*
        ``{(0,1),(0,2),(0,3)}``, whose bipartite LP optimum is 1.0 (all
        mass at vertex 0), so the 1.5 expectation could never hold.  We
        now select the triangle structurally (edges avoiding the
        pendant vertex 3).
        """
        g = triangle_gadget(0.1)
        triangle_ids = np.flatnonzero((g.src != 3) & (g.dst != 3))
        g = g.edge_subgraph(triangle_ids)
        bip = solve_lp1(g, odd_set_cap=0).value
        full = solve_lp1(g).value
        integral = max_weight_matching_exact(g).weight()
        assert bip == pytest.approx(1.5)
        assert full == pytest.approx(integral) == pytest.approx(1.0)

    def test_triangle_gadget_width_blowup(self):
        """The figure's point: LP2's width grows with the heavy edge /
        with 1/eps, while the penalty dual's width is a constant.

        Expectation derivation: the gadget's pendant edge has weight
        ``h = 1/(10 eps)``.  For ``eps <= 0.1`` (``h >= 1``) the
        maximum matching is the pendant edge plus one triangle edge,
        ``beta = 1 + h``, and LP2's width is attained at a unit
        triangle edge whose cheapest unit of coverage costs 1 (vertex
        variable or the ``floor(3/2) = 1`` odd set alike), so
        ``width = beta * 1 / 1 = 1 + 1/(10 eps)`` -- growing as
        ``eps`` shrinks.

        Seed-test defect this replaces: the original sweep used
        ``eps in (0.2, 0.1, 0.05)``, which straddles ``h = 1``: at
        ``eps = 0.2`` the "heavy" edge is *light* (``h = 1/2``) and the
        width ``beta / h = 3`` is attained at the pendant edge itself,
        so the sequence (3.0, 2.0, 3.0) was not monotone and the
        asserted ordering could never hold.  The sweep now stays in the
        ``h >= 1`` regime where the closed form above applies.
        """
        from repro.core.relaxations import covering_width_lp2, covering_width_lp4

        widths = {}
        for eps in (0.1, 0.05, 0.025):
            g = triangle_gadget(eps)
            beta = max_weight_matching_exact(g).weight()
            widths[eps] = covering_width_lp2(g, beta, odd_sets=[(0, 1, 2)])
            assert widths[eps] == pytest.approx(1.0 + 1.0 / (10.0 * eps))
        # width grows as the gadget's heavy edge grows (~1/eps)
        assert widths[0.025] > widths[0.05] > widths[0.1]
        g = triangle_gadget(0.05)
        assert covering_width_lp4(g) == pytest.approx(6.0)

    def test_odd_cycle_chain_gap(self):
        g = odd_cycle_chain(n_cycles=3, cycle_len=5)
        bip = solve_lp1(g, odd_set_cap=0).value
        integral = max_weight_matching_exact(g).weight()
        assert bip >= integral + 3 * 0.5 - 0.3  # each C5 contributes ~1/2

    def test_odd_cycle_rejects_even(self):
        with pytest.raises(ValueError):
            odd_cycle_chain(cycle_len=4)

    def test_crown_perfect_matching(self):
        g = crown_graph(5)
        assert max_weight_matching_exact(g).weight() == pytest.approx(5.0)

    def test_barbell_structure(self):
        g = barbell_odd(5)
        assert g.n == 10
        assert max_weight_matching_exact(g).weight() >= 4.0

    def test_barbell_rejects_even_clique(self):
        with pytest.raises(ValueError):
            barbell_odd(4)


class TestWeightDecorators:
    def test_uniform_weights_range(self, small_graph):
        g = with_uniform_weights(small_graph, 2.0, 9.0, seed=8)
        assert np.all((2.0 <= g.weight) & (g.weight <= 9.0))
        assert g.m == small_graph.m

    def test_exponential_weights_min_one(self, small_graph):
        g = with_exponential_weights(small_graph, seed=9)
        assert np.all(g.weight >= 1.0)

    def test_level_weights_on_grid(self, small_graph):
        eps = 0.25
        g = with_level_weights(small_graph, eps, max_level=6, seed=10)
        ks = np.log(g.weight) / np.log1p(eps)
        assert np.allclose(ks, np.round(ks), atol=1e-9)

    def test_random_capacities_range(self, small_graph):
        g = with_random_capacities(small_graph, 2, 5, seed=11)
        assert np.all((2 <= g.b) & (g.b <= 5))

    def test_decorators_do_not_mutate_original(self, small_graph):
        before = small_graph.weight.copy()
        with_uniform_weights(small_graph, seed=12)
        assert np.array_equal(before, small_graph.weight)
