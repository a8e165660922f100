"""Tests for Theorem 22 (uncrossing) and Theorem 23 (layered relaxation)."""

import numpy as np
import pytest

from repro.core.laminar import (
    is_laminar,
    layered_from_flat,
    optimal_flat_dual,
    uncross_to_laminar,
)
from repro.core.levels import discretize
from repro.core.lp_library import solve_lp1
from repro.graphgen import gnm_graph, odd_cycle_chain, with_uniform_weights
from repro.matching.verify import verify_dual_upper_bound
from repro.util.graph import Graph


class TestIsLaminar:
    def test_disjoint_is_laminar(self):
        assert is_laminar([(0, 1, 2), (3, 4, 5)])

    def test_nested_is_laminar(self):
        assert is_laminar([(0, 1, 2, 3, 4), (1, 2, 3)])

    def test_crossing_is_not(self):
        assert not is_laminar([(0, 1, 2), (2, 3, 4)])

    def test_empty(self):
        assert is_laminar([])


class TestOptimalFlatDual:
    def test_dual_value_matches_primal_lp(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        val, x, z = optimal_flat_dual(g)
        lp = solve_lp1(g).value
        assert val == pytest.approx(lp, rel=1e-6)

    def test_dual_is_feasible(self):
        g = with_uniform_weights(gnm_graph(10, 25, seed=0), 1, 5, seed=1)
        val, x, z = optimal_flat_dual(g, odd_set_cap=3)
        bound = verify_dual_upper_bound(g, x, z, slack=1e-6)
        assert bound == pytest.approx(val, rel=1e-6)

    def test_c5_uses_odd_set(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        _val, _x, z = optimal_flat_dual(g)
        assert any(len(U) == 5 for U in z)


class TestUncrossing:
    def test_crossing_input_becomes_laminar(self):
        """Synthetic crossing z on a 5-cycle; feasibility is preserved."""
        g = Graph.from_edges(
            5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], np.full(5, 1.0)
        )
        x = np.full(5, 0.6)
        z = {(0, 1, 2): 0.4, (2, 3, 4): 0.4}  # cross at vertex 2
        bound_before = verify_dual_upper_bound(g, x, z)
        x2, z2 = uncross_to_laminar(g, x, z)
        assert is_laminar(list(z2))
        bound_after = verify_dual_upper_bound(g, x2, z2)
        assert bound_after <= bound_before + 1e-9

    def test_laminar_input_unchanged(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        x = np.zeros(3)
        z = {(0, 1, 2): 1.0}
        x2, z2 = uncross_to_laminar(g, x, z)
        assert z2 == {(0, 1, 2): 1.0}
        assert np.allclose(x2, x)

    def test_odd_intersection_union_rule(self):
        """b chosen so |A∩B| is odd: union+intersection move applies."""
        g = Graph.from_edges(
            7,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6), (2, 4)],
        )
        x = np.full(7, 1.0)
        z = {(0, 1, 2, 3, 4): 0.3, (2, 3, 4, 5, 6): 0.3}  # |A∩B| = 3 odd
        bound_before = verify_dual_upper_bound(g, x, z)
        x2, z2 = uncross_to_laminar(g, x, z)
        assert is_laminar(list(z2))
        assert verify_dual_upper_bound(g, x2, z2) <= bound_before + 1e-9


class TestLayeredFromFlat:
    def _roundtrip(self, g, eps):
        levels = discretize(g, eps)
        # optimal flat dual in ORIGINAL units; convert to rescaled
        val, x, z = optimal_flat_dual(g, odd_set_cap=int(4 / eps))
        x_resc = x / levels.scale
        z_resc = {U: v / levels.scale for U, v in z.items()}
        layered = layered_from_flat(levels, x_resc, z_resc)
        return levels, val, layered

    def test_layered_objective_within_constant(self):
        """Theorem 23: layered objective <= (1+eps)(flat objective) --
        checked in rescaled units with rounding slack."""
        g = odd_cycle_chain(2, 5)
        eps = 0.25
        levels, val, layered = self._roundtrip(g, eps)
        flat_rescaled = val / levels.scale
        assert layered.objective() <= (1 + eps) * flat_rescaled * (1 + eps) + 1e-6

    def test_layered_covers_edges(self):
        """Every live edge is covered to ~its nominal weight."""
        g = odd_cycle_chain(2, 5)
        eps = 0.25
        levels, _val, layered = self._roundtrip(g, eps)
        ids = levels.live_edges()
        cover = layered.edge_cover(ids)
        need = levels.level_weight(levels.level[ids])
        # flat dual covers true weight >= nominal ŵ_k; layering preserves
        # this up to the (1+eps) rounding
        assert np.all(cover >= need / (1 + eps) - 1e-9)

    def test_x_capped_at_level_weight(self):
        g = with_uniform_weights(gnm_graph(12, 30, seed=2), 1, 40, seed=3)
        eps = 0.3
        levels, _val, layered = self._roundtrip(g, eps)
        wk = levels.level_weight(np.arange(levels.num_levels))
        assert np.all(layered.x <= wk[None, :] + 1e-9)

    def test_z_levels_respect_saturation(self):
        """Cumulative z per vertex-level never exceeds ŵ_k."""
        g = odd_cycle_chain(2, 5)
        eps = 0.25
        levels, _val, layered = self._roundtrip(g, eps)
        load = layered.z_load()
        wk = levels.level_weight(np.arange(levels.num_levels))
        assert np.all(load <= wk[None, :] + 1e-9)
