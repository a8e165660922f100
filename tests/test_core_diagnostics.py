"""Tests for dual-state diagnostics (repro.core.diagnostics)."""

import numpy as np
import pytest

from repro.core.diagnostics import active_odd_sets, odd_set_budget
from repro.core.levels import discretize
from repro.core.matching_solver import DualPrimalMatchingSolver
from repro.core.relaxations import LayeredDual
from repro.graphgen import gnm_graph, odd_cycle_chain, with_uniform_weights
from repro.util.graph import Graph


class TestInventory:
    def _dual(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        return LayeredDual(discretize(g, 0.2))

    def test_empty_dual(self):
        inv = active_odd_sets(self._dual())
        assert inv.active_pairs == 0
        assert inv.distinct_sets == 0
        assert inv.total_mass == 0.0

    def test_counts(self):
        d = self._dual()
        d.z[((0, 1, 2), 0)] = 0.5
        d.z[((0, 1, 2), 1)] = 0.25
        d.z[((2, 3, 4), 0)] = 1.0
        d.z[((1, 2, 3), 0)] = 0.0  # below tol: ignored
        inv = active_odd_sets(d)
        assert inv.active_pairs == 3
        assert inv.distinct_sets == 2
        assert inv.max_set_size == 3
        assert inv.total_mass == pytest.approx(1.75)

    def test_words_accounting(self):
        d = self._dual()
        d.z[((0, 1, 2), 0)] = 0.5
        inv = active_odd_sets(d)
        assert inv.words() == 1 + 1 * 3


class TestBudget:
    def test_budget_formula(self):
        lg = np.log2(100)
        b = odd_set_budget(100, 100, eps=0.5, constant=1.0)
        # eps^-5 * log2(B) * log2(n)^2 * log2(1/eps)^2
        assert b == pytest.approx(0.5**-5 * lg * lg**2 * 1.0)

    def test_budget_grows_as_eps_shrinks(self):
        assert odd_set_budget(100, 100, 0.1) > odd_set_budget(100, 100, 0.2)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            odd_set_budget(10, 10, eps=0.0)


class TestSolverStaysInsideBudget:
    def test_solver_odd_set_support_sparse(self):
        g = odd_cycle_chain(4, 5)
        res = DualPrimalMatchingSolver(eps=0.2, seed=1, inner_steps=150).solve(g)
        # inventory the final certificate's z (original-units view)
        count = len(res.certificate.z)
        budget = odd_set_budget(g.n, g.total_capacity, 0.2)
        assert count <= budget
        # and the support is genuinely sparse relative to 2^n
        assert count < 64

    def test_random_graph_support_sparse(self):
        g = with_uniform_weights(gnm_graph(24, 100, seed=2), 1, 20, seed=3)
        res = DualPrimalMatchingSolver(eps=0.25, seed=4, inner_steps=100).solve(g)
        assert len(res.certificate.z) <= odd_set_budget(g.n, g.n, 0.25)
