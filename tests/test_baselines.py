"""Tests for the baselines: Lattanzi filtering and McGregor streaming."""

import numpy as np
import pytest

from repro.api import Problem, run
from repro.graphgen import (
    gnm_graph,
    with_random_capacities,
    with_uniform_weights,
)
from repro.matching.exact import max_weight_matching_exact
from repro.matching.maximal import is_maximal
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger


def lattanzi(g, weighted=True, **options):
    """The ``baseline:lattanzi`` backend's matching (options: p, seed, ledger)."""
    problem = Problem(g, options={"weighted": weighted, **options})
    return run(problem, backend="baseline:lattanzi").matching


def mcgregor(g, **options):
    """The ``baseline:mcgregor`` backend's matching (options: eps, seed, ledger)."""
    return run(Problem(g, options=options), backend="baseline:mcgregor").matching


class TestLattanziUnweighted:
    def test_valid_and_maximal(self):
        g = gnm_graph(40, 300, seed=0)
        m = lattanzi(g, weighted=False, p=2.0, seed=1)
        assert m.is_valid()
        assert is_maximal(m)

    def test_half_approximation_cardinality(self):
        g = gnm_graph(40, 300, seed=2)
        m = lattanzi(g, weighted=False, p=2.0, seed=3)
        opt = len(max_weight_matching_exact(g).edge_ids)
        assert m.size() >= opt / 2

    def test_rounds_accounted(self):
        g = gnm_graph(40, 400, seed=4)
        led = ResourceLedger()
        lattanzi(g, weighted=False, p=2.0, seed=5, ledger=led)
        assert led.sampling_rounds >= 1


class TestLattanziWeighted:
    def test_valid(self):
        g = with_uniform_weights(gnm_graph(30, 200, seed=6), 1, 100, seed=7)
        m = lattanzi(g, p=2.0, seed=8)
        assert m.is_valid()

    def test_constant_approximation(self):
        """8-approx in theory; should be far better on random graphs."""
        g = with_uniform_weights(gnm_graph(30, 200, seed=9), 1, 100, seed=10)
        m = lattanzi(g, p=2.0, seed=11)
        opt = max_weight_matching_exact(g).weight()
        assert m.weight() >= opt / 8.0

    def test_bmatching_generalization(self):
        g = with_random_capacities(
            with_uniform_weights(gnm_graph(25, 120, seed=12), seed=13), 1, 3, seed=14
        )
        m = lattanzi(g, p=2.0, seed=15)
        assert m.is_valid()

    def test_empty(self):
        m = lattanzi(Graph.empty(4), seed=0)
        assert m.size() == 0


class TestMcGregor:
    def test_valid_matching(self):
        g = gnm_graph(30, 150, seed=16)
        m = mcgregor(g, eps=0.2, seed=17)
        assert m.is_valid()

    def test_beats_half_on_random(self):
        g = gnm_graph(40, 100, seed=18)
        m = mcgregor(g, eps=0.2, seed=19)
        import networkx as nx

        opt = len(nx.max_weight_matching(g.to_networkx(), maxcardinality=True))
        assert m.size() >= opt / 2

    def test_augmentation_improves_path(self):
        """Path of 3 edges: greedy may take the middle; augmentation fixes."""
        g = Graph.from_edges(4, [(1, 2), (0, 1), (2, 3)])  # middle first
        m = mcgregor(g, eps=0.1, seed=20)
        assert m.size() == 2

    def test_pass_accounting(self):
        g = gnm_graph(20, 60, seed=21)
        led = ResourceLedger()
        mcgregor(g, eps=0.3, seed=22, ledger=led)
        assert led.sampling_rounds >= 2  # initial pass + >= 1 epoch
