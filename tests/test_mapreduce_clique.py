"""Tests for the congested-clique simulator (repro.mapreduce.clique_sim)."""

import networkx as nx
import numpy as np
import pytest

from repro.api import ModelBudgets, Problem, run
from repro.graphgen.random_graphs import gnm_graph
from repro.mapreduce.clique_sim import CongestedClique, MessageBudgetExceeded
from repro.util.graph import Graph


def clique_forest(g, message_budget=None, seed=None):
    """The ``congested_clique`` backend's forest and its simulator."""
    problem = Problem(
        g,
        task="spanning_forest",
        budgets=ModelBudgets(clique_message_words=message_budget),
        options={"seed": seed},
    )
    result = run(problem, backend="congested_clique")
    return result.forest, result.extras["clique"]


class TestSimulator:
    def test_messages_delivered_next_round(self):
        clique = CongestedClique(n=3)
        clique.run_round(lambda v, inbox: [((v + 1) % 3, f"from {v}", 1)])
        # delivery is synchronous: nothing visible during the round,
        # everything queued after it
        assert clique.inbox(1) == ["from 0"]
        assert clique.inbox(0) == ["from 2"]
        assert clique.rounds == 1

    def test_inbox_consumed_by_next_round(self):
        clique = CongestedClique(n=2)
        clique.run_round(lambda v, inbox: [(1 - v, v, 1)])
        seen = {}

        def record(v, inbox):
            seen[v] = list(inbox)
            return []

        clique.run_round(record)
        assert seen == {0: [1], 1: [0]}
        assert clique.inbox(0) == []

    def test_budget_enforced(self):
        clique = CongestedClique(n=2, message_budget=3)
        with pytest.raises(MessageBudgetExceeded):
            clique.run_round(lambda v, inbox: [(1 - v, "x", 4)])

    def test_budget_is_per_round_total(self):
        clique = CongestedClique(n=2, message_budget=3)
        # two sends of 2 words = 4 > 3: must trip
        with pytest.raises(MessageBudgetExceeded):
            clique.run_round(
                lambda v, inbox: [(1 - v, "a", 2), (1 - v, "b", 2)]
            )

    def test_word_accounting(self):
        clique = CongestedClique(n=4)
        clique.run_round(lambda v, inbox: [(0, v, 5)] if v else [])
        assert clique.total_words == 15
        assert clique.max_vertex_words == 5

    def test_destination_validation(self):
        clique = CongestedClique(n=2)
        with pytest.raises(ValueError):
            clique.run_round(lambda v, inbox: [(7, "x", 1)])


class TestCliqueSpanningForest:
    def _check_forest(self, g: Graph, forest):
        nxg = g.to_networkx()
        true_components = nx.number_connected_components(nxg)
        assert len(forest) == g.n - true_components
        # forest edges must be real edges
        keys = set(zip(g.src.tolist(), g.dst.tolist()))
        for i, j in forest:
            assert (min(i, j), max(i, j)) in keys
        # and acyclic
        f = nx.Graph(forest)
        assert nx.is_forest(f)

    def test_connected_graph(self):
        g = gnm_graph(20, 80, seed=1)
        forest, clique = clique_forest(g, seed=2)
        self._check_forest(g, forest)

    def test_disconnected_graph(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        forest, _ = clique_forest(g, seed=3)
        self._check_forest(g, forest)

    def test_budget_splits_into_more_rounds(self):
        g = gnm_graph(12, 40, seed=4)
        _, free = clique_forest(g, message_budget=None, seed=5)
        # a tight budget forces chunked shipping = more rounds
        words = free.max_vertex_words or 1
        _, tight = clique_forest(
            g, message_budget=max(1, words // 4) or 1, seed=5
        )
        assert tight.rounds >= free.rounds
        assert tight.max_vertex_words <= max(1, words // 4)

    def test_budget_violation_detected_when_impossible(self):
        # chunking keeps per-round words under the cap, so even budget 1
        # succeeds -- but the round count blows up linearly
        g = gnm_graph(8, 20, seed=6)
        forest, clique = clique_forest(g, message_budget=50, seed=7)
        self._check_forest(g, forest)
        assert clique.max_vertex_words <= 50

    def test_empty_graph(self):
        forest, clique = clique_forest(Graph.empty(0))
        assert forest == []
