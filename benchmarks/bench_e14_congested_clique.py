"""E14: congested-clique message budgets (Section 1, Related Work).

Regenerates: the O(n^{1/p})-words-per-vertex / rounds tradeoff of the
sketch-shipping protocol on the clique simulator -- tightening the
per-round message budget stretches the same total communication across
proportionally more rounds, with correctness unaffected.
"""

import networkx as nx
import pytest

from repro.api import ModelBudgets, Problem, run
from repro.graphgen import gnm_graph
from repro.mapreduce.accounting import message_size_budget


def clique_forest(g, message_budget, seed):
    """The ``congested_clique`` backend's forest and its simulator."""
    problem = Problem(
        g,
        task="spanning_forest",
        budgets=ModelBudgets(clique_message_words=message_budget),
        options={"seed": seed},
    )
    result = run(problem, backend="congested_clique")
    return result.forest, result.extras["clique"]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_e14_message_budget_tradeoff(benchmark, experiment_table, p):
    g = gnm_graph(24, 120, seed=1)
    budget = int(message_size_budget(g.n, p, polylog_power=3))

    def run():
        return clique_forest(g, message_budget=budget, seed=2)

    forest, clique = benchmark.pedantic(run, rounds=1, iterations=1)
    ncc = nx.number_connected_components(g.to_networkx())
    experiment_table(
        f"E14 p={p}",
        ["p", "budget (words)", "rounds", "max words/vertex", "forest ok"],
        [
            [
                p,
                budget,
                clique.rounds,
                clique.max_vertex_words,
                len(forest) == g.n - ncc,
            ]
        ],
    )
    benchmark.extra_info.update(
        {"p": p, "budget": budget, "rounds": clique.rounds}
    )
    assert len(forest) == g.n - ncc
    assert clique.max_vertex_words <= budget


def test_e14_rounds_grow_as_budget_shrinks(benchmark, experiment_table):
    g = gnm_graph(20, 90, seed=3)

    def sweep():
        out = []
        for budget in (10_000, 1_000, 200):
            forest, clique = clique_forest(
                g, message_budget=budget, seed=4
            )
            out.append((budget, clique.rounds, clique.max_vertex_words, len(forest)))
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    experiment_table(
        "E14 budget sweep",
        ["budget", "rounds", "max words/vertex", "forest edges"],
        [list(r) for r in rows],
    )
    rounds = [r[1] for r in rows]
    sizes = [r[3] for r in rows]
    assert rounds[0] <= rounds[1] <= rounds[2]
    assert len(set(sizes)) == 1  # correctness independent of the budget
