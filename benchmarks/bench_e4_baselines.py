"""E4: dual-primal vs Lattanzi et al. filtering [25] and McGregor [29].

Regenerates the comparison the paper's introduction frames: the
filtering baseline gets an O(1) approximation in O(p) rounds; the
dual-primal algorithm reaches (1-eps) with O(p/eps) rounds at the same
space regime.  "Who wins, by what factor": dual-primal quality must
dominate; filtering is (much) faster.
"""

import pytest

from repro.api import Problem, run
from repro.core.matching_solver import DualPrimalMatchingSolver
from repro.graphgen import gnm_graph, with_uniform_weights
from repro.matching.exact import max_weight_matching_exact
from repro.util.instrumentation import ResourceLedger


def baseline(backend, g, **options):
    """A baseline backend's matching (options: p/eps, seed, ledger)."""
    return run(Problem(g, options=options), backend=backend).matching


@pytest.fixture(scope="module")
def instance():
    g = with_uniform_weights(gnm_graph(50, 350, seed=0), 1, 100, seed=1)
    opt = max_weight_matching_exact(g).weight()
    return g, opt


def test_e4_dual_primal(benchmark, experiment_table, instance):
    g, opt = instance
    res = benchmark.pedantic(
        lambda: DualPrimalMatchingSolver(eps=0.2, seed=2, inner_steps=300).solve(g),
        rounds=1,
        iterations=1,
    )
    experiment_table(
        "E4 dual-primal",
        ["algorithm", "ratio", "rounds", "guarantee"],
        [["dual-primal", f"{res.weight / opt:.4f}", res.rounds, "1 - O(eps)"]],
    )
    benchmark.extra_info.update({"ratio": res.weight / opt, "rounds": res.rounds})
    assert res.weight / opt >= 0.8


def test_e4_lattanzi(benchmark, experiment_table, instance):
    g, opt = instance

    def run():
        led = ResourceLedger()
        m = baseline("baseline:lattanzi", g, p=2.0, seed=3, ledger=led)
        return m, led

    m, led = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_table(
        "E4 filtering [25]",
        ["algorithm", "ratio", "rounds", "guarantee"],
        [["lattanzi", f"{m.weight() / opt:.4f}", led.sampling_rounds, "O(1) (1/8)"]],
    )
    benchmark.extra_info.update(
        {"ratio": m.weight() / opt, "rounds": led.sampling_rounds}
    )
    assert m.weight() / opt >= 1 / 8


def test_e4_mcgregor_unweighted(benchmark, experiment_table):
    g = gnm_graph(50, 200, seed=4)
    import networkx as nx

    opt = len(nx.max_weight_matching(g.to_networkx(), maxcardinality=True))

    def run():
        led = ResourceLedger()
        m = baseline("baseline:mcgregor", g, eps=0.2, seed=5, ledger=led)
        return m, led

    m, led = benchmark.pedantic(run, rounds=1, iterations=1)
    experiment_table(
        "E4 mcgregor [29] (unweighted)",
        ["algorithm", "ratio", "passes", "guarantee"],
        [["mcgregor", f"{m.size() / opt:.4f}", led.sampling_rounds, "2^O(1/eps) passes"]],
    )
    benchmark.extra_info.update({"ratio": m.size() / opt})
    assert m.size() / opt >= 0.5


def test_e4_quality_ordering(experiment_table, instance):
    """The headline row: dual-primal >= filtering on the same instance."""
    g, opt = instance
    dp = DualPrimalMatchingSolver(eps=0.2, seed=6, inner_steps=200).solve(g).weight
    lt = baseline("baseline:lattanzi", g, p=2.0, seed=7).weight()
    experiment_table(
        "E4 who wins",
        ["dual-primal", "filtering", "dp/filter"],
        [[f"{dp / opt:.4f}", f"{lt / opt:.4f}", f"{dp / lt:.3f}"]],
    )
    assert dp >= lt - 1e-9
