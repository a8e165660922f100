"""E1: (1-eps)-approximation quality (Theorem 15).

Regenerates: approximation ratio of the dual-primal solver against the
exact optimum across graph families and eps, with the certified ratio
from the dual certificate alongside.  The paper's claim is the
*guarantee* ratio >= 1 - O(eps); the measured ratio is typically ~1.
"""

import pytest

from repro.core.matching_solver import DualPrimalMatchingSolver
from repro.graphgen import (
    gnm_graph,
    odd_cycle_chain,
    power_law_graph,
    with_uniform_weights,
)
from repro.matching.exact import max_weight_matching_exact

FAMILIES = {
    "gnm-uniform": lambda: with_uniform_weights(
        gnm_graph(60, 400, seed=1), 1, 100, seed=2
    ),
    "powerlaw": lambda: with_uniform_weights(
        power_law_graph(60, avg_degree=6, seed=3), 1, 50, seed=4
    ),
    "odd-chain": lambda: odd_cycle_chain(4, 5),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("eps", [0.1, 0.2, 0.3])
def test_e1_ratio(benchmark, experiment_table, family, eps):
    g = FAMILIES[family]()
    opt = max_weight_matching_exact(g).weight()

    def run():
        return DualPrimalMatchingSolver(eps=eps, seed=7, inner_steps=300).solve(g)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = res.weight / opt
    experiment_table(
        f"E1 {family} eps={eps}",
        ["family", "eps", "ratio", "certified", "rounds", "claimed"],
        [[family, eps, f"{ratio:.4f}", f"{res.certified_ratio:.4f}", res.rounds, f">={1 - eps:.2f}"]],
    )
    benchmark.extra_info.update(
        {"family": family, "eps": eps, "ratio": ratio, "certified": res.certified_ratio}
    )
    assert ratio >= 1 - eps - 1e-9
