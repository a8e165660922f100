"""E7: b-matching generalization (Theorem 15's full statement).

Regenerates: approximation ratio for b-matching instances with growing
B = sum b_i, and the level-count growth O(eps^-1 log B) that drives the
extra log B space factor.
"""

import numpy as np
import pytest

from repro.core.levels import discretize
from repro.core.matching_solver import DualPrimalMatchingSolver
from repro.graphgen import gnm_graph, with_random_capacities, with_uniform_weights
from repro.matching.exact import max_weight_bmatching_exact


@pytest.mark.parametrize("bmax", [1, 3, 5])
def test_e7_ratio_vs_b(benchmark, experiment_table, bmax):
    g = with_uniform_weights(gnm_graph(24, 110, seed=bmax), 1, 30, seed=bmax + 7)
    if bmax > 1:
        g = with_random_capacities(g, 1, bmax, seed=bmax + 11)
    opt = max_weight_bmatching_exact(g).weight()

    def run():
        return DualPrimalMatchingSolver(eps=0.25, seed=9, inner_steps=250).solve(g)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = res.weight / opt
    experiment_table(
        f"E7 bmax={bmax}",
        ["bmax", "B", "ratio", "certified", "rounds"],
        [[bmax, g.total_capacity, f"{ratio:.4f}", f"{res.certified_ratio:.4f}", res.rounds]],
    )
    benchmark.extra_info.update({"bmax": bmax, "B": g.total_capacity, "ratio": ratio})
    assert res.matching.is_valid()
    assert ratio >= 1 - 0.25


@pytest.mark.parametrize("bmax", [1, 8, 64])
def test_e7_levels_scale_with_log_B(benchmark, experiment_table, bmax):
    """Space per the paper is O(n^{1+1/p} log B): the log B comes from
    the level count; we measure it directly."""
    g = with_uniform_weights(gnm_graph(30, 120, seed=1), 1, 100, seed=2)
    b = np.full(g.n, bmax, dtype=np.int64)
    g = g.with_b(b)

    lv = benchmark.pedantic(lambda: discretize(g, 0.2), rounds=1, iterations=1)
    experiment_table(
        f"E7 levels bmax={bmax}",
        ["B", "levels", "O(log B / eps) shape"],
        [[g.total_capacity, lv.num_levels, int(np.log(max(g.total_capacity, 2)) / 0.2) + 40]],
    )
    benchmark.extra_info.update({"B": g.total_capacity, "levels": lv.num_levels})
    # levels grow with log B (the weight range is fixed; scale = eps W*/B)
    assert lv.num_levels >= np.log(bmax + 1) / np.log(1.2) - 1
