"""A3 (ablation): odd-set constraints on/off (the nonbipartite machinery).

The paper's triangle gadget (Section 1) shows the bipartite relaxation
overshoots by 3/2 on odd structures: without odd sets the dual cannot
certify below the fractional bipartite optimum.  Ablation: run the
MicroOracle-backed solver with ``odd_sets=False`` on odd-set-rich
graphs and compare the certified upper bounds (the matching itself may
still be good -- it is the *certificate* that degrades).
"""

import pytest

from repro.core.lp_library import solve_lp1
from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig
from repro.graphgen import odd_cycle_chain, triangle_gadget
from repro.matching.exact import max_weight_matching_exact

INSTANCES = {
    "triangle-gadget": lambda: triangle_gadget(eps=0.1),
    "odd-chain": lambda: odd_cycle_chain(5, 5),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("odd", [True, False], ids=["oddsets", "bipartite-relaxation"])
def test_a3_certificate_quality(benchmark, experiment_table, name, odd):
    g = INSTANCES[name]()
    opt = max_weight_matching_exact(g).weight()

    def run():
        cfg = SolverConfig(eps=0.15, p=2.0, seed=3, odd_sets=odd, inner_steps=300)
        return DualPrimalMatchingSolver(cfg).solve(g)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    slack = res.certificate.upper_bound / max(opt, 1e-12)
    experiment_table(
        f"A3 {name} odd_sets={odd}",
        ["instance", "odd sets", "weight", "upper bound", "UB/OPT"],
        [[name, odd, f"{res.weight:.2f}", f"{res.certificate.upper_bound:.2f}", f"{slack:.3f}"]],
    )
    benchmark.extra_info.update({"instance": name, "odd": odd, "ub_over_opt": slack})
    assert res.matching.is_valid()
    # the certificate never undershoots the true optimum (soundness)
    assert res.certificate.upper_bound >= opt - 1e-6


def test_a3_fractional_gap_reference(benchmark, experiment_table):
    """The LP-level reference: odd sets close the integrality gap."""
    def solve_all():
        out = []
        for name, make in sorted(INSTANCES.items()):
            g = make()
            bip = solve_lp1(g, odd_set_cap=0).value  # no odd sets
            full = solve_lp1(g, odd_set_cap=9).value
            integral = max_weight_matching_exact(g).weight()
            out.append((name, bip, full, integral))
        return out

    rows = []
    for name, bip, full, integral in benchmark.pedantic(solve_all, rounds=1, iterations=1):
        rows.append(
            [
                name,
                f"{bip:.2f}",
                f"{full:.2f}",
                f"{integral:.2f}",
                f"{bip / max(integral, 1e-12):.3f}",
            ]
        )
    experiment_table(
        "A3 LP reference: bipartite vs odd-set relaxation",
        ["instance", "bipartite LP", "odd-set LP", "integral OPT", "bip gap"],
        rows,
    )
    # on odd structures the bipartite LP strictly overshoots
    assert any(float(r[4]) > 1.01 for r in rows)
