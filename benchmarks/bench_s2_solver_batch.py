"""S2: per-instance throughput of the batched solver engine.

Measures ``solve_many`` over a batch of independent instances against
looped ``solve`` (the same lockstep engine at batch size one) on the
*same* mix, and asserts that the batched results are pinned equal to
the looped ones (value for value -- weights, histories, resource
ledgers).

The mix runs every instance through the same number of lockstep rounds
(small ``round_cap_factor``, tiny ``target_gap``) so the benchmark
exercises sustained inner-loop throughput rather than per-instance
convergence variance; ``offline="local"`` keeps the (identical on both
sides) offline-harvest cost from diluting the measured engine gap.

Writes the measured table to ``benchmarks/BENCH_solver.json`` when
``BENCH_RECORD=1`` (see ``harness.py``); ordinary runs (including CI
smoke) leave the committed snapshot untouched.  Acceptance gate of the
batched-engine PR: >= 5x per-instance throughput at batch 32 (the
committed snapshot records the measured margin).  That snapshot's loop ran the since-removed
scalar round loop, which was slower than the engine at batch size one,
so a fresh run measures a smaller ratio against today's ``solve``.
"""

import time

import numpy as np
import pytest

from harness import S2_FAST_KW, S2_MIX, S2_SOLVER_KW, record, s2_graphs
from repro.core.matching_solver import DualPrimalMatchingSolver


@pytest.mark.parametrize("batch", [8, 32])
def test_s2_solve_many_throughput(benchmark, experiment_table, batch):
    graphs = s2_graphs(batch)
    seeds = list(range(batch))

    def run():
        t0 = time.perf_counter()
        batched = DualPrimalMatchingSolver(**S2_SOLVER_KW).solve_many(graphs, seeds=seeds)
        t_batch = time.perf_counter() - t0
        t0 = time.perf_counter()
        looped = [
            DualPrimalMatchingSolver(seed=seeds[i], **S2_SOLVER_KW).solve(g)
            for i, g in enumerate(graphs)
        ]
        t_loop = time.perf_counter() - t0
        # pinned equality: the engine is bit-identical at any batch size
        for r, b in zip(looped, batched):
            assert r.weight == b.weight
            assert np.array_equal(r.matching.edge_ids, b.matching.edge_ids)
            assert r.certificate.upper_bound == b.certificate.upper_bound
            assert r.history == b.history
            assert r.resources == b.resources
        return t_batch, t_loop

    t_batch, t_loop = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = t_loop / t_batch
    experiment_table(
        f"S2 batched solver, batch={batch} "
        f"(n={S2_MIX['n']}, m={S2_MIX['m']}, eps={S2_SOLVER_KW['eps']})",
        ["batch", "loop (s)", "solve_many (s)", "per-instance speedup"],
        [[batch, f"{t_loop:.2f}", f"{t_batch:.2f}", f"{speedup:.2f}x"]],
    )
    payload = {
        "batch": batch,
        "n": S2_MIX["n"],
        "m": S2_MIX["m"],
        "eps": S2_SOLVER_KW["eps"],
        "inner_steps": S2_SOLVER_KW["inner_steps"],
        "offline": S2_SOLVER_KW["offline"],
        "loop_s": round(t_loop, 3),
        "solve_many_s": round(t_batch, 3),
        "per_instance_speedup": round(speedup, 2),
        "loop_ms_per_instance": round(t_loop / batch * 1e3, 1),
        "batch_ms_per_instance": round(t_batch / batch * 1e3, 1),
    }
    benchmark.extra_info.update(payload)
    record("BENCH_solver.json", f"solver_batch{batch}", payload)
    # acceptance: >= 5x at batch 32 (committed snapshot: see BENCH_solver.json);
    # the smaller batch must already amortize meaningfully
    if batch >= 32:
        assert speedup >= 5.0
    else:
        assert speedup >= 2.0


def test_s2_batch_smoke(experiment_table):
    """Tiny deterministic smoke: parity on a 4-instance mix (CI-fast)."""
    graphs = s2_graphs(4)
    seeds = [0, 1, 2, 3]
    batched = DualPrimalMatchingSolver(**S2_FAST_KW).solve_many(graphs, seeds=seeds)
    looped = [
        DualPrimalMatchingSolver(seed=seeds[i], **S2_FAST_KW).solve(g)
        for i, g in enumerate(graphs)
    ]
    rows = []
    for i, (r, b) in enumerate(zip(looped, batched)):
        assert r.weight == b.weight and r.history == b.history
        rows.append([i, f"{b.weight:.1f}", f"{b.certified_ratio:.3f}", b.rounds])
    experiment_table(
        "S2 smoke: batched == looped on 4 instances",
        ["instance", "weight", "certified ratio", "rounds"],
        rows,
    )
