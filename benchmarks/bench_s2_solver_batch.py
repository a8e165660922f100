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
``BENCH_SOLVER_RECORD=1``; ordinary runs (including CI smoke) leave the
committed snapshot untouched.  Acceptance gate of the batched-engine
PR: >= 5x per-instance throughput at batch 32 (the committed snapshot
records the measured margin).  That snapshot's loop ran the since-removed
scalar round loop, which was slower than the engine at batch size one,
so a fresh run measures a smaller ratio against today's ``solve``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.matching_solver import DualPrimalMatchingSolver
from repro.graphgen import gnm_graph, with_uniform_weights

BASELINE_PATH = Path(__file__).parent / "BENCH_solver.json"

MIX = dict(n=64, m=256, w_lo=1.0, w_hi=50.0)
SOLVER_KW = dict(
    eps=0.3,
    inner_steps=600,
    round_cap_factor=0.3,  # 2 lockstep rounds per instance
    target_gap=0.0001,
    offline="local",
)


def _record(key: str, payload: dict) -> None:
    """Update the checked-in baseline, only when explicitly requested."""
    if os.environ.get("BENCH_SOLVER_RECORD") != "1":
        return
    data = {}
    if BASELINE_PATH.exists():
        data = json.loads(BASELINE_PATH.read_text())
    data[key] = payload
    BASELINE_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _instance_mix(batch: int):
    return [
        with_uniform_weights(
            gnm_graph(MIX["n"], MIX["m"], seed=s), MIX["w_lo"], MIX["w_hi"], seed=s + 100
        )
        for s in range(batch)
    ]


@pytest.mark.parametrize("batch", [8, 32])
def test_s2_solve_many_throughput(benchmark, experiment_table, batch):
    graphs = _instance_mix(batch)
    seeds = list(range(batch))

    def run():
        t0 = time.perf_counter()
        batched = DualPrimalMatchingSolver(**SOLVER_KW).solve_many(graphs, seeds=seeds)
        t_batch = time.perf_counter() - t0
        t0 = time.perf_counter()
        looped = [
            DualPrimalMatchingSolver(seed=seeds[i], **SOLVER_KW).solve(g)
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
        f"S2 batched solver, batch={batch} (n={MIX['n']}, m={MIX['m']}, eps={SOLVER_KW['eps']})",
        ["batch", "loop (s)", "solve_many (s)", "per-instance speedup"],
        [[batch, f"{t_loop:.2f}", f"{t_batch:.2f}", f"{speedup:.2f}x"]],
    )
    payload = {
        "batch": batch,
        "n": MIX["n"],
        "m": MIX["m"],
        "eps": SOLVER_KW["eps"],
        "inner_steps": SOLVER_KW["inner_steps"],
        "offline": SOLVER_KW["offline"],
        "loop_s": round(t_loop, 3),
        "solve_many_s": round(t_batch, 3),
        "per_instance_speedup": round(speedup, 2),
        "loop_ms_per_instance": round(t_loop / batch * 1e3, 1),
        "batch_ms_per_instance": round(t_batch / batch * 1e3, 1),
    }
    benchmark.extra_info.update(payload)
    _record(f"solver_batch{batch}", payload)
    # acceptance: >= 5x at batch 32 (committed snapshot: see BENCH_solver.json);
    # the smaller batch must already amortize meaningfully
    if batch >= 32:
        assert speedup >= 5.0
    else:
        assert speedup >= 2.0


def test_s2_batch_smoke(experiment_table):
    """Tiny deterministic smoke: parity on a 4-instance mix (CI-fast)."""
    graphs = _instance_mix(4)[:4]
    kw = dict(eps=0.3, inner_steps=60, round_cap_factor=0.3, target_gap=0.0001, offline="local")
    seeds = [0, 1, 2, 3]
    batched = DualPrimalMatchingSolver(**kw).solve_many(graphs, seeds=seeds)
    looped = [
        DualPrimalMatchingSolver(seed=seeds[i], **kw).solve(g)
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
