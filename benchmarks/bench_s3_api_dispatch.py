"""S3: facade dispatch overhead on the PR-2 benchmark mix.

The ``repro.api`` facade must be free abstraction: constructing a
``Problem``, resolving the backend and normalizing the ledger into a
``RunResult`` has to vanish against the solve itself.  This smoke runs
the same instance mix as ``bench_s2_solver_batch.py`` through

* the direct engine (``DualPrimalMatchingSolver(cfg).solve``), and
* the facade (``run(Problem(g, config=cfg), backend="offline")``),

asserts exact result parity, and gates dispatch overhead at < 5% of
end-to-end time (best-of-``REPEATS`` per side, interleaved, so ambient
machine noise hits both measurements alike).
"""

import time

from harness import S2_SOLVER_KW, s2_graphs, s2_problems
from repro.api import Problem, run, run_many
from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig

BATCH = 6
# best-of-5 per side, order-alternated: a noise spike must hit every
# repetition of one side (and none of the other) to fake a regression
REPEATS = 5
OVERHEAD_GATE = 0.05


def test_s3_dispatch_overhead(experiment_table):
    graphs = s2_graphs(BATCH)
    configs = [SolverConfig(seed=s, **S2_SOLVER_KW) for s in range(BATCH)]
    problems = [Problem(g, config=c) for g, c in zip(graphs, configs)]

    def direct_once():
        return [DualPrimalMatchingSolver(c).solve(g) for g, c in zip(graphs, configs)]

    def facade_once():
        return [run(p, backend="offline") for p in problems]

    # warm-up (imports, allocator, BLAS threads) outside the clock
    direct_ref = direct_once()
    facade_ref = facade_once()
    for d, f in zip(direct_ref, facade_ref):
        assert d.weight == f.weight
        assert d.resources == f.raw.resources
        assert d.history == f.raw.history

    direct_best = facade_best = float("inf")
    for rep in range(REPEATS):
        # alternate measurement order so slow thermal / frequency drift
        # cannot systematically penalize one side
        order = (direct_once, facade_once) if rep % 2 == 0 else (facade_once, direct_once)
        for fn in order:
            t0 = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - t0
            if fn is direct_once:
                direct_best = min(direct_best, elapsed)
            else:
                facade_best = min(facade_best, elapsed)

    overhead = facade_best / direct_best - 1.0
    experiment_table(
        "S3 facade dispatch overhead",
        ["batch", "direct best (s)", "facade best (s)", "overhead"],
        [[BATCH, f"{direct_best:.3f}", f"{facade_best:.3f}", f"{overhead:+.2%}"]],
    )
    assert facade_best <= direct_best * (1.0 + OVERHEAD_GATE), (
        f"facade dispatch overhead {overhead:+.2%} exceeds the "
        f"{OVERHEAD_GATE:.0%} gate (direct {direct_best:.3f}s, "
        f"facade {facade_best:.3f}s)"
    )


def test_s3_run_many_matches_looped_run():
    """The lockstep route of ``run_many`` stays pinned to looped ``run``
    on the benchmark mix (cheap CI-smoke variant of the S2 parity)."""
    problems = s2_problems(3)
    batched = run_many(problems, backend="offline")
    looped = [run(p, backend="offline") for p in problems]
    for b, l in zip(batched, looped):
        assert b.weight == l.weight
        assert b.raw.resources == l.raw.resources
        assert b.raw.history == l.raw.history
