"""S5: amortized dynamic-update throughput of ``DynamicGraphSession``.

The dynamic workload is (update burst, query) repeated: a client edits
the graph a few edges at a time and wants a certified matching after
every burst.  Without session state each query costs a full rebuild --
replay the whole update log, materialize the graph, cold-solve.  The
session instead maintains the graph (and its linear sketches)
incrementally and warm-starts each solve from the previous query's
verified duals: folded-and-repaired primal incumbent, lifted dual,
cover-patched fast-path certificate.  When the burst is absorbed the
query costs two O(m) certifications instead of O(p/eps) sampling
rounds.

Gate (acceptance criterion of the dynamic PR): on an n=256 mix of
16 bursts x (2 inserts + 1 delete), the session must deliver >= 5x the
amortized (update burst + query) throughput of rebuild-and-resolve --
with every session answer certified at the same serving target
(``certified_ratio >= 1 - target_gap``) and matching weight no worse
than 97% of the rebuild answer (in the recorded runs it is >= 99.9%).

Writes ``benchmarks/BENCH_dynamic.json`` when ``BENCH_RECORD=1`` (see
``harness.py``); ordinary runs (including the CI smoke) leave the
committed snapshot untouched.
"""

import time

import numpy as np

from harness import record
from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig
from repro.dynamic import DynamicGraphSession
from repro.graphgen import gnm_graph, with_uniform_weights
from repro.util.graph import Graph

MIX = dict(n=256, m=512, w_lo=1.0, w_hi=50.0)
SOLVER_KW = dict(
    eps=0.3,
    inner_steps=300,
    round_cap_factor=0.5,
    offline="local",
    target_gap=0.3,
)
QUERIES = 16
BURST_INSERTS = 2
BURST_DELETES = 1
SPEEDUP_GATE = 5.0


def _make_workload(n, m, queries, inserts, deletes, seed):
    """Base graph + per-query strict-turnstile bursts (with real deletes)."""
    base = with_uniform_weights(
        gnm_graph(n, m, seed=1), MIX["w_lo"], MIX["w_hi"], seed=8
    )
    rng = np.random.default_rng(seed)
    live = {
        (int(u), int(v)): float(w)
        for u, v, w in zip(base.src, base.dst, base.weight)
    }
    bursts = []
    for _ in range(queries):
        burst = []
        for _ in range(deletes):
            key = sorted(live)[rng.integers(len(live))]
            burst.append(("-", key[0], key[1]))
            del live[key]
        added = 0
        while added < inserts:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in live:
                continue
            w = float(rng.integers(int(MIX["w_lo"]), int(MIX["w_hi"]) + 1))
            burst.append(("+", key[0], key[1], w))
            live[key] = w
            added += 1
        bursts.append(burst)
    return base, bursts


def _rebuild_from_scratch(base, log, n):
    """The baseline's per-query work: replay the whole history."""
    cur = {
        (int(u), int(v)): float(w)
        for u, v, w in zip(base.src, base.dst, base.weight)
    }
    for ev in log:
        key = (ev[1], ev[2])
        if ev[0] == "+":
            cur[key] = ev[3]
        else:
            del cur[key]
    items = sorted(cur.items())
    return Graph.from_edges(n, [k for k, _ in items], [w for _, w in items])


def test_s5_dynamic_amortized_throughput(experiment_table):
    """>= 5x amortized (update burst + query) throughput vs rebuilding
    and re-solving from scratch at every query (the PR's gate)."""
    n = MIX["n"]
    cfg = SolverConfig(seed=0, **SOLVER_KW)
    base, bursts = _make_workload(
        n, MIX["m"], QUERIES, BURST_INSERTS, BURST_DELETES, seed=42
    )

    # --- baseline: replay log + cold solve, every query -----------------
    t0 = time.perf_counter()
    log: list[tuple] = []
    rebuilt = []
    for burst in bursts:
        log.extend(burst)
        g = _rebuild_from_scratch(base, log, n)
        rebuilt.append(DualPrimalMatchingSolver(cfg).solve(g))
    t_rebuild = time.perf_counter() - t0

    # --- session: incremental maintenance + warm-started queries --------
    t0 = time.perf_counter()
    sess = DynamicGraphSession(n, config=cfg, base_graph=base, warm_start=True)
    served = []
    for burst in bursts:
        sess.apply(burst)
        served.append(sess.query_matching())
    t_session = time.perf_counter() - t0
    stats = sess.session_stats()

    # --- service level: same certification target, comparable weight ----
    for s, b in zip(served, rebuilt):
        assert s.matching.is_valid()
        assert s.certified_ratio >= 1.0 - SOLVER_KW["target_gap"], (
            f"warm answer under-certified: {s.certified_ratio:.3f}"
        )
        assert s.weight >= 0.97 * b.matching.weight(), (
            f"session weight {s.weight:.0f} below 97% of rebuild "
            f"{b.matching.weight():.0f}"
        )

    speedup = t_rebuild / t_session
    experiment_table(
        f"S5 dynamic updates: {QUERIES} x ({BURST_INSERTS} ins + "
        f"{BURST_DELETES} del + query), n={n}, m0={MIX['m']}",
        ["rebuild (s)", "session (s)", "amortized speedup",
         "warm fastpath", "min weight vs rebuild"],
        [[f"{t_rebuild:.2f}", f"{t_session:.2f}", f"{speedup:.2f}x",
          f"{stats.warm_fastpath}/{stats.warm_solves}",
          f"{min(s.weight / b.matching.weight() for s, b in zip(served, rebuilt)):.3f}"]],
    )
    record(
        "BENCH_dynamic.json",
        "dynamic_16_bursts",
        {
            "n": n,
            "m0": MIX["m"],
            "queries": QUERIES,
            "burst": f"{BURST_INSERTS}+/{BURST_DELETES}-",
            "eps": SOLVER_KW["eps"],
            "target_gap": SOLVER_KW["target_gap"],
            "rebuild_s": round(t_rebuild, 3),
            "session_s": round(t_session, 3),
            "amortized_speedup": round(speedup, 2),
            "rebuild_ms_per_query": round(t_rebuild / QUERIES * 1e3, 1),
            "session_ms_per_query": round(t_session / QUERIES * 1e3, 1),
            "warm_fastpath": stats.warm_fastpath,
            "warm_solves": stats.warm_solves,
            "cold_solves": stats.cold_solves,
            "min_certified_ratio": round(min(s.certified_ratio for s in served), 4),
            "min_weight_vs_rebuild": round(
                min(s.weight / b.matching.weight() for s, b in zip(served, rebuilt)), 4
            ),
        },
    )
    assert speedup >= SPEEDUP_GATE, (
        f"amortized speedup {speedup:.2f}x below the {SPEEDUP_GATE:.0f}x gate "
        f"(rebuild {t_rebuild:.2f}s, session {t_session:.2f}s, "
        f"fastpath {stats.warm_fastpath}/{stats.warm_solves})"
    )


def test_s5_dynamic_smoke(experiment_table):
    """CI-fast: parity + warm fast-path engagement on a small mix.

    No wall-clock gate (CI runners are noisy); instead the smoke pins
    the two properties the full benchmark's speedup rests on: cold
    session queries are bit-identical to rebuild-and-resolve, and the
    warm fast path actually absorbs small bursts (rounds=0).
    """
    n = 48
    kw = dict(eps=0.3, inner_steps=150, round_cap_factor=0.5, offline="local",
              target_gap=0.3)
    cfg = SolverConfig(seed=3, **kw)
    base, bursts = _make_workload(n, 96, 5, 2, 1, seed=9)

    cold = DynamicGraphSession(n, config=cfg, base_graph=base)
    warm = DynamicGraphSession(n, config=cfg, base_graph=base, warm_start=True)
    log: list[tuple] = []
    rows = []
    for i, burst in enumerate(bursts):
        log.extend(burst)
        cold.apply(burst)
        warm.apply(burst)
        g = _rebuild_from_scratch(base, log, n)
        rebuilt = DualPrimalMatchingSolver(cfg).solve(g)
        c = cold.query_matching()
        w = warm.query_matching()
        # cold session == rebuild, bit for bit
        assert np.array_equal(c.matching.edge_ids, rebuilt.matching.edge_ids)
        assert c.certificate.upper_bound == rebuilt.certificate.upper_bound
        assert c.raw.resources == rebuilt.resources
        # warm session: same serving guarantee, comparable weight
        assert w.matching.is_valid()
        assert w.certified_ratio >= 1.0 - kw["target_gap"]
        assert w.weight >= 0.97 * rebuilt.matching.weight()
        rows.append([i, f"{rebuilt.matching.weight():.0f}", f"{w.weight:.0f}",
                     w.raw.rounds])
    stats = warm.session_stats()
    assert stats.warm_fastpath >= 1, "warm fast path never engaged"
    experiment_table(
        "S5 smoke: cold parity + warm fast path on a 48-vertex mix",
        ["query", "rebuild weight", "warm session weight", "warm rounds"],
        rows,
    )
