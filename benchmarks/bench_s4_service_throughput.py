"""S4: serving-layer throughput of ``repro.service.MatchingService``.

The service's promise is that *independent concurrent callers* inherit
the lockstep engine's batch economics without holding a batch
themselves: 64 duplicate-free requests submitted concurrently must
complete >= 3x faster per request than looping ``run()`` over the same
problems (the engine itself measures ~5x at batch 32, see
``BENCH_solver.json``; the service keeps most of it after
fingerprinting/queueing/stats overhead) -- and a duplicate-heavy stream
must cost no more than its unique core, because repeats resolve from
the content-addressed cache / in-flight coalescer for free.

Same instance mix and solver knobs as ``bench_s2_solver_batch.py`` so
the numbers compose.  Results are pinned exactly equal to looped
``run()`` on both paths.  Writes ``benchmarks/BENCH_service.json`` when
``BENCH_RECORD=1`` (see ``harness.py``); ordinary runs (including the CI
smoke) leave the committed snapshot untouched.
"""

import time

import numpy as np

from harness import S2_FAST_KW, S2_MIX, S2_SOLVER_KW, record, s2_problems
from repro.api import run
from repro.service import MatchingService

REQUESTS = 64
UNIQUE_DUP = 8  # duplicate-stream test: 8 unique problems x 8 repeats
SPEEDUP_GATE = 3.0


def _host_meta(svc: MatchingService) -> dict:
    """Auditability metadata: how parallel was the service, really.

    A throughput number without the worker count and the execution
    substrate is unfalsifiable; every recorded payload carries both
    (the host's core count is in the harness's ``meta`` block).
    """
    return {"workers": svc.workers, "pool": svc.pool_kind}


def _assert_parity(served, direct) -> None:
    for s, d in zip(served, direct):
        assert s.weight == d.weight
        assert np.array_equal(s.matching.edge_ids, d.matching.edge_ids)
        assert s.raw.history == d.raw.history
        assert s.raw.resources == d.raw.resources


def test_s4_service_throughput(experiment_table):
    """>= 3x per-request throughput vs looped run() at 64 concurrent
    duplicate-free requests (acceptance gate of the service PR)."""
    problems = s2_problems(REQUESTS)

    t0 = time.perf_counter()
    with MatchingService(workers=1, max_batch=32, max_delay_s=0.25) as svc:
        host = _host_meta(svc)
        futures = [svc.submit(p) for p in problems]
        served = [f.result(600) for f in futures]
        stats = svc.stats()
    t_service = time.perf_counter() - t0

    t0 = time.perf_counter()
    direct = [run(p, backend="offline") for p in problems]
    t_loop = time.perf_counter() - t0

    _assert_parity(served, direct)
    assert stats.computed == REQUESTS and stats.failed == 0

    speedup = t_loop / t_service
    experiment_table(
        f"S4 service throughput, {REQUESTS} concurrent requests "
        f"(n={S2_MIX['n']}, m={S2_MIX['m']}, eps={S2_SOLVER_KW['eps']})",
        ["requests", "loop (s)", "service (s)", "per-request speedup",
         "mean batch occupancy"],
        [[REQUESTS, f"{t_loop:.2f}", f"{t_service:.2f}", f"{speedup:.2f}x",
          f"{stats.mean_occupancy:.1f}"]],
    )
    payload = {
        "requests": REQUESTS,
        "n": S2_MIX["n"],
        "m": S2_MIX["m"],
        "eps": S2_SOLVER_KW["eps"],
        "inner_steps": S2_SOLVER_KW["inner_steps"],
        "offline": S2_SOLVER_KW["offline"],
        **host,
        "max_batch": 32,
        "loop_s": round(t_loop, 3),
        "service_s": round(t_service, 3),
        "per_request_speedup": round(speedup, 2),
        "loop_ms_per_request": round(t_loop / REQUESTS * 1e3, 1),
        "service_ms_per_request": round(t_service / REQUESTS * 1e3, 1),
        "mean_batch_occupancy": round(stats.mean_occupancy, 1),
        "p95_latency_ms": round(stats.latency_p95_ms, 1),
    }
    record("BENCH_service.json", "service_64_unique", payload)
    assert speedup >= SPEEDUP_GATE, (
        f"service speedup {speedup:.2f}x below the {SPEEDUP_GATE:.0f}x gate "
        f"(loop {t_loop:.2f}s, service {t_service:.2f}s, "
        f"occupancy {stats.mean_occupancy:.1f})"
    )


def test_s4_duplicate_stream_is_cache_priced(experiment_table):
    """64 requests with only 8 unique instances: the duplicate tail is
    ~free (cache hits / in-flight coalescing), so the whole stream costs
    no more than looping its unique core alone."""
    unique = s2_problems(UNIQUE_DUP)
    stream = [unique[i % UNIQUE_DUP] for i in range(REQUESTS)]

    t0 = time.perf_counter()
    direct_unique = [run(p, backend="offline") for p in unique]
    t_unique_loop = time.perf_counter() - t0

    t0 = time.perf_counter()
    with MatchingService(workers=1, max_batch=32, max_delay_s=0.25) as svc:
        host = _host_meta(svc)
        futures = [svc.submit(p) for p in stream]
        served = [f.result(600) for f in futures]
        stats = svc.stats()
    t_service = time.perf_counter() - t0

    _assert_parity(served, [direct_unique[i % UNIQUE_DUP] for i in range(REQUESTS)])
    assert stats.computed == UNIQUE_DUP
    assert stats.cache_hits + stats.coalesced == REQUESTS - UNIQUE_DUP

    experiment_table(
        f"S4 duplicate stream: {REQUESTS} requests, {UNIQUE_DUP} unique",
        ["unique loop (s)", "service stream (s)", "computed", "dedup'd"],
        [[f"{t_unique_loop:.2f}", f"{t_service:.2f}", stats.computed,
          stats.cache_hits + stats.coalesced]],
    )
    payload = {
        "requests": REQUESTS,
        "unique": UNIQUE_DUP,
        **host,
        "unique_loop_s": round(t_unique_loop, 3),
        "service_stream_s": round(t_service, 3),
        "computed": stats.computed,
        "deduplicated": stats.cache_hits + stats.coalesced,
        "cache_hit_rate": round(stats.cache_hit_rate, 3),
    }
    record("BENCH_service.json", "service_64_duplicates", payload)
    # the 56 duplicates must ride for ~free: the full stream costs no
    # more than looping the 8 unique problems alone
    assert t_service <= t_unique_loop * 1.10, (
        f"duplicate stream {t_service:.2f}s vs unique loop "
        f"{t_unique_loop:.2f}s -- duplicates are not cache-priced"
    )


def test_s4_service_smoke(experiment_table):
    """CI-fast: parity + dedup accounting on a small mixed burst."""
    unique = s2_problems(8, S2_FAST_KW)
    stream = unique + [unique[0], unique[3], unique[5], unique[0]]
    direct = [run(p, backend="offline") for p in unique]
    with MatchingService(workers=1, max_batch=8, max_delay_s=0.5) as svc:
        futures = [svc.submit(p) for p in stream]
        served = [f.result(120) for f in futures]
        stats = svc.stats()
    _assert_parity(served[:8], direct)
    _assert_parity(served[8:], [direct[0], direct[3], direct[5], direct[0]])
    assert stats.computed == 8
    assert stats.cache_hits + stats.coalesced == 4
    assert stats.failed == 0
    assert stats.mean_occupancy >= 2.0  # micro-batching actually engaged
    rows = [[i, f"{r.weight:.1f}", r.backend] for i, r in enumerate(served[:4])]
    experiment_table(
        "S4 smoke: service == direct run on a 12-request burst (8 unique)",
        ["request", "weight", "backend"],
        rows,
    )
