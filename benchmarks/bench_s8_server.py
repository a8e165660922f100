"""S8: multi-process serving -- scaling curve and saturation behavior.

Two claims of the ``repro.server`` PR are measured here, end to end
through the TCP front end:

* **Scaling.**  The process pool must turn worker processes into
  aggregate throughput on the S4 instance mix, digest-identical to a
  direct ``run()`` loop at every worker count.  The >= 3x @ 4 workers
  acceptance gate is a *physical* claim about cores, so it is asserted
  only where the host can express it (``os.cpu_count() >= 4``);
  everywhere the full curve and the host's core count are recorded, so
  a reader can always tell what machine produced the numbers.
* **Saturation.**  Under an offered load far above capacity, admission
  control must (a) shed the overflow explicitly -- every rejection
  carries a reason -- and (b) keep the latency of *admitted* requests
  bounded, instead of letting the queue grow without limit.  Measured
  end to end via the ``server_ms`` field each response carries
  (admission -> reply, so front-end queue wait is included -- the
  service-side p95 deliberately is *not* used here, because requests
  parked in the front-end priority queue have not been submitted to
  the service yet and would be invisible to it), running the same
  burst against an unbounded and a bounded queue.

Writes ``benchmarks/BENCH_server.json`` when ``BENCH_RECORD=1`` (see
``harness.py``); ordinary runs (including CI) leave the committed
snapshot untouched.
"""

import os
import time

import pytest

from harness import S2_FAST_KW, S2_MIX, S2_SOLVER_KW, record, s2_problems
from repro.api import run
from repro.server import RequestRejected, ServeClient, result_digest, serve_in_thread
from repro.server.frontend import ServerConfig

REQUESTS = 64
WORKER_COUNTS = (1, 2, 4)
SPEEDUP_GATE = 3.0
GATE_MIN_CORES = 4


def test_s8_server_scaling(experiment_table):
    """Process-worker scaling curve over the wire, digest-pinned."""
    problems = s2_problems(REQUESTS)
    want = [result_digest(run(p, "offline")) for p in problems]

    curve = {}
    rows = []
    for workers in WORKER_COUNTS:
        with serve_in_thread(
            workers=workers, pool="process", max_batch=32, max_delay_s=0.25
        ) as handle:
            with ServeClient("127.0.0.1", handle.port, timeout=600) as client:
                t0 = time.perf_counter()
                served = client.solve_many(problems, priority=1)
                elapsed = time.perf_counter() - t0
        got = [result_digest(r) for r in served]
        assert got == want, f"digest parity broke at workers={workers}"
        curve[workers] = elapsed
        rows.append(
            [workers, f"{elapsed:.2f}", f"{REQUESTS / elapsed:.1f}",
             f"{curve[1] / elapsed:.2f}x"]
        )

    cores = os.cpu_count() or 1
    speedup_4 = curve[1] / curve[WORKER_COUNTS[-1]]
    gate_applies = cores >= GATE_MIN_CORES
    experiment_table(
        f"S8 server scaling: {REQUESTS} requests over TCP, process pool "
        f"(host cores: {cores}; gate "
        f"{'applied' if gate_applies else 'recorded only, host too small'})",
        ["workers", "wall (s)", "req/s", "speedup vs 1"],
        rows,
    )
    record(
        "BENCH_server.json",
        "server_scaling",
        {
            "requests": REQUESTS,
            "n": S2_MIX["n"],
            "m": S2_MIX["m"],
            "eps": S2_SOLVER_KW["eps"],
            "inner_steps": S2_SOLVER_KW["inner_steps"],
            "pool": "process",
            "wall_s": {str(w): round(t, 3) for w, t in curve.items()},
            "requests_per_s": {
                str(w): round(REQUESTS / t, 1) for w, t in curve.items()
            },
            "speedup_vs_1": {
                str(w): round(curve[1] / t, 2) for w, t in curve.items()
            },
            "gate": (
                f">={SPEEDUP_GATE:.0f}x at {WORKER_COUNTS[-1]} workers"
                if gate_applies
                else f"not applied: cpu_count={cores} < {GATE_MIN_CORES}"
            ),
            "digest_parity": True,
        },
    )
    if gate_applies:
        assert speedup_4 >= SPEEDUP_GATE, (
            f"{WORKER_COUNTS[-1]} process workers gave {speedup_4:.2f}x "
            f"aggregate throughput vs 1 (gate {SPEEDUP_GATE:.0f}x, "
            f"host cores {cores}): {curve}"
        )
    else:
        # a 1-core host cannot express process parallelism; parity and
        # overhead sanity are still enforced (the pool must not be
        # catastrophically slower than a single worker)
        assert speedup_4 > 0.5, f"process pool pathologically slow: {curve}"


def test_s8_server_saturation(experiment_table):
    """Bounded admission keeps admitted-p95 flat and sheds explicitly."""
    problems = s2_problems(48, S2_FAST_KW)
    want = {
        id(p): result_digest(run(p, "offline")) for p in problems
    }

    def drive(config):
        with serve_in_thread(
            config=config, workers=1, max_batch=8, max_delay_s=0.0
        ) as handle:
            with ServeClient("127.0.0.1", handle.port, timeout=600) as client:
                outcomes = client.solve_many(
                    problems, priority=0, return_exceptions=True,
                    with_info=True,
                )
        served = rejected = 0
        latencies, queue_waits, computes = [], [], []
        for problem, outcome in zip(problems, outcomes):
            if isinstance(outcome, RequestRejected):
                rejected += 1
                assert outcome.reason in ("queue_full", "deadline")
            else:
                result, info = outcome
                assert result_digest(result) == want[id(problem)]
                # the server attributes every admitted millisecond:
                # server_ms = queue_ms (front-end wait) + compute_ms
                assert info["queue_ms"] + info["compute_ms"] == pytest.approx(
                    info["server_ms"]
                )
                latencies.append(info["server_ms"])
                queue_waits.append(info["queue_ms"])
                computes.append(info["compute_ms"])
                served += 1

        def p95(values):
            values = sorted(values)
            return values[int(0.95 * (len(values) - 1))]

        return served, rejected, p95(latencies), p95(queue_waits), p95(computes)

    unbounded = ServerConfig(max_pending=10_000, max_inflight=2)
    bounded = ServerConfig(max_pending=8, max_inflight=2)
    u_served, u_rejected, u_p95, u_queue95, u_compute95 = drive(unbounded)
    b_served, b_rejected, b_p95, b_queue95, b_compute95 = drive(bounded)

    experiment_table(
        "S8 saturation: 48-request burst at priority 0, 1 worker",
        ["queue bound", "served", "shed", "admitted p95 (ms)",
         "queue p95 (ms)", "compute p95 (ms)"],
        [
            ["unbounded", u_served, u_rejected, f"{u_p95:.0f}",
             f"{u_queue95:.0f}", f"{u_compute95:.0f}"],
            ["max_pending=8", b_served, b_rejected, f"{b_p95:.0f}",
             f"{b_queue95:.0f}", f"{b_compute95:.0f}"],
        ],
    )
    record(
        "BENCH_server.json",
        "server_saturation",
        {
            "requests": len(problems),
            "workers": 1,
            "unbounded": {
                "served": u_served,
                "shed": u_rejected,
                "p95_ms": round(u_p95, 1),
                "queue_p95_ms": round(u_queue95, 1),
                "compute_p95_ms": round(u_compute95, 1),
            },
            "max_pending_8": {
                "served": b_served,
                "shed": b_rejected,
                "p95_ms": round(b_p95, 1),
                "queue_p95_ms": round(b_queue95, 1),
                "compute_p95_ms": round(b_compute95, 1),
            },
        },
    )
    assert u_rejected == 0 and u_served == len(problems)
    assert b_rejected > 0, "48 pipelined requests vs max_pending=8 must shed"
    assert b_served + b_rejected == len(problems)  # nothing silently lost
    # the point of admission control: what is admitted stays fast
    assert b_p95 < u_p95 * 0.7, (
        f"bounded-queue p95 {b_p95:.0f}ms not clearly below unbounded "
        f"{u_p95:.0f}ms"
    )
    # the queue/compute split attributes the win: bounding the queue
    # shrinks front-end wait, not the per-request compute
    assert b_queue95 < u_queue95
