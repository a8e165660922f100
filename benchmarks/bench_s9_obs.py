"""S9: observability must be pay-for-what-you-use.

Two claims of the ``repro.obs`` PR are measured here:

* **Disabled cost.**  With no active trace, every instrumentation hook
  on the hot path (``obs.span`` in the executors, the guarded
  ``solver.round`` events in the solver loop, the stage stamps in the
  service) must collapse to at most a contextvar read.  Measured as an
  A/B on the S4 service mix (64 concurrent requests, 1 worker): the
  shipped code vs the same run with every ``repro.obs`` hook
  monkeypatched to a literal no-op.  Gate: <= 2% overhead on the
  min-of-N wall clock (``OVERHEAD_GATE``).
* **Traced coverage.**  One traced request through the full stack
  (TCP front end -> service -> process-pool worker and back) must
  return a single span tree containing every stage --
  admission/queue_wait/decode/solve (with the shm + worker spans
  inside) /reply -- whose top-level stage durations are consistent
  with the ``server_ms`` the response reports.

Writes ``benchmarks/BENCH_obs.json`` when ``BENCH_RECORD=1`` (see
``harness.py``); ordinary runs leave the committed snapshot untouched.
"""

import contextlib
import time

import pytest

from harness import S2_FAST_KW, S2_MIX, S2_SOLVER_KW, record, s2_problems
from repro import obs
from repro.server import ServeClient, serve_in_thread
from repro.server.codec import decode_trace
from repro.service import MatchingService

#: The overhead gate runs the S4 service workload (the S2 mix, 64
#: concurrent requests) -- it is a statement about *that* workload.
REQUESTS = 64
REPEATS = 5
OVERHEAD_GATE = 1.02

#: Stages the one traced request must cover, end to end.
EXPECTED_STAGES = (
    "admission",
    "queue_wait",
    "decode_request",
    "solve",
    "service.queue_wait",
    "plan_dispatch",
    "dispatch_group",
    "shm_encode",
    "shm_write",
    "worker",
    "worker_compute",
    "shm_decode",
    "reply",
)


def _drive(problems) -> tuple[float, float]:
    """One fresh service run over ``problems``; returns (wall s, weight sum)."""
    t0 = time.perf_counter()
    with MatchingService(workers=1, max_batch=32, max_delay_s=0.25) as svc:
        futures = [svc.submit(p) for p in problems]
        total = sum(f.result(600).weight for f in futures)
    return time.perf_counter() - t0, total


@contextlib.contextmanager
def _obs_stripped():
    """Monkeypatch every ``repro.obs`` hot-path hook to a literal no-op.

    The hot-path modules call the hooks as module attributes
    (``obs.span(...)``, ``obs.current_span()``), so swapping the
    attributes here reaches all of them; this arm is the "the
    instrumentation does not exist" baseline the shipped disabled
    path is compared against.
    """
    saved = {
        name: getattr(obs, name)
        for name in ("span", "span_event", "current_span", "attach")
    }
    obs.span = lambda name, **meta: contextlib.nullcontext()
    obs.span_event = lambda name, **fields: None
    obs.current_span = lambda: None
    obs.attach = lambda node: contextlib.nullcontext()
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(obs, name, fn)


def test_s9_tracing_disabled_overhead(experiment_table):
    """Instrumentation with no active trace costs <= 2% wall clock."""
    problems = s2_problems(REQUESTS)
    _drive(problems)  # warm-up (imports, allocator, thread spin-up), untimed

    t_shipped = t_stripped = float("inf")
    weights = set()
    for _ in range(REPEATS):
        t, w = _drive(problems)
        t_shipped = min(t_shipped, t)
        weights.add(round(w, 9))
        with _obs_stripped():
            t, w = _drive(problems)
        t_stripped = min(t_stripped, t)
        weights.add(round(w, 9))
    # stripping the hooks must not change any result
    assert len(weights) == 1

    ratio = t_shipped / t_stripped
    experiment_table(
        f"S9 tracing-disabled overhead, {REQUESTS} requests x "
        f"min-of-{REPEATS} (n={S2_MIX['n']}, m={S2_MIX['m']})",
        ["arm", "wall (s)", "ratio"],
        [
            ["obs stripped (baseline)", f"{t_stripped:.3f}", "1.00x"],
            ["obs shipped, no trace", f"{t_shipped:.3f}", f"{ratio:.3f}x"],
        ],
    )
    record(
        "BENCH_obs.json",
        "tracing_disabled_overhead",
        {
            "requests": REQUESTS,
            "repeats": REPEATS,
            "n": S2_MIX["n"],
            "m": S2_MIX["m"],
            "eps": S2_SOLVER_KW["eps"],
            "inner_steps": S2_SOLVER_KW["inner_steps"],
            "stripped_s": round(t_stripped, 3),
            "shipped_s": round(t_shipped, 3),
            "overhead_ratio": round(ratio, 4),
            "gate": OVERHEAD_GATE,
        },
    )
    assert ratio <= OVERHEAD_GATE, (
        f"tracing-disabled overhead {ratio:.3f}x exceeds the "
        f"{OVERHEAD_GATE}x gate"
    )


def test_s9_traced_request_covers_all_stages(experiment_table):
    """One traced request yields one tree covering every stage, with
    stage durations consistent with the reported ``server_ms``."""
    warmup, problem = s2_problems(2, S2_FAST_KW)
    with serve_in_thread(workers=1, pool="process", max_batch=8) as handle:
        with ServeClient("127.0.0.1", handle.port, timeout=600) as client:
            # warm the worker process (a *different* problem, so the
            # traced request computes instead of hitting the cache) --
            # the traced tree then measures steady-state stages, not
            # process start-up
            client.solve(warmup)
            result, info = client.solve_with_info(problem, trace=True)

    assert result.weight > 0
    root = decode_trace(info["trace"])
    names = [s.name for s in root.walk()]
    for stage in EXPECTED_STAGES:
        assert stage in names, f"traced tree missing {stage!r}: {names}"

    # the root's direct children tile the request: their durations must
    # sum to (at most) the server-reported end-to-end time, modulo
    # clock-read jitter between stage boundaries
    stage_rows = [
        (child.name, child.duration_ms)
        for child in root.children
        if child.duration_ms is not None
    ]
    stage_sum = sum(ms for _, ms in stage_rows)
    budget = info["server_ms"] * 1.05 + 1.0
    assert stage_sum <= budget, (
        f"stage sum {stage_sum:.2f}ms exceeds server_ms "
        f"{info['server_ms']:.2f}ms"
    )
    assert info["queue_ms"] + info["compute_ms"] == pytest.approx(
        info["server_ms"]
    )

    experiment_table(
        "S9 traced request: top-level stages vs server_ms",
        ["stage", "ms"],
        [[name, f"{ms:.2f}"] for name, ms in stage_rows]
        + [["(sum)", f"{stage_sum:.2f}"],
           ["server_ms", f"{info['server_ms']:.2f}"]],
    )
    record(
        "BENCH_obs.json",
        "traced_request",
        {
            "pool": "process",
            "workers": 1,
            "span_names": names,
            "stages_ms": {
                name: round(ms, 3) for name, ms in stage_rows
            },
            "stage_sum_ms": round(stage_sum, 3),
            "server_ms": round(info["server_ms"], 3),
            "queue_ms": round(info["queue_ms"], 3),
            "compute_ms": round(info["compute_ms"], 3),
            "spans_total": len(names),
        },
    )
