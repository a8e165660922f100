"""Network front end: parity over the wire, admission, deadlines, CLI.

The serving contract: every admitted request is answered with the same
result a direct ``run()`` would produce (digest parity); every request
the server cannot serve is answered too, with a machine-readable
rejection -- load shedding is never silent.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from repro import Graph, Problem, SolverConfig
from repro.api import run
from repro.server import (
    AsyncServeClient,
    MatchingServer,
    RequestRejected,
    ServeClient,
    ServerError,
    result_digest,
    serve_in_thread,
)
from repro.server.frontend import ServerConfig


def make_problem(seed=1, n=30, m=90):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = (src + 1 + rng.integers(0, n - 1, m)) % n
    graph = Graph.from_edges(
        n, np.stack([src, dst], axis=1), rng.random(m) + 0.1
    )
    return Problem(graph, config=SolverConfig(eps=0.25, seed=seed))


@pytest.fixture(scope="module")
def server():
    handle = serve_in_thread(workers=2, max_delay_s=0.0)
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with ServeClient("127.0.0.1", server.port, timeout=60) as c:
        yield c


class TestProtocol:
    def test_solve_digest_parity(self, client):
        problem = make_problem(seed=3)
        result = client.solve(problem)
        assert result_digest(result) == result_digest(run(problem, "offline"))
        assert result.matching.graph is problem.graph

    def test_pipelined_batch_parity(self, client):
        problems = [make_problem(seed=s) for s in range(4)]
        results = client.solve_many(problems)
        for problem, result in zip(problems, results):
            assert result_digest(result) == result_digest(
                run(problem, "offline")
            )

    def test_solve_with_info_reports_server_time(self, client):
        result, info = client.solve_with_info(make_problem(seed=9))
        assert info["status"] == "ok"
        assert info["server_ms"] >= 0.0
        assert info["deadline_missed"] is False
        assert info["digest"] == result_digest(result)

    def test_ping(self, client):
        assert client.ping() < 5.0

    def test_stats_has_both_sections(self, client):
        client.solve(make_problem(seed=21))
        snap = client.stats()
        assert snap["service"]["submitted"] >= 1
        assert snap["server"]["admitted"] >= 1
        assert "pending" in snap["server"]

    def test_metrics_over_binary_protocol(self, client):
        text = client.metrics_text()
        assert "# TYPE repro_service_requests_total counter" in text
        assert "# TYPE repro_server_requests_total counter" in text

    def test_remote_error_surfaces_type(self, client):
        with pytest.raises(ServerError) as err:
            client.solve(make_problem(seed=2), backend="no-such-backend")
        assert err.value.remote_type == "BackendNotFound"

    def test_unknown_op_answered(self, server):
        with ServeClient("127.0.0.1", server.port, timeout=60) as c:
            c._send({"op": "bogus", "id": "b1"})
            header, _ = c._recv_for("b1")
        assert header["status"] == "error"
        assert header["error"]["type"] == "UnknownOp"

    def test_http_metrics_endpoint(self, server):
        base = f"http://127.0.0.1:{server.metrics_port}"
        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            text = resp.read().decode()
            assert resp.headers["Content-Type"].startswith("text/plain")
        for family in (
            "repro_service_requests_total",
            "repro_service_latency_ms",
            "repro_service_workers",
            "repro_cache_events_total",
            "repro_server_requests_total",
            "repro_server_queue_depth",
            "repro_server_bytes_total",
        ):
            assert f"# TYPE {family}" in text
        with urllib.request.urlopen(base + "/healthz", timeout=10) as resp:
            assert resp.headers["Content-Type"] == "application/json"
            health = json.loads(resp.read())
        assert health["status"] == "ok"
        assert health["live_workers"] >= 1
        assert health["respawns"] == 0
        assert health["closed"] is False
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(base + "/nope", timeout=10)


class TestTracing:
    """End-to-end request tracing and stage attribution (PR 9)."""

    def test_untraced_response_has_attribution_but_no_trace(self, client):
        _, info = client.solve_with_info(make_problem(seed=31))
        assert "trace" not in info
        assert info["queue_ms"] >= 0.0
        assert info["compute_ms"] >= 0.0
        assert info["queue_ms"] + info["compute_ms"] == pytest.approx(
            info["server_ms"]
        )

    def test_traced_request_returns_full_span_tree(self, server):
        from repro.obs import Span

        with ServeClient("127.0.0.1", server.port, timeout=60) as c:
            result, info = c.solve_with_info(make_problem(seed=32), trace=True)
        assert result_digest(result) == result_digest(
            run(make_problem(seed=32), "offline")
        )
        root = Span.from_dict(info["trace"])
        names = [s.name for s in root.walk()]
        for stage in (
            "request",
            "admission",
            "queue_wait",
            "decode_request",
            "solve",
            "service.queue_wait",
            "plan_dispatch",
            "dispatch_group",
            "worker_compute",
            "reply",
        ):
            assert stage in names, f"missing span {stage!r} in {names}"
        # the top-level stages partition server time: their sum cannot
        # exceed what the server reported end-to-end (slack for timer
        # granularity)
        stage_sum = sum(
            child.duration_ms
            for child in root.children
            if child.duration_ms is not None
        )
        assert stage_sum <= info["server_ms"] * 1.05 + 1.0
        # solver telemetry rides inside the trace
        events = [
            evt["name"] for sp in root.walk() for evt in sp.events
        ]
        assert "solver.round" in events

    def test_traced_request_lands_in_server_buffer(self, server):
        before = server.server.traces.pushed
        with ServeClient("127.0.0.1", server.port, timeout=60) as c:
            c.solve(make_problem(seed=33), trace=True)
        assert server.server.traces.pushed == before + 1
        newest = server.server.traces.snapshot()[-1]
        assert newest.name == "request"
        assert newest.duration_ms is not None

    def test_stats_expose_stage_histograms(self, client):
        client.solve(make_problem(seed=34))
        snap = client.stats()
        stage = snap["server"]["stage_ms"]
        for name in ("queue_wait", "decode", "solve", "encode", "e2e"):
            assert stage[name]["count"] >= 1
        assert snap["service"]["convergence"]["requests"] >= 1

    def test_healthz_503_when_no_live_workers(self):
        handle = serve_in_thread(workers=1, max_delay_s=0.0)
        try:
            base = f"http://127.0.0.1:{handle.metrics_port}"
            with urllib.request.urlopen(base + "/healthz", timeout=10) as ok:
                assert ok.status == 200
            # kill the collector threads out from under the service:
            # liveness must report the truth, not the configuration
            handle.server.service._pool.shutdown(wait=True)
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(base + "/healthz", timeout=10)
            assert err.value.code == 503
            health = json.loads(err.value.read())
            assert health["status"] == "unavailable"
            assert health["live_workers"] == 0
        finally:
            handle.stop()


class TestAdmissionControl:
    def test_priority_tiers_bound_background_traffic(self):
        server = MatchingServer(config=ServerConfig(max_pending=100))
        assert server._admission_limit(0) == 50
        assert server._admission_limit(1) == 85
        assert server._admission_limit(2) == 100
        assert server._admission_limit(-3) == 50
        assert server._admission_limit(7) == 100
        server.service.close()

    def test_saturation_sheds_with_reason(self):
        config = ServerConfig(max_pending=2, max_inflight=1)
        with serve_in_thread(config=config, workers=1, max_delay_s=0.0) as h:
            with ServeClient("127.0.0.1", h.port, timeout=120) as c:
                problems = [make_problem(seed=s, n=80, m=400) for s in range(12)]
                outcomes = c.solve_many(
                    problems, priority=0, return_exceptions=True
                )
                text = c.metrics_text()
        shed = [o for o in outcomes if isinstance(o, RequestRejected)]
        served = [o for o in outcomes if not isinstance(o, Exception)]
        assert shed, "12 pipelined requests against max_pending=2 must shed"
        assert all(o.reason == "queue_full" for o in shed)
        assert all(o.queue_depth is not None for o in shed)
        # every admitted request was answered correctly
        for problem, outcome in zip(problems, outcomes):
            if not isinstance(outcome, Exception):
                assert result_digest(outcome) == result_digest(
                    run(problem, "offline")
                )
        assert 'repro_server_shed_total{reason="queue_full"}' in text
        assert len(shed) + len(served) == len(problems)

    def test_queued_deadline_expiry_rejects(self):
        from repro.server.codec import encode_problem, join_columns

        config = ServerConfig(max_pending=50, max_inflight=1)
        with serve_in_thread(config=config, workers=1, max_delay_s=0.0) as h:
            with ServeClient("127.0.0.1", h.port, timeout=120) as c:
                # pipeline: two slow fills saturate max_inflight=1, then
                # a 1ms-deadline request expires waiting in the queue
                for i, p in enumerate(
                    make_problem(seed=s, n=150, m=1500) for s in (1, 2)
                ):
                    meta, cols = encode_problem(p)
                    c._send(
                        {"op": "solve", "id": f"s{i}", "problem": meta},
                        join_columns(cols),
                    )
                doomed = make_problem(seed=3)
                meta, cols = encode_problem(doomed)
                c._send(
                    {
                        "op": "solve",
                        "id": "late",
                        "problem": meta,
                        "deadline_ms": 1.0,
                    },
                    join_columns(cols),
                )
                header, _ = c._recv_for("late")
        assert header["status"] == "rejected"
        assert header["reason"] == "deadline"

    def test_malformed_deadline_answered_without_taking_a_slot(self):
        """A non-numeric ``deadline_ms`` gets an error reply; the
        connection stays open and no admission slot is taken."""
        from repro.server.codec import encode_problem, join_columns

        problem = make_problem(seed=4)
        meta, cols = encode_problem(problem)
        config = ServerConfig(max_pending=4, max_inflight=2)
        with serve_in_thread(config=config, workers=1, max_delay_s=0.0) as h:
            for i in range(3):
                with ServeClient("127.0.0.1", h.port, timeout=60) as c:
                    frame = {
                        "op": "solve",
                        "id": f"bad{i}",
                        "problem": meta,
                        "deadline_ms": "soon",
                    }
                    c._send(frame, join_columns(cols))
                    header, _ = c._recv_for(f"bad{i}")
                    assert header["status"] == "error"
                    assert "deadline_ms" in header["error"]["message"]
                    assert c.ping() < 5.0
            with ServeClient("127.0.0.1", h.port, timeout=60) as c:
                assert c.stats()["server"]["pending"] == 0
                result = c.solve(problem)
        assert result_digest(result) == result_digest(run(problem, "offline"))

    def test_late_completion_flagged_not_dropped(self):
        with serve_in_thread(workers=1, max_delay_s=0.0) as h:
            with ServeClient("127.0.0.1", h.port, timeout=120) as c:
                problem = make_problem(seed=5, n=150, m=1500)
                # a target no certificate reaches: the solve runs until
                # the dual converges, ~1s of compute; a 100ms deadline
                # comfortably survives dispatch (sub-ms on an idle
                # server) and expires mid-run
                problem.config.target_gap = 1e-6
                result, info = c.solve_with_info(
                    problem, deadline_ms=100.0
                )
        # the deadline passed mid-computation: the work is already paid
        # for, so the answer still arrives -- flagged
        assert info["deadline_missed"] is True
        assert result_digest(result) == result_digest(run(problem, "offline"))


class TestAsyncClient:
    def test_concurrent_solves_on_one_connection(self, server):
        async def go():
            client = await AsyncServeClient.connect(
                "127.0.0.1", server.port
            )
            try:
                problems = [make_problem(seed=s) for s in range(40, 44)]
                results = await asyncio.gather(
                    *(client.solve(p, priority=2) for p in problems)
                )
                assert await client.ping() < 5.0
                snap = await client.stats()
                assert snap["server"]["admitted"] >= len(problems)
                return problems, results
            finally:
                await client.close()

        problems, results = asyncio.run(go())
        for problem, result in zip(problems, results):
            assert result_digest(result) == result_digest(
                run(problem, "offline")
            )


class TestCLI:
    def test_module_serves_and_shuts_down_cleanly(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.server",
                "--port", "0", "--metrics-port", "0",
                "--workers", "2", "--pool", "process",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            text=True,
        )
        try:
            port = int(proc.stdout.readline().strip().split("=")[1])
            metrics_port = int(proc.stdout.readline().strip().split("=")[1])
            problem = make_problem(seed=17)
            with ServeClient("127.0.0.1", port, timeout=120) as c:
                result = c.solve(problem, deadline_ms=60_000, priority=2)
                assert result_digest(result) == result_digest(
                    run(problem, "offline")
                )
            url = f"http://127.0.0.1:{metrics_port}/metrics"
            with urllib.request.urlopen(url, timeout=10) as resp:
                text = resp.read().decode()
            assert 'repro_service_workers{pool="process"} 2' in text
            assert 'repro_server_responses_total{status="ok"} 1' in text
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert proc.returncode == 0

    def test_parser_defaults(self):
        from repro.server.__main__ import build_parser

        args = build_parser().parse_args([])
        assert args.pool == "thread"
        assert args.workers == 2
        assert args.port == 0
