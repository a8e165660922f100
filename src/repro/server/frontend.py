"""Asyncio TCP front end with admission control and load shedding.

:class:`MatchingServer` exposes a :class:`~repro.service.MatchingService`
over TCP with length-prefixed frames (:mod:`repro.server.codec`): each
request/response is a JSON header plus a binary column payload, so
edge arrays cross the wire as raw numpy bytes, never JSON.

Production-traffic semantics, in the order a request meets them:

1. **Admission control.**  Admitted-but-unresolved solve requests are
   bounded by ``max_pending``; each priority class may only fill a
   fraction of that bound (low 50%, normal 85%, high 100% by default),
   so background traffic sheds first under saturation.  A shed request
   is *answered* -- ``status="rejected"`` with a machine-readable
   ``reason`` (``queue_full``, ``deadline``, ``shutting_down``) --
   never silently dropped.
2. **Priority queue.**  Admitted requests wait in a priority queue
   (higher ``priority`` first, FIFO within a class) and at most
   ``max_inflight`` are dispatched into the service concurrently.
3. **Deadlines.**  A request whose ``deadline_ms`` expires before
   dispatch is rejected (reason ``deadline``); one that expires while
   computing is still answered, flagged ``deadline_missed=true`` and
   counted, because the work is already paid for.

Ops: ``solve``, ``ping``, ``stats`` (JSON snapshot), ``metrics``
(Prometheus text).  A separate plain-HTTP listener serves ``GET
/metrics`` and ``GET /healthz`` for scrapers (``metrics_port``).

Wire-protocol byte layout: ``docs/service.md``.  Clients:
:mod:`repro.server.client`.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import logging
import threading
import time
from dataclasses import dataclass

from repro import obs
from repro.server.codec import (
    PRELUDE,
    CodecError,
    decode_problem,
    encode_result,
    encode_trace,
    join_columns,
    pack_frame,
    result_digest,
    split_columns,
    unpack_prelude,
)
from repro.server.metrics import render_prometheus
from repro.service import MatchingService
from repro.util.instrumentation import CounterSet, LatencyHistogram

__all__ = ["MatchingServer", "ServerConfig", "ServerCounters", "serve_in_thread"]

logger = logging.getLogger("repro.server")

#: Prometheus text exposition content type.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclass
class ServerConfig:
    """Tunables of the network front end.

    Attributes
    ----------
    host, port:
        Bind address for the binary protocol (``port=0`` = ephemeral).
    metrics_port:
        Bind port for the HTTP ``/metrics``+``/healthz`` listener
        (``0`` = ephemeral, ``None`` = disabled).
    max_pending:
        Bound on admitted-but-unresolved solve requests; the admission
        controller sheds above it.
    max_inflight:
        Bound on solve requests dispatched into the service at once
        (the queue holds the rest).
    default_priority:
        Priority assumed when a request carries none.  Convention:
        ``0`` = background, ``1`` = normal, ``2`` = interactive.
    default_deadline_ms:
        Deadline applied when a request carries none (``None`` = no
        deadline).
    shed_fraction_low, shed_fraction_normal:
        Fraction of ``max_pending`` that priority <= 0 (resp. == 1)
        traffic may occupy; priority >= 2 may use all of it.  Tiered
        thresholds mean saturation sheds background load first while
        interactive traffic still admits.
    slow_request_ms:
        When set, requests whose end-to-end ``server_ms`` exceeds this
        threshold emit a structured ``slow_request`` warning (see
        :class:`repro.obs.SlowRequestLog`); ``None`` disables the log.
    slow_request_sample:
        Log every Nth slow request (1 = all of them), so a saturated
        server does not amplify its own overload with log volume.
    trace_buffer:
        Ring capacity of the server's recent-traces buffer (finished
        span trees of ``trace: true`` requests).
    """

    host: str = "127.0.0.1"
    port: int = 0
    metrics_port: int | None = 0
    max_pending: int = 256
    max_inflight: int = 64
    default_priority: int = 1
    default_deadline_ms: float | None = None
    shed_fraction_low: float = 0.5
    shed_fraction_normal: float = 0.85
    slow_request_ms: float | None = None
    slow_request_sample: int = 1
    trace_buffer: int = 64


class ServerCounters:
    """Front-end counters and live gauges (one instance per server).

    ``counters`` is a :class:`~repro.util.instrumentation.CounterSet`
    holding monotonic counts (``connections``, ``admitted``,
    ``("requests", op)``, ``("shed", reason)``, ``("responses",
    status)``, ``deadline_late``, ``("bytes", direction)``); the plain
    attributes are point-in-time gauges mutated only on the event loop.

    ``stage`` holds one always-on
    :class:`~repro.util.instrumentation.LatencyHistogram` per request
    stage of a successful solve -- ``queue_wait`` (arrival to
    dispatch), ``decode`` (payload to :class:`~repro.api.Problem`),
    ``solve`` (service submit to future resolution), ``encode``
    (result to wire form) and ``e2e`` (= ``server_ms``) -- rendered as
    the ``repro_server_stage_latency_ms`` Prometheus histogram family.
    """

    STAGES = ("queue_wait", "decode", "solve", "encode", "e2e")

    def __init__(self) -> None:
        self.counters = CounterSet()
        self.connections_open = 0
        self.pending = 0
        self.inflight = 0
        self.stage = {name: LatencyHistogram() for name in self.STAGES}

    def as_dict(self) -> dict:
        """JSON-safe snapshot (the ``stats`` op's ``server`` section)."""
        snap = self.counters.as_dict()
        snap["connections_open"] = self.connections_open
        snap["pending"] = self.pending
        snap["inflight"] = self.inflight
        snap["stage_ms"] = {
            name: hist.summary() for name, hist in self.stage.items()
        }
        return snap


class _Conn:
    """Per-connection write side: one lock so frames never interleave."""

    def __init__(self, writer: asyncio.StreamWriter, state: ServerCounters):
        self.writer = writer
        self.lock = asyncio.Lock()
        self.state = state

    async def send(self, header: dict, payload: bytes = b"") -> None:
        frame = pack_frame(header, payload)
        try:
            async with self.lock:
                if self.writer.is_closing():
                    return
                self.writer.write(frame)
                await self.writer.drain()
        except (ConnectionError, OSError):
            return  # client went away; its frames no longer matter
        self.state.counters.inc(("bytes", "written"), len(frame))


class _SolveItem:
    """An admitted solve request waiting for dispatch.

    ``span`` is the request's root trace span (``None`` unless the
    request carried ``trace: true``); ``dispatched`` is stamped when
    the dispatcher hands the item to :meth:`MatchingServer._solve_one`,
    closing the queue-wait stage.
    """

    __slots__ = (
        "header",
        "payload",
        "conn",
        "arrival",
        "deadline",
        "priority",
        "span",
        "dispatched",
    )

    def __init__(self, header, payload, conn, arrival, deadline, priority,
                 span=None):
        self.header = header
        self.payload = payload
        self.conn = conn
        self.arrival = arrival
        self.deadline = deadline
        self.priority = priority
        self.span = span
        self.dispatched: float | None = None


class MatchingServer:
    """Serve a :class:`~repro.service.MatchingService` over TCP.

    Either wrap an existing service (``MatchingServer(service)``) or
    let the server own one built from keyword arguments
    (``MatchingServer(workers=4, pool="process")``); an owned service
    is closed by :meth:`stop`.

    Usage (async)::

        server = MatchingServer(workers=4, pool="process")
        await server.start()
        ...
        await server.stop()

    or from synchronous code via :func:`serve_in_thread`.
    """

    def __init__(
        self,
        service: MatchingService | None = None,
        *,
        config: ServerConfig | None = None,
        **service_kwargs,
    ):
        if service is not None and service_kwargs:
            raise TypeError(
                "pass either an existing service or MatchingService "
                "keyword arguments, not both"
            )
        self.config = config or ServerConfig()
        self._owns_service = service is None
        self.service = (
            MatchingService(**service_kwargs) if service is None else service
        )
        self.state = ServerCounters()
        #: ring of recently finished request traces (``trace: true``)
        self.traces = obs.TraceBuffer(self.config.trace_buffer)
        self._slow_log = (
            obs.SlowRequestLog(
                logger,
                self.config.slow_request_ms,
                sample=self.config.slow_request_sample,
            )
            if self.config.slow_request_ms is not None
            else None
        )
        self._tcp_server: asyncio.base_events.Server | None = None
        self._http_server: asyncio.base_events.Server | None = None
        self._dispatch_task: asyncio.Task | None = None
        self._tasks: set[asyncio.Task] = set()
        self._queue: asyncio.PriorityQueue | None = None
        self._inflight_sem: asyncio.Semaphore | None = None
        self._seq = itertools.count()
        self._stopping = False
        self._stopped_evt: asyncio.Event | None = None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Bind listeners and start the dispatcher (idempotent-free)."""
        cfg = self.config
        self._queue = asyncio.PriorityQueue()
        self._inflight_sem = asyncio.Semaphore(cfg.max_inflight)
        self._stopped_evt = asyncio.Event()
        self._tcp_server = await asyncio.start_server(
            self._handle_conn, cfg.host, cfg.port
        )
        if cfg.metrics_port is not None:
            self._http_server = await asyncio.start_server(
                self._handle_http, cfg.host, cfg.metrics_port
            )
        self._dispatch_task = asyncio.create_task(
            self._dispatcher(), name="repro-server-dispatch"
        )
        logger.info(
            "serving on %s:%d (metrics: %s), pool=%s workers=%d",
            cfg.host,
            self.port,
            self.metrics_port,
            self.service.pool_kind,
            self.service.workers,
        )

    @property
    def port(self) -> int:
        """Bound binary-protocol port (resolves ``port=0``)."""
        assert self._tcp_server is not None, "server not started"
        return self._tcp_server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> int | None:
        """Bound metrics HTTP port (``None`` when disabled)."""
        if self._http_server is None:
            return None
        return self._http_server.sockets[0].getsockname()[1]

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed."""
        assert self._stopped_evt is not None, "server not started"
        await self._stopped_evt.wait()

    async def stop(self) -> None:
        """Stop accepting, reject queued work, settle in-flight work.

        Queued (admitted, undispatched) requests are answered with
        ``status="rejected", reason="shutting_down"``; dispatched ones
        run to completion and are answered normally.  An owned service
        is closed afterwards.
        """
        if self._stopping:
            await self.wait_stopped()
            return
        self._stopping = True
        for srv in (self._tcp_server, self._http_server):
            if srv is not None:
                srv.close()
                await srv.wait_closed()
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatch_task
        while self._queue is not None and not self._queue.empty():
            _, _, item = self._queue.get_nowait()
            self._reject(item.conn, item.header.get("id"), "shutting_down")
            self.state.pending -= 1
        if self._tasks:
            await asyncio.gather(*tuple(self._tasks), return_exceptions=True)
        if self._owns_service:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.service.close)
        self._stopped_evt.set()

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # -- binary protocol -------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        st = self.state
        st.counters.inc("connections")
        st.connections_open += 1
        conn = _Conn(writer, st)
        try:
            while True:
                try:
                    raw = await reader.readexactly(PRELUDE.size)
                    header_len, payload_len = unpack_prelude(raw)
                    blob = await reader.readexactly(header_len)
                    payload = await reader.readexactly(payload_len)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    OSError,
                ):
                    break
                except CodecError as exc:
                    # framing is lost; answer once and hang up
                    await conn.send(_error_header(None, exc))
                    break
                st.counters.inc(
                    ("bytes", "read"), PRELUDE.size + header_len + payload_len
                )
                try:
                    header = json.loads(blob)
                    if not isinstance(header, dict):
                        raise ValueError("frame header must be a JSON object")
                except ValueError as exc:
                    await conn.send(_error_header(None, exc))
                    break
                op = str(header.get("op"))
                st.counters.inc(("requests", op))
                if op == "solve":
                    self._admit(header, payload, conn)
                elif op == "ping":
                    await conn.send(
                        {"op": "pong", "id": header.get("id"), "status": "ok"}
                    )
                elif op == "stats":
                    await conn.send(
                        {
                            "op": "stats",
                            "id": header.get("id"),
                            "status": "ok",
                            "service": self.service.stats().as_row(),
                            "server": st.as_dict(),
                        }
                    )
                elif op == "metrics":
                    text = render_prometheus(self.service, st)
                    await conn.send(
                        {
                            "op": "metrics",
                            "id": header.get("id"),
                            "status": "ok",
                            "content_type": METRICS_CONTENT_TYPE,
                        },
                        text.encode(),
                    )
                else:
                    await conn.send(
                        {
                            "op": "error",
                            "id": header.get("id"),
                            "status": "error",
                            "error": {
                                "type": "UnknownOp",
                                "message": f"unknown op {op!r}",
                            },
                        }
                    )
        finally:
            st.connections_open -= 1
            with contextlib.suppress(Exception):
                writer.close()

    # -- admission / dispatch -------------------------------------------
    def _admission_limit(self, priority: int) -> int:
        cfg = self.config
        if priority >= 2:
            fraction = 1.0
        elif priority == 1:
            fraction = cfg.shed_fraction_normal
        else:
            fraction = cfg.shed_fraction_low
        return max(1, int(cfg.max_pending * fraction))

    def _reject(self, conn: _Conn, rid, reason: str) -> None:
        st = self.state
        st.counters.inc(("shed", reason))
        st.counters.inc(("responses", "rejected"))
        self._spawn(
            conn.send(
                {
                    "op": "solve",
                    "id": rid,
                    "status": "rejected",
                    "reason": reason,
                    "queue_depth": st.pending,
                }
            )
        )

    def _admit(self, header: dict, payload: bytes, conn: _Conn) -> None:
        st = self.state
        rid = header.get("id")
        try:
            priority = int(
                header.get("priority", self.config.default_priority)
            )
        except (TypeError, ValueError):
            priority = self.config.default_priority
        deadline_ms = header.get("deadline_ms", self.config.default_deadline_ms)
        try:
            budget_s = float(deadline_ms) / 1e3 if deadline_ms else None
        except (TypeError, ValueError):
            st.counters.inc(("responses", "error"))
            exc = ValueError(f"deadline_ms must be a number, got {deadline_ms!r}")
            self._spawn(conn.send(_error_header(rid, exc)))
            return
        if self._stopping:
            self._reject(conn, rid, "shutting_down")
            return
        if st.pending >= self._admission_limit(priority):
            self._reject(conn, rid, "queue_full")
            return
        st.counters.inc("admitted")
        st.pending += 1
        now = time.monotonic()
        deadline = now + budget_s if budget_s is not None else None
        span = None
        if header.get("trace"):
            span = obs.Span(
                "request",
                {"id": rid, "backend": header.get("backend"),
                 "priority": priority},
                start=now,
            )
            admission = span.child("admission", start=now)
        item = _SolveItem(header, payload, conn, now, deadline, priority, span)
        # negative priority first, then arrival order within a class;
        # the tie-break sequence keeps the heap from comparing items
        self._queue.put_nowait((-priority, next(self._seq), item))
        if span is not None:
            admission.finish()

    async def _dispatcher(self) -> None:
        while True:
            _, _, item = await self._queue.get()
            if item.deadline is not None and time.monotonic() > item.deadline:
                self.state.pending -= 1
                self._reject(item.conn, item.header.get("id"), "deadline")
                continue
            await self._inflight_sem.acquire()
            self.state.inflight += 1
            self._spawn(self._solve_one(item))

    async def _solve_one(self, item: _SolveItem) -> None:
        loop = asyncio.get_running_loop()
        st = self.state
        rid = item.header.get("id")
        span = item.span
        item.dispatched = time.monotonic()
        queue_ms = (item.dispatched - item.arrival) * 1e3
        st.stage["queue_wait"].observe(queue_ms)
        if span is not None:
            span.child("queue_wait", start=item.arrival).finish(
                item.dispatched
            )
        try:
            try:
                problem_meta = item.header["problem"]

                def _decode_and_submit():
                    # off-loop: the decode copies O(m) columns and
                    # submit takes service locks.  Returns the solve
                    # span too: created here so the service's
                    # current_span() pickup sees it as the parent.
                    t0 = time.monotonic()
                    columns = split_columns(
                        problem_meta["columns"], memoryview(item.payload)
                    )
                    problem = decode_problem(problem_meta, columns)
                    t1 = time.monotonic()
                    solve_span = None
                    if span is not None:
                        span.child("decode_request", start=t0).finish(t1)
                        solve_span = span.child("solve", start=t1)
                    with obs.attach(solve_span):
                        future = self.service.submit(
                            problem, item.header.get("backend")
                        )
                    return future, t0, t1, solve_span

                future, t0, t1, solve_span = await loop.run_in_executor(
                    None, _decode_and_submit
                )
                st.stage["decode"].observe((t1 - t0) * 1e3)
                result = await asyncio.wrap_future(future)
                solved = time.monotonic()
                st.stage["solve"].observe((solved - t1) * 1e3)
                if solve_span is not None:
                    solve_span.finish(solved)

                def _encode():
                    meta, arrays = encode_result(result)
                    return meta, join_columns(arrays), result_digest(result)

                reply_span = (
                    span.child("reply") if span is not None else None
                )
                e0 = time.monotonic()
                meta, payload, digest = await loop.run_in_executor(
                    None, _encode
                )
                st.stage["encode"].observe((time.monotonic() - e0) * 1e3)
                late = (
                    item.deadline is not None
                    and time.monotonic() > item.deadline
                )
                if late:
                    st.counters.inc("deadline_late")
                st.pending -= 1
                st.counters.inc(("responses", "ok"))
                server_ms = (time.monotonic() - item.arrival) * 1e3
                st.stage["e2e"].observe(server_ms)
                header = {
                    "op": "solve",
                    "id": rid,
                    "status": "ok",
                    "result": meta,
                    "digest": digest,
                    "deadline_missed": late,
                    "server_ms": server_ms,
                    "queue_ms": queue_ms,
                    "compute_ms": server_ms - queue_ms,
                }
                if span is not None:
                    # the reply span covers result encoding; the send
                    # itself cannot be inside the tree it transmits
                    reply_span.finish()
                    span.finish()
                    header["trace"] = encode_trace(span)
                    self.traces.push(span)
                if self._slow_log is not None:
                    self._slow_log.observe(
                        server_ms,
                        id=rid,
                        backend=item.header.get("backend"),
                        priority=item.priority,
                        queue_ms=queue_ms,
                        compute_ms=server_ms - queue_ms,
                    )
                await item.conn.send(header, payload)
            except Exception as exc:
                st.pending -= 1
                st.counters.inc(("responses", "error"))
                await item.conn.send(_error_header(rid, exc))
        finally:
            st.inflight -= 1
            self._inflight_sem.release()

    # -- metrics HTTP listener ------------------------------------------
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._http_exchange(reader, writer)
        except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
            # a scraper hanging up mid-exchange is routine
            logger.debug("metrics http client dropped: %s", exc)
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _http_exchange(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request = await asyncio.wait_for(reader.readline(), 5.0)
        parts = request.decode("latin-1", "replace").split()
        method, path = (parts + ["", ""])[:2]
        while True:  # drain request headers
            line = await asyncio.wait_for(reader.readline(), 5.0)
            if line in (b"\r\n", b"\n", b""):
                break
        if method != "GET":
            status, ctype, body = (
                "405 Method Not Allowed",
                "text/plain",
                b"method not allowed\n",
            )
        elif path.split("?")[0] in ("/metrics", "/metrics/"):
            status = "200 OK"
            ctype = METRICS_CONTENT_TYPE
            body = render_prometheus(self.service, self.state).encode()
        elif path.split("?")[0] == "/healthz":
            health = self.service.pool_health()
            healthy = (
                health["live_workers"] > 0
                and not health["closed"]
                and not self._stopping
            )
            health["status"] = "ok" if healthy else "unavailable"
            status = "200 OK" if healthy else "503 Service Unavailable"
            ctype = "application/json"
            body = (json.dumps(health) + "\n").encode()
        else:
            status, ctype, body = (
                "404 Not Found",
                "text/plain",
                b"not found\n",
            )
        writer.write(
            (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
        )
        writer.write(body)
        await writer.drain()

    # -- context management ---------------------------------------------
    async def __aenter__(self) -> "MatchingServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()


def _error_header(rid, exc: BaseException) -> dict:
    return {
        "op": "solve" if rid is not None else "error",
        "id": rid,
        "status": "error",
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


class ServerHandle:
    """A :class:`MatchingServer` running on a background event loop."""

    def __init__(self, server: MatchingServer, thread: threading.Thread, loop):
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def metrics_port(self) -> int | None:
        return self.server.metrics_port

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the server and join its thread."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        )
        future.result(timeout)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(
    service: MatchingService | None = None,
    *,
    config: ServerConfig | None = None,
    ready_timeout: float = 10.0,
    **service_kwargs,
) -> ServerHandle:
    """Start a :class:`MatchingServer` on a daemon thread (sync callers).

    Returns once the listeners are bound; ``handle.port`` /
    ``handle.metrics_port`` carry the resolved ephemeral ports.  Use as
    a context manager or call :meth:`ServerHandle.stop`.
    """
    server = MatchingServer(service, config=config, **service_kwargs)
    ready = threading.Event()
    box: dict = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop

        async def _main() -> None:
            try:
                await server.start()
            except BaseException as exc:  # noqa: BLE001 -- report to starter
                box["error"] = exc
                ready.set()
                raise
            ready.set()
            await server.wait_stopped()

        try:
            loop.run_until_complete(_main())
        except BaseException:  # noqa: BLE001 -- surfaced via box["error"]
            if "error" not in box:
                logger.exception("server thread died")
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-server", daemon=True)
    thread.start()
    if not ready.wait(ready_timeout):
        raise RuntimeError("server failed to start within ready_timeout")
    if "error" in box:
        thread.join(ready_timeout)
        raise box["error"]
    return ServerHandle(server, thread, box["loop"])
