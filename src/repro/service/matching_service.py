"""The in-process matching service: submit problems, get futures.

:class:`MatchingService` is the serving layer over the
:mod:`repro.api` backend registry.  The PR-2 lockstep engine delivers
its several-fold per-instance throughput only to callers who already
hold a whole batch; the service extends that economy to *independent
concurrent callers*:

1. ``submit()`` resolves the backend from the registry, content-
   addresses the problem (:meth:`~repro.api.Problem.fingerprint`), and
   answers duplicates for free -- from the result cache when an
   identical problem already completed, or by attaching to the
   identical in-flight request's future (coalescing).
2. New work is routed to a fingerprint-sharded worker queue
   (:class:`~repro.service.workers.ShardedWorkerPool`).
3. The shard worker collects waiting requests into an adaptive
   micro-batch (:class:`~repro.service.batching.MicroBatchPolicy`),
   groups it by ``(backend, batch_key)``
   (:func:`~repro.service.batching.plan_dispatch`), and hands each
   group to the configured
   :class:`~repro.service.executors.GroupExecutor`: batchable groups
   ride the lockstep engine (``run_many``), the rest per-request
   ``run()`` -- in the collector thread (``pool="thread"``) or in a
   per-shard worker process over shared memory (``pool="process"``,
   see :mod:`repro.server`).
4. Results resolve the callers' futures, feed the content cache, and
   aggregate into :class:`~repro.service.stats.ServiceStats`.

Correctness contract: every resolved future equals a direct
``repro.api.run(problem, backend)`` call *exactly* -- same matchings,
certificates and ledgers -- including cache hits, which return the
stored ``RunResult`` object itself (bit-identical by construction).
Pinned by the parity battery in ``tests/test_service.py``.

Both a synchronous front end (``solve``, blocking) and an ``asyncio``
front end (``asolve``, awaitable) are provided; they share the same
futures, so mixed sync/async callers coalesce against each other.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
import weakref
from concurrent.futures import Future, InvalidStateError

from repro import obs
from repro.api import Problem, RunResult, get_backend
from repro.service.batching import MicroBatchPolicy, ServiceRequest, plan_dispatch
from repro.service.cache import ResultCache
from repro.service.executors import GroupExecutor, LocalExecutor
from repro.service.stats import ServiceStats, StatsRecorder
from repro.service.workers import ShardedWorkerPool

__all__ = ["MatchingService"]


def _chained(internal: Future) -> Future:
    """A per-caller future relaying the internal computation future.

    The internal future is service-owned and never cancelled; caller
    futures are individually cancellable without touching the shared
    computation (a cancelled caller is simply skipped at relay time).
    """
    caller: Future = Future()

    def relay(f: Future) -> None:
        if caller.cancelled():
            return
        exc = f.exception()
        # caller may cancel between the check above and the set below
        with contextlib.suppress(InvalidStateError):
            if exc is not None:
                caller.set_exception(exc)
            else:
                caller.set_result(f.result())

    internal.add_done_callback(relay)
    return caller


class MatchingService:
    """Serve ``Problem`` traffic over the backend registry.

    Parameters
    ----------
    workers:
        Shard/worker count.  One worker maximizes batch occupancy;
        more workers trade occupancy for parallel dispatch.
    pool:
        Execution substrate for dispatched groups: ``"thread"`` (the
        default -- groups run on the collector threads, in process) or
        ``"process"`` -- groups ship to per-shard worker *processes*
        over shared memory (:class:`~repro.server.procpool.
        ProcessGroupExecutor`), escaping the GIL for CPU-bound solves.
        Results are pinned digest-identical across substrates.
    max_batch, max_delay_s:
        Micro-batching policy; see
        :class:`~repro.service.batching.MicroBatchPolicy`.
    cache_capacity:
        LRU capacity of the content-addressed result cache
        (``0`` disables caching; in-flight coalescing stays active).
    default_backend:
        Registry name used when ``submit``/``solve`` get no explicit
        backend.

    Use as a context manager (``with MatchingService() as svc: ...``)
    or call :meth:`close` explicitly; queued work is drained before
    workers stop.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        pool: str = "thread",
        max_batch: int = 32,
        max_delay_s: float = 0.002,
        cache_capacity: int = 2048,
        default_backend: str = "offline",
    ):
        get_backend(default_backend)  # fail fast on a bad registry name
        self.default_backend = default_backend
        self.policy = MicroBatchPolicy(max_batch=max_batch, max_delay_s=max_delay_s)
        # the executor forks/allocates before the collector threads start
        # (fork-before-thread keeps the children clean)
        if pool == "thread":
            executor: GroupExecutor = LocalExecutor()
        elif pool == "process":
            from repro.server.procpool import ProcessGroupExecutor

            executor = ProcessGroupExecutor(workers)
        else:
            raise ValueError(f"unknown pool kind {pool!r}; use 'thread' or 'process'")
        self._executor = executor
        self._cache = ResultCache(cache_capacity)
        self._stats = StatsRecorder()
        self._inflight: dict[str, Future] = {}
        # content addresses invalidated while their computation was still
        # in flight: the future resolves normally, the cache re-insert is
        # suppressed (see _invalidate_keys / _resolve)
        self._doomed: set[str] = set()
        # weak so an abandoned (never-closed) session stays collectable;
        # close() sweeps whatever is still alive
        self._sessions: "weakref.WeakValueDictionary[int, object]" = (
            weakref.WeakValueDictionary()
        )
        self._session_seq = 0
        self._lock = threading.Lock()
        self._closed = False
        self._pool = ShardedWorkerPool(
            workers,
            self.policy,
            self._execute,
            on_handler_error=lambda exc: self._stats.record_handler_error(),
        )

    # ------------------------------------------------------------------
    # Submission front ends
    # ------------------------------------------------------------------
    def submit(self, problem: Problem, backend: str | None = None) -> Future:
        """Submit one problem; returns a ``concurrent.futures.Future``.

        The future resolves to the :class:`~repro.api.RunResult` a
        direct ``run(problem, backend)`` would return (or raises what
        it would raise).  Registry/task mismatches surface here,
        synchronously.  Duplicate submissions (same backend + content
        address) share one computation.

        Every caller gets its *own* future, chained to the (internal)
        computation: cancelling it detaches that caller only -- the
        computation, and any duplicate submitters coalesced onto it,
        are unaffected.
        """
        name = backend if backend is not None else self.default_backend
        get_backend(name).check(problem)  # fail fast, before any hashing
        return self._submit_keyed(problem, name, self._content_key(problem, name))

    def _submit_keyed(
        self, problem: Problem, name: str, key: str | None
    ) -> Future:
        """The body of :meth:`submit` with the content address already
        computed (sessions reuse the key they record, so the canonical
        JSON hashing runs once per submission).  Callers have already
        run ``get_backend(name).check(problem)``."""
        submitted_at = time.monotonic()
        span = obs.current_span()  # None in the untraced common case
        # registration, closed-check and enqueue are one atomic step:
        # close() flips _closed under this lock, so a request is either
        # rejected here or enqueued ahead of the shutdown sentinel
        with self._lock:
            if self._closed:
                raise RuntimeError("MatchingService is closed")
            self._stats.record_submit()
            if key is not None:
                hit = self._cache.get(key)
                if hit is not None:
                    self._stats.record_cache_hit(time.monotonic() - submitted_at)
                    fut: Future = Future()
                    fut.set_result(hit)
                    return fut
                inflight = self._inflight.get(key)
                if inflight is not None:
                    self._stats.record_coalesced()
                    inflight.add_done_callback(
                        lambda f, t0=submitted_at: (
                            self._stats.record_coalesced_resolution(
                                time.monotonic() - t0,
                                failed=f.exception() is not None,
                            )
                        )
                    )
                    return _chained(inflight)
            internal: Future = Future()
            if key is not None:
                self._inflight[key] = internal
            request = ServiceRequest(
                problem=problem,
                backend=name,
                future=internal,
                cache_key=key,
                submitted_at=submitted_at,
                span=span,
            )
            self._pool.submit(request)
        return _chained(internal)

    @staticmethod
    def _content_key(problem: Problem, backend: str) -> str | None:
        """Content address of ``(backend, problem)``; ``None`` when the
        problem's options have no canonical JSON form (uncacheable)."""
        try:
            return f"{backend}:{problem.fingerprint()}"
        except TypeError:
            return None

    def solve(
        self,
        problem: Problem,
        backend: str | None = None,
        timeout: float | None = None,
    ) -> RunResult:
        """Blocking ``submit().result()`` convenience."""
        return self.submit(problem, backend).result(timeout)

    async def asubmit(
        self, problem: Problem, backend: str | None = None
    ) -> "asyncio.Future[RunResult]":
        """``asyncio`` front end: an awaitable wrapping :meth:`submit`.

        :meth:`submit` fingerprints the graph (O(m) hashing) before
        enqueueing, so it is offloaded to the loop's default executor
        -- large first-seen graphs must not stall the event loop.
        """
        loop = asyncio.get_running_loop()
        fut = await loop.run_in_executor(None, self.submit, problem, backend)
        return asyncio.wrap_future(fut)

    async def asolve(
        self, problem: Problem, backend: str | None = None
    ) -> RunResult:
        """Await one result (``await svc.asolve(problem)``)."""
        return await (await self.asubmit(problem, backend))

    # ------------------------------------------------------------------
    # Dynamic sessions (fingerprint-delta cache invalidation)
    # ------------------------------------------------------------------
    def open_session(
        self,
        n: int,
        *,
        config=None,
        base_graph=None,
        matching_backend: str = "offline",
    ):
        """Open a :class:`~repro.service.sessions.ServiceSession`.

        The session's queries are ordinary submissions (they coalesce
        and cache normally); its *updates* evict exactly the content
        addresses the session populated, so an evolving graph never
        pins stale results while unrelated traffic keeps its cache.

        Parameters
        ----------
        n:
            Vertex count of the session graph.
        config:
            :class:`~repro.core.matching_solver.SolverConfig` used for
            the session's queries.
        base_graph:
            Optional starting graph.
        matching_backend:
            Backend for matching queries (default ``"offline"`` --
            session queries then micro-batch with regular traffic).
        """
        from repro.service.sessions import ServiceSession

        # construction (which may ingest a large base graph) happens
        # outside the service lock; registration re-checks _closed so a
        # close() landing in between rejects the handle rather than
        # leaving it open against a dead service
        with self._lock:
            if self._closed:
                raise RuntimeError("MatchingService is closed")
            self._session_seq += 1
            sid = self._session_seq
        session = ServiceSession(
            self,
            sid,
            n,
            config=config,
            base_graph=base_graph,
            matching_backend=matching_backend,
        )
        with self._lock:
            if self._closed:
                session._closed = True
                raise RuntimeError("MatchingService is closed")
            self._sessions[sid] = session
        return session

    def _forget_session(self, session) -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)

    def _invalidate_keys(self, keys) -> int:
        """Evict the given content addresses; doom any still in flight.

        A doomed key's computation resolves its callers normally (the
        result is correct for the fingerprint it was keyed under) but
        skips the cache re-insert, so invalidation cannot be undone by
        a racing late :meth:`_resolve`.
        """
        keys = set(keys)
        with self._lock:
            for key in keys:
                if key in self._inflight:
                    self._doomed.add(key)
            return self._cache.evict_many(keys)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Immutable metrics snapshot (latency percentiles, occupancy
        histogram, cache hit rate, per-backend ledger totals)."""
        return self._stats.snapshot()

    def cache_stats(self):
        """Raw cache counters (:class:`~repro.service.cache.CacheStats`)."""
        return self._cache.stats()

    @property
    def workers(self) -> int:
        """Shard/worker count of the underlying pool."""
        return self._pool.workers

    @property
    def pool_kind(self) -> str:
        """Execution substrate of dispatched groups (thread/process)."""
        return self._executor.kind

    def queued(self) -> int:
        """Requests waiting in shard queues (approximate; for metrics)."""
        return self._pool.queued()

    def pool_health(self) -> dict:
        """Liveness of the execution substrate, for ``/healthz``/metrics.

        ``live_workers`` counts whichever layer actually executes
        groups: worker *processes* for ``pool="process"`` (a crashed
        child is dead until its next-dispatch respawn), collector
        *threads* for ``pool="thread"``.  ``respawns`` counts process
        replacements after crashes (always 0 for threads).  A healthy
        service has ``live_workers == workers``; zero means no request
        can make progress and ``/healthz`` turns 503.
        """
        executor = self._executor
        live = getattr(executor, "live_workers", None)
        if callable(live):
            return {
                "pool": executor.kind,
                "workers": getattr(executor, "workers", self._pool.workers),
                "live_workers": live(),
                "respawns": int(getattr(executor, "respawns", 0)),
                "closed": self._closed,
            }
        return {
            "pool": executor.kind,
            "workers": self._pool.workers,
            "live_workers": self._pool.live_workers(),
            "respawns": 0,
            "closed": self._closed,
        }

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, wait: bool = True) -> None:
        """Stop accepting submissions, drain queued work, stop workers.

        Open sessions are closed first (their cached entries evicted,
        their ``closed`` flag set) so no handle outlives the service in
        a usable-looking state.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True  # under the submit lock: no late enqueues
            # snapshot under the same lock: open_session can no longer
            # register, and iteration cannot race a weak-dict insert
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()  # re-acquires the lock per eviction; not held here
        self._pool.shutdown(wait=wait)
        if wait:
            for req in self._pool.drain():
                self._fail(
                    req, RuntimeError("MatchingService closed"), computed=False
                )
            # no run_group call can be in flight once the pool joined
            self._executor.close()

    def __enter__(self) -> "MatchingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Worker-side execution
    # ------------------------------------------------------------------
    def _execute(self, batch: list[ServiceRequest]) -> None:
        """Dispatch one collected micro-batch (runs on a worker thread).

        Must never raise: any escaping exception would kill the shard
        worker and wedge its queue, so every failure -- including a
        custom backend's ``batch_key``/``run_many`` misbehaving -- is
        resolved into the affected requests' futures instead.
        """
        self._stats.record_batch(len(batch))
        traced_batch = [req for req in batch if req.span is not None]
        if traced_batch:
            dispatched = time.monotonic()
            for req in traced_batch:
                req.span.child(
                    "service.queue_wait", start=req.submitted_at
                ).finish(dispatched)
        try:
            groups = plan_dispatch(batch)
        except BaseException as exc:  # noqa: BLE001 -- a custom batch_key may raise
            for req in batch:
                self._fail(req, exc)
            return
        if traced_batch:
            planned = time.monotonic()
            for req in traced_batch:
                req.span.child(
                    "plan_dispatch",
                    {"batch": len(batch), "groups": len(groups)},
                    start=dispatched,
                ).finish(planned)
        for group in groups:
            # one shared dispatch-group span per traced group: the group
            # runs once, so its executor/worker subtree is grafted into
            # every traced member's request tree
            traced = [req for req in group if req.span is not None]
            gspan = None
            if traced:
                gspan = obs.Span(
                    "dispatch_group",
                    {
                        "backend": group[0].backend,
                        "size": len(group),
                        "pool": self._executor.kind,
                    },
                )
            try:
                with obs.attach(gspan):
                    results = self._executor.run_group(
                        group[0].backend, [req.problem for req in group]
                    )
                if len(results) != len(group):
                    raise RuntimeError(
                        f"backend {group[0].backend!r} run_many returned "
                        f"{len(results)} results for {len(group)} problems"
                    )
            except BaseException as exc:  # noqa: BLE001 -- resolve, don't kill the worker
                for req in group:
                    self._fail(req, exc)
            else:
                if gspan is not None:
                    gspan.finish()
                    for req in traced:
                        req.span.graft(gspan)
                for req, result in zip(group, results):
                    try:
                        self._resolve(req, result)
                    except BaseException as exc:  # noqa: BLE001
                        self._fail(req, exc)

    def _resolve(self, req: ServiceRequest, result: RunResult) -> None:
        with self._lock:
            if req.cache_key is not None:
                if req.cache_key in self._doomed:
                    # invalidated while in flight: callers still get the
                    # result, the cache stays evicted
                    self._doomed.discard(req.cache_key)
                else:
                    self._cache.put(req.cache_key, result)
                self._inflight.pop(req.cache_key, None)
        self._stats.record_completion(
            req.backend,
            time.monotonic() - req.submitted_at,
            result.ledger,
            convergence=result.convergence(),
        )
        req.future.set_result(result)

    def _fail(
        self, req: ServiceRequest, exc: BaseException, computed: bool = True
    ) -> None:
        with self._lock:
            if req.cache_key is not None:
                self._inflight.pop(req.cache_key, None)
                self._doomed.discard(req.cache_key)
        self._stats.record_failure(
            req.backend, time.monotonic() - req.submitted_at, computed=computed
        )
        # already resolved when a late resolve step fails
        with contextlib.suppress(InvalidStateError):
            req.future.set_exception(exc)
