"""Process-pool group executor: solve batches outside the GIL.

``MatchingService(pool="process")`` swaps its
:class:`~repro.service.executors.LocalExecutor` for this module's
:class:`ProcessGroupExecutor`: the shard collector threads still live
in the serving process (queues, micro-batching, futures, cache and
stats are untouched), but every planned dispatch group is shipped to a
worker *process*:

1. the problems of the group are flattened by the
   :mod:`~repro.server.codec` into JSON headers + numpy columns (the
   ``.edges`` structure-of-arrays layout), the columns written into one
   ``multiprocessing.shared_memory`` block per group;
2. a tiny control message (backend name, block name, headers with
   per-problem offsets) crosses a pipe; the worker attaches the block,
   copies the columns out, rebuilds the problems (verifying each
   fingerprint) and runs the group exactly like the in-process
   executor would (``run`` / lockstep ``run_many``);
3. results return as encoded header + arrays and are rebuilt against
   the submitted graph objects, so callers observe the same result
   shape as the thread pool -- pinned digest-identical by
   ``tests/test_server_procpool.py``.

The collector thread blocks in ``Connection.recv`` while the child
computes, releasing the GIL, so N shards genuinely occupy N cores.

Production semantics: problems whose options cannot cross an address
space (external ledgers, pre-built engines/streams -- exactly the
unfingerprintable ones) fall back to in-process execution instead of
failing; a worker that dies mid-group fails that group's futures with
a :class:`WorkerCrashed` error and is respawned, so one poisoned
request cannot take the shard down with it.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import os
import pickle
import queue
import traceback
from multiprocessing import shared_memory

import numpy as np

from repro import obs
from repro.server.codec import (
    columns_nbytes,
    decode_problem,
    decode_result,
    decode_trace,
    encode_problem_group,
    encode_result,
    encode_trace,
    split_columns,
)
from repro.service.executors import GroupExecutor, LocalExecutor

__all__ = ["ProcessGroupExecutor", "WorkerCrashed"]

logger = logging.getLogger("repro.server")


class WorkerCrashed(RuntimeError):
    """A worker process died while executing a group."""


def _tracker_is_private() -> bool:
    """True when this process would lazily start its *own* tracker.

    Called before the first attach.  A fork child whose parent already
    ran the resource tracker inherits its fd (one shared tracker); a
    spawn child -- or a fork child whose parent had not started one
    yet -- lazily starts a private tracker on first use.
    """
    try:
        from multiprocessing import resource_tracker

        return getattr(resource_tracker._resource_tracker, "_fd", None) is None
    except Exception:  # pragma: no cover - tracker layout differs
        return False


def _attach_shared_memory(
    name: str, unregister: bool
) -> shared_memory.SharedMemory:
    """Attach to an existing block without confusing the tracker.

    Attaching registers the segment with ``resource_tracker`` again
    (python/cpython#82300).  With a *private* tracker that registration
    would produce bogus leak warnings at worker exit, so it is dropped;
    with a tracker *shared* with the owner (fork), the re-registration
    is an idempotent no-op and must be left alone -- unregistering
    there would strip the owner's own registration and make its
    ``unlink`` blow up in the tracker.
    """
    shm = shared_memory.SharedMemory(name=name)
    if unregister:
        with contextlib.suppress(Exception):  # tracker layout differs
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
    return shm


def _safe_exception(exc: BaseException) -> BaseException:
    """The exception itself when it pickles; a faithful stand-in else."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(conn) -> None:
    """Worker-process loop: serve ``("group", ...)`` messages until EOF.

    Runs in the child.  Messages: ``None`` -> clean shutdown;
    ``("group", backend, shm_name, metas, group_meta)`` -> decode, run,
    reply with ``("ok", [(meta, arrays), ...], trace_or_None)`` or
    ``("exc", exception)``.  ``group_meta`` carries one flag,
    ``{"trace": bool}`` -- when set, the worker roots a ``"worker"``
    span over the group and ships it back as the third reply element
    (:func:`~repro.server.codec.encode_trace` form), where the parent
    grafts it into the request tree.  Trace data rides *next to* the
    encoded results, never inside them, so result digests are
    unaffected.
    """
    executor = LocalExecutor()
    # decided once, before the first attach lazily starts anything
    private_tracker = _tracker_is_private()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        _, backend, shm_name, metas, group_meta = msg
        root = None
        if group_meta.get("trace"):
            root = obs.Span(
                "worker",
                {"pid": os.getpid(), "backend": backend,
                 "problems": len(metas)},
            )
        try:
            with obs.attach(root):
                shm = _attach_shared_memory(
                    shm_name, unregister=private_tracker
                )
                try:
                    problems = []
                    for meta in metas:
                        base = meta["shm_base"]
                        nbytes = columns_nbytes(meta["columns"])
                        cols = split_columns(
                            meta["columns"], shm.buf[base : base + nbytes]
                        )
                        problems.append(decode_problem(meta, cols))
                finally:
                    # split_columns copied; release the mapping immediately
                    shm.close()
                results = executor.run_group(backend, problems)
                reply = [encode_result(r) for r in results]
            if root is not None:
                root.finish()
            conn.send(
                ("ok", reply, encode_trace(root) if root is not None else None)
            )
        except BaseException as exc:  # noqa: BLE001 -- resolve, don't die
            try:
                conn.send(("exc", _safe_exception(exc)))
            except Exception:  # pragma: no cover - reply channel broken
                logger.error(
                    "worker could not report failure: %s",
                    traceback.format_exc(),
                )
                return


class _WorkerChannel:
    """One worker process plus its parent-side control pipe."""

    def __init__(self, ctx, index: int):
        self.index = index
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-server-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.dead = False

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def run_group(self, backend: str, problems: list) -> list:
        """Ship one group through shared memory; blocks until the reply.

        When a span is attached on the calling thread (a traced
        request's dispatch-group span), the shm encode/decode legs get
        child spans here, the worker is told to trace itself, and the
        worker's own span tree is grafted in between them -- one
        request, one tree, across the process boundary.
        """
        cur = obs.current_span()
        with obs.span("shm_encode", problems=len(problems)):
            metas, total, write_into = encode_problem_group(problems)
            shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        try:
            with obs.span("shm_write", nbytes=total):
                # one direct pass: columns land in the segment without
                # tobytes staging a second copy of the group's payload
                write_into(shm.buf)
            try:
                self.conn.send(
                    ("group", backend, shm.name, metas,
                     {"trace": cur is not None})
                )
                reply = self.conn.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                self.dead = True
                raise WorkerCrashed(
                    f"worker process {self.pid} died while executing a "
                    f"{len(problems)}-problem {backend!r} group"
                ) from exc
        finally:
            # the worker copied (or never will); reclaim the segment
            shm.close()
            shm.unlink()
        status, payload = reply[0], reply[1]
        if status == "exc":
            raise payload
        if cur is not None and reply[2] is not None:
            cur.graft(decode_trace(reply[2]))
        with obs.span("shm_decode", results=len(payload)):
            return [
                decode_result(
                    meta,
                    dict(zip((c["name"] for c in meta["columns"]), arrays)),
                    problem.graph,
                )
                for (meta, arrays), problem in zip(payload, problems)
            ]

    def stop(self, timeout: float = 5.0) -> None:
        if not self.dead:
            # the worker may already be gone; the join below settles it
            with contextlib.suppress(OSError, BrokenPipeError):
                self.conn.send(None)
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout)
        self.conn.close()


class ProcessGroupExecutor(GroupExecutor):
    """A pool of worker processes behind the :class:`GroupExecutor` face.

    Parameters
    ----------
    workers:
        Worker-process count; sized to the service's shard count so
        every collector thread can hold a worker concurrently.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (sub-second startup, inherits the loaded kernel
        backend) falling back to ``spawn``.
    """

    kind = "process"

    def __init__(self, workers: int, start_method: str | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self._local = LocalExecutor()
        self._closed = False
        #: total worker processes replaced after crashes (monotonic;
        #: read by ``MatchingService.pool_health`` and ``/healthz``)
        self.respawns = 0
        self._channels = [_WorkerChannel(self._ctx, i) for i in range(workers)]
        self._free: queue.Queue[_WorkerChannel] = queue.Queue()
        for ch in self._channels:
            self._free.put(ch)

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return len(self._channels)

    def worker_pids(self) -> list[int | None]:
        """PIDs of the live worker processes (for tests/metrics)."""
        return [ch.pid for ch in self._channels]

    def live_workers(self) -> int:
        """Worker processes currently alive and serviceable.

        A crashed worker counts as dead from the moment its channel
        errors until :meth:`_respawn` replaces it at next dispatch, so
        a scrape taken in between sees the true (reduced) capacity.
        """
        return sum(
            1
            for ch in self._channels
            if not ch.dead and ch.process.is_alive()
        )

    @staticmethod
    def _shippable(problems: list) -> bool:
        """A group may cross iff every problem is content-addressable.

        Unfingerprintable options are live in-process objects (external
        ledgers, engines, streams) whose semantics -- mutate *this*
        object -- cannot survive an address-space hop; those groups run
        locally, exactly as the thread pool would run them.
        """
        for problem in problems:
            try:
                problem.fingerprint()
            except TypeError:
                return False
        return True

    def run_group(self, backend: str, problems: list) -> list:
        if self._closed:
            raise RuntimeError("ProcessGroupExecutor is closed")
        if not self._shippable(problems):
            return self._local.run_group(backend, problems)
        channel = self._free.get()
        try:
            return channel.run_group(backend, problems)
        finally:
            if channel.dead:
                channel = self._respawn(channel)
            self._free.put(channel)

    def _respawn(self, dead: _WorkerChannel) -> _WorkerChannel:
        """Replace a crashed worker so the shard keeps serving."""
        self.respawns += 1
        logger.warning(
            "worker process %s crashed; respawning", dead.pid
        )
        with contextlib.suppress(Exception):  # crashed-process cleanup
            dead.stop(timeout=0.1)
        replacement = _WorkerChannel(self._ctx, dead.index)
        self._channels[self._channels.index(dead)] = replacement
        return replacement

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for ch in self._channels:
            ch.stop()

    def __enter__(self) -> "ProcessGroupExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
