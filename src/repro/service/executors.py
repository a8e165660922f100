"""Group executors: where a planned dispatch group actually runs.

The service pipeline is split in two along the thread/process seam:

* the :class:`~repro.service.workers.ShardedWorkerPool` owns the
  *queues* -- routing, micro-batch collection, drain-on-shutdown --
  and always lives in the serving process;
* a :class:`GroupExecutor` owns the *computation* of one planned
  dispatch group (same backend, same batch key -- the unit
  :func:`~repro.service.batching.plan_dispatch` emits).

:class:`LocalExecutor` runs groups in the collector thread itself (the
historical in-process behavior: fine for numpy-heavy work that releases
the GIL, and the only option for problems that cannot be serialized).
:class:`repro.server.procpool.ProcessGroupExecutor` implements the same
interface over a pool of worker *processes* with shared-memory problem
transport, which is how ``MatchingService(pool="process")`` escapes the
GIL for CPU-bound solves.

The contract every implementation must honor (pinned by the parity
batteries in ``tests/test_service.py`` / ``tests/test_server_procpool.
py``): ``run_group(backend, problems)`` returns exactly what
``get_backend(backend).run_many(problems)`` would return in process --
same matchings, certificates, ledgers, digests.
"""

from __future__ import annotations

from repro import obs
from repro.api import RunResult, get_backend

__all__ = ["GroupExecutor", "LocalExecutor"]


class GroupExecutor:
    """Executes one planned dispatch group; see module docstring.

    ``kind`` names the execution substrate (``"thread"`` /
    ``"process"``) for stats and bench metadata.  ``close`` releases
    any resources; the service calls it after its worker pool has
    drained, so no ``run_group`` call is in flight by then.
    """

    kind: str = "?"

    def run_group(self, backend: str, problems: list) -> list[RunResult]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class LocalExecutor(GroupExecutor):
    """Run the group on the calling (collector) thread, in process."""

    kind = "thread"

    def run_group(self, backend: str, problems: list) -> list[RunResult]:
        be = get_backend(backend)
        with obs.span("worker_compute", backend=backend, problems=len(problems)):
            return be.run_many(problems)
