"""Adaptive micro-batching policy and dispatch planning.

The service's unit of work is a :class:`ServiceRequest` (one submitted
problem plus its future and content address).  A shard worker collects
waiting requests into a *micro-batch* under a max-batch / max-delay
policy, then :func:`plan_dispatch` splits the collected batch into
engine dispatch groups: requests whose backend is batchable and whose
:meth:`~repro.api.Backend.batch_key` matches ride one lockstep
``run_many`` call; everything else (heterogeneous configs, non-default
budgets/options, non-batchable backends) is dispatched per request
through ``run()``.

Adaptivity
----------
Waiting the full ``max_delay_s`` for stragglers is only worth it when
traffic is heavy enough that stragglers actually arrive.  The policy
therefore scales its wait budget by an EWMA of recent batch occupancy
(batch size over ``max_batch``): under sustained load the budget stays
near ``max_delay_s`` and batches fill, while a quiet service decays the
budget toward zero so sporadic requests stop paying the coalescing
latency tax.  Occupancy starts at 1.0 (optimistic) so the first burst
after startup batches well.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Hashable

from repro.api import Problem, get_backend

__all__ = [
    "MicroBatchPolicy",
    "AdaptiveDelay",
    "ServiceRequest",
    "plan_dispatch",
]

#: Smoothing factor of the batch-occupancy EWMA (higher reacts faster).
OCCUPANCY_EWMA_ALPHA = 0.25


@dataclass(frozen=True)
class MicroBatchPolicy:
    """Micro-batching knobs.

    Attributes
    ----------
    max_batch:
        Hard cap on requests coalesced into one micro-batch (the
        lockstep engine's sweet spot is around 32; see
        ``benchmarks/BENCH_solver.json``).
    max_delay_s:
        Longest a worker will hold an already-arrived request open for
        stragglers.  The worst-case added latency per request; the
        actual wait scales with recent batch occupancy (see module
        docstring).
    """

    max_batch: int = 32
    max_delay_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be nonnegative")


class AdaptiveDelay:
    """Per-worker mutable companion of :class:`MicroBatchPolicy`.

    Tracks the occupancy EWMA and turns it into the wait budget for the
    next collection window.  Only its owning worker thread touches it.
    """

    def __init__(self, policy: MicroBatchPolicy):
        self.policy = policy
        self.occupancy = 1.0

    def wait_budget(self) -> float:
        """Seconds the next collection may hold its first request open."""
        return self.policy.max_delay_s * self.occupancy

    def observe(self, batch_size: int) -> None:
        """Fold one collected batch's occupancy into the EWMA."""
        occ = min(1.0, batch_size / self.policy.max_batch)
        self.occupancy += OCCUPANCY_EWMA_ALPHA * (occ - self.occupancy)


@dataclass
class ServiceRequest:
    """One submitted problem travelling through the service.

    ``cache_key`` is the content address (``"<backend>:<fingerprint>"``)
    or ``None`` when the problem is not fingerprintable; ``submitted_at``
    is the ``time.monotonic()`` stamp latency is measured from.
    ``span`` is the request's active :class:`~repro.obs.Span` captured
    at submission (``None`` for the untraced common case) -- the
    service's dispatch pipeline hangs its queue-wait/planning/group
    spans under it as the request travels through worker threads.
    """

    problem: Problem
    backend: str
    future: Future = field(default_factory=Future)
    cache_key: str | None = None
    submitted_at: float = field(default_factory=time.monotonic)
    span: object | None = None


def plan_dispatch(requests: list[ServiceRequest]) -> list[list[ServiceRequest]]:
    """Split one collected micro-batch into engine dispatch groups.

    Requests sharing ``(backend, batch_key)`` -- with the backend
    batchable and the key not ``None`` -- form one group, in arrival
    order; every other request becomes a singleton group.  Group order
    follows the first arrival of each group, so dispatch stays fair
    under mixed traffic.
    """
    groups: list[list[ServiceRequest]] = []
    index: dict[tuple[str, Hashable], int] = {}
    for req in requests:
        be = get_backend(req.backend)
        key = be.batch_key(req.problem) if be.batchable else None
        if key is None:
            groups.append([req])
            continue
        gkey = (req.backend, key)
        slot = index.get(gkey)
        if slot is None:
            index[gkey] = len(groups)
            groups.append([req])
        else:
            groups[slot].append(req)
    return groups
