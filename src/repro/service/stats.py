"""Service metrics: latency percentiles, occupancy, cache rate, ledgers.

The paper reports its algorithms in model resources (passes, rounds,
space); a *serving* layer reports in serving resources: request latency
percentiles, how full the lockstep batches ran, how often the content
cache answered for free, and -- bridging back to the paper -- the
aggregated :class:`~repro.api.RunLedger` totals of all computation the
service actually performed, per backend.

:class:`StatsRecorder` is the mutable, thread-safe collector the
service writes into; :meth:`StatsRecorder.snapshot` freezes it into an
immutable :class:`ServiceStats` for callers.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.api import RunLedger
from repro.util.instrumentation import (
    CountHistogram,
    LatencyHistogram,
    percentile,
)

__all__ = ["ServiceStats", "StatsRecorder"]

#: RunLedger counters summed into per-backend totals.
_SUM_FIELDS = (
    "rounds",
    "refinement_steps",
    "oracle_calls",
    "shuffle_words",
    "edges_streamed",
    "passes",
    "clique_total_words",
)
#: RunLedger high-water marks folded with max.
_MAX_FIELDS = ("peak_central_space", "reducer_peak_words", "clique_max_vertex_words")

#: Recent request latencies (and final certified gaps) kept for the
#: nearest-rank percentiles.
LATENCY_WINDOW = 4096


@dataclass(frozen=True)
class ServiceStats:
    """Immutable metrics snapshot returned by ``MatchingService.stats()``.

    Attributes
    ----------
    submitted, completed, failed:
        Request counts: everything accepted by ``submit()``, successful
        resolutions (including cache hits and coalesced duplicates),
        and error resolutions.
    cache_hits:
        Submissions answered from the result cache without touching a
        worker.
    coalesced:
        Submissions attached to an identical in-flight request (they
        share its single computation; counted into ``completed`` /
        ``failed`` when that computation resolves).
    computed:
        Requests a backend actually executed (counted directly at
        resolution, so a snapshot taken while duplicates are in flight
        is still consistent).
    batches:
        Micro-batches dispatched by the shard workers.
    latency_p50_ms, latency_p95_ms:
        Nearest-rank percentiles over the recent request-latency window
        (submit to resolution; cache hits enter as ~0).  ``None`` until
        the first request resolves.
    batch_occupancy:
        Histogram of collected micro-batch sizes (size -> count).
    mean_occupancy:
        Mean collected batch size (``None`` before the first batch).
    cache_hit_rate:
        ``(cache_hits + coalesced) / submitted`` -- the fraction of
        traffic served without a new computation (0.0 when idle).
    backend_requests:
        Computed-request count per backend name.
    ledger_totals:
        Per backend: summed :class:`~repro.api.RunLedger` counters over
        every *computed* result (cache hits deliberately do not
        re-count work), with high-water fields folded by max.
    handler_errors:
        Batch-handler exceptions caught by the worker-pool backstop.
        The contract is that the dispatch handler resolves failures
        into futures and never raises; a nonzero count here means that
        contract was violated (each event is also logged as a warning
        by the pool instead of being swallowed).
    latency_histogram:
        Fixed-bucket request-latency snapshot
        (:meth:`~repro.util.instrumentation.LatencyHistogram.snapshot`
        shape) -- the distribution behind the p50/p95 gauges, rendered
        as a Prometheus histogram family by
        :func:`repro.server.metrics.render_prometheus`.
    convergence:
        Solver-convergence summary over every *computed* dual-primal
        result: ``requests`` (results carrying per-round history),
        ``rounds`` (exact histogram: sampling rounds -> solve count),
        ``mean_rounds``, and nearest-rank ``gap_p50``/``gap_p95`` over
        the recent window of final certified gaps
        (``1 - primal/upper_bound`` at termination).  Empty dict until
        the first such result; backends without history (baselines)
        do not contribute.
    """

    submitted: int
    completed: int
    failed: int
    cache_hits: int
    coalesced: int
    computed: int
    batches: int
    latency_p50_ms: float | None
    latency_p95_ms: float | None
    batch_occupancy: dict[int, int]
    mean_occupancy: float | None
    cache_hit_rate: float
    backend_requests: dict[str, int]
    ledger_totals: dict[str, dict[str, int]]
    handler_errors: int = 0
    latency_histogram: dict = field(default_factory=dict)
    convergence: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        """Flat dict for tables/logging (histograms included verbatim)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "computed": self.computed,
            "batches": self.batches,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "mean_occupancy": self.mean_occupancy,
            "cache_hit_rate": self.cache_hit_rate,
            "batch_occupancy": dict(self.batch_occupancy),
            "handler_errors": self.handler_errors,
            "convergence": dict(self.convergence),
        }


class StatsRecorder:
    """Thread-safe mutable collector behind :class:`ServiceStats`.

    Latencies are kept in a bounded window (deque) so a long-lived
    service reports *recent* percentiles at O(window) memory instead of
    unbounded history.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._latencies_ms: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._latency_hist = LatencyHistogram()
        self._occupancy = CountHistogram()
        self._rounds = CountHistogram()
        self._gaps: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._convergence_requests = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._cache_hits = 0
        self._coalesced = 0
        self._computed = 0
        self._batches = 0
        self._handler_errors = 0
        self._backend_requests: dict[str, int] = {}
        self._ledger_totals: dict[str, dict[str, int]] = {}

    def _observe_latency(self, latency_s: float) -> None:
        """Fold one resolution latency into the window and the histogram.

        Caller holds ``self._lock``; ``LatencyHistogram`` has its own
        lock and never calls back out, so nesting is safe.
        """
        ms = latency_s * 1e3
        self._latencies_ms.append(ms)
        self._latency_hist.observe(ms)

    # -- write side ----------------------------------------------------
    def record_submit(self) -> None:
        with self._lock:
            self._submitted += 1

    def record_cache_hit(self, latency_s: float = 0.0) -> None:
        with self._lock:
            self._cache_hits += 1
            self._completed += 1
            self._observe_latency(latency_s)

    def record_coalesced(self) -> None:
        """A submission attached to an identical in-flight request."""
        with self._lock:
            self._coalesced += 1

    def record_coalesced_resolution(self, latency_s: float, failed: bool) -> None:
        """The shared future of a coalesced submission resolved."""
        with self._lock:
            if failed:
                self._failed += 1
            else:
                self._completed += 1
            self._observe_latency(latency_s)

    def record_batch(self, size: int) -> None:
        with self._lock:
            self._batches += 1
            self._occupancy.observe(size)

    def record_handler_error(self) -> None:
        """The dispatch handler raised (worker-pool backstop engaged)."""
        with self._lock:
            self._handler_errors += 1

    def record_completion(
        self,
        backend: str,
        latency_s: float,
        ledger: RunLedger | None,
        convergence: dict | None = None,
    ) -> None:
        """One computed request resolved successfully.

        ``convergence`` is the optional
        :meth:`~repro.api.RunResult.convergence` summary of the result
        (``None`` for backends without per-round history); it feeds the
        rounds histogram and the final-gap window of the snapshot's
        ``convergence`` block.
        """
        with self._lock:
            self._completed += 1
            self._computed += 1
            self._observe_latency(latency_s)
            if convergence is not None:
                self._convergence_requests += 1
                rounds = convergence.get("rounds")
                if rounds is not None:
                    self._rounds.observe(int(rounds))
                gap = convergence.get("final_gap")
                if gap is not None:
                    self._gaps.append(float(gap))
            self._backend_requests[backend] = (
                self._backend_requests.get(backend, 0) + 1
            )
            if ledger is not None:
                totals = self._ledger_totals.setdefault(backend, {})
                for name in _SUM_FIELDS:
                    value = getattr(ledger, name)
                    if value is not None:
                        totals[name] = totals.get(name, 0) + int(value)
                for name in _MAX_FIELDS:
                    value = getattr(ledger, name)
                    if value is not None:
                        totals[name] = max(totals.get(name, 0), int(value))

    def record_failure(
        self, backend: str, latency_s: float, computed: bool = True
    ) -> None:
        """A request resolved with an error.  ``computed=False`` marks
        work abandoned before dispatch (drained at close), which counts
        as failed but not as executed."""
        with self._lock:
            self._failed += 1
            if computed:
                self._computed += 1
                self._backend_requests[backend] = (
                    self._backend_requests.get(backend, 0) + 1
                )
            self._observe_latency(latency_s)

    # -- read side -------------------------------------------------------
    def snapshot(self) -> ServiceStats:
        with self._lock:
            latencies = list(self._latencies_ms)
            submitted = self._submitted
            deduplicated = self._cache_hits + self._coalesced
            convergence: dict = {}
            if self._convergence_requests:
                gaps = list(self._gaps)
                convergence = {
                    "requests": self._convergence_requests,
                    "rounds": self._rounds.as_dict(),
                    "mean_rounds": self._rounds.mean(),
                    "gap_p50": percentile(gaps, 50.0),
                    "gap_p95": percentile(gaps, 95.0),
                }
            return ServiceStats(
                submitted=submitted,
                completed=self._completed,
                failed=self._failed,
                cache_hits=self._cache_hits,
                coalesced=self._coalesced,
                computed=self._computed,
                batches=self._batches,
                latency_p50_ms=percentile(latencies, 50.0),
                latency_p95_ms=percentile(latencies, 95.0),
                batch_occupancy=self._occupancy.as_dict(),
                mean_occupancy=self._occupancy.mean(),
                cache_hit_rate=deduplicated / submitted if submitted else 0.0,
                backend_requests=dict(self._backend_requests),
                ledger_totals={
                    k: dict(v) for k, v in self._ledger_totals.items()
                },
                handler_errors=self._handler_errors,
                latency_histogram=self._latency_hist.snapshot(),
                convergence=convergence,
            )
