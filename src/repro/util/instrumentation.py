"""Resource accounting: rounds, space and adaptivity ledgers.

The paper's guarantees are stated in *model* resources -- adaptive
sketching rounds, central memory in stored edges/words, per-vertex message
sizes -- not wall-clock time.  :class:`ResourceLedger` is the single
object every resource-constrained component writes into, so experiments
E2/E3/E9 read their numbers from one audited place.

Two kinds of adaptivity are tracked separately, mirroring Figure 1 of the
paper:

* ``sampling_rounds`` -- rounds that require *fresh access to the input*
  (a new sketch/sample of the edge stream).  Theorem 15 bounds these by
  ``O(p / eps)``.
* ``refinement_steps`` -- sequential uses of already-collected samples
  (deferred-sparsifier refinements, MicroOracle invocations).  These may
  be ``O(eps^-2 log n)`` without touching the input again.
"""

from __future__ import annotations

import contextlib
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "ResourceLedger",
    "SpaceHighWater",
    "CountHistogram",
    "CounterSet",
    "LatencyHistogram",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "percentile",
    "current_rss_bytes",
    "peak_rss_bytes",
]


def current_rss_bytes() -> int | None:
    """Resident-set size of this process right now, in bytes.

    Read from ``/proc/self/statm`` (Linux); ``None`` where that is
    unavailable.  The ledger's ``central_space`` tracks the *model*
    words an algorithm admits to; this is the physical counterpart the
    out-of-core benches report next to it.
    """
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        import os

        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_bytes() -> int | None:
    """High-water resident-set size of this process, in bytes.

    On Linux this reads ``VmHWM`` from ``/proc/self/status``: unlike
    ``getrusage``'s ``ru_maxrss``, it is reset by ``execve``, so a
    fresh subprocess reports *its own* peak even when forked from a
    large parent (``ru_maxrss`` survives exec and would report the
    parent's high water instead).  Falls back to ``ru_maxrss`` (KiB on
    Linux, bytes on macOS), ``None`` where unsupported.  Still a
    whole-process high-water mark, so out-of-core memory claims must
    be measured in a fresh subprocess per scenario -- see
    ``benchmarks/bench_s7_outofcore.py``.
    """
    # no /proc (non-Linux) or an unexpected VmHWM line: use ru_maxrss
    with contextlib.suppress(OSError, IndexError, ValueError):
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    try:
        import resource
        import sys

        raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(raw) if sys.platform == "darwin" else int(raw) * 1024
    except (ImportError, OSError, ValueError):
        return None


def percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank percentile of ``values`` (``None`` when empty).

    Nearest-rank (rather than interpolated) so the reported latency is
    always one that an actual request experienced -- the convention the
    :mod:`repro.service` stats surface uses for p50/p95.
    """
    if not values:
        return None
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile q must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class CountHistogram:
    """Exact integer-valued histogram (value -> occurrence count).

    Small-domain counting (batch occupancies, shard sizes): values are
    kept exact rather than bucketed, since the domain is bounded by the
    configured maximum batch size.
    """

    counts: dict[int, int] = field(default_factory=dict)

    def observe(self, value: int, k: int = 1) -> None:
        value = int(value)
        self.counts[value] = self.counts.get(value, 0) + int(k)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def mean(self) -> float | None:
        total = self.total
        if total == 0:
            return None
        return sum(v * c for v, c in self.counts.items()) / total

    def as_dict(self) -> dict[int, int]:
        return dict(sorted(self.counts.items()))


#: Default latency bucket upper bounds, in milliseconds.  Roughly
#: logarithmic 1-2.5-5 spacing from 1 ms to 10 s -- wide enough that
#: both a cache hit (<1 ms) and a saturated-queue solve (seconds) land
#: in an informative bucket.  Values above the last bound live in the
#: implicit overflow (``+Inf``) bucket.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class LatencyHistogram:
    """Thread-safe fixed-bucket histogram of latency observations (ms).

    The Prometheus-histogram counterpart of :class:`CountHistogram`:
    where the exact integer histogram suits small bounded domains
    (batch sizes), latencies are continuous and unbounded, so they are
    folded into a fixed set of bucket upper bounds plus an overflow
    bucket.  ``observe`` is O(log buckets) (bisect) under one lock;
    :meth:`snapshot` returns the *cumulative* per-bucket counts, the
    observation count and the sum -- exactly the samples a Prometheus
    ``histogram`` family needs (``_bucket{le=...}``/``_count``/
    ``_sum``; see :func:`repro.server.metrics.render_prometheus`).

    >>> h = LatencyHistogram(bounds_ms=(1.0, 10.0, 100.0))
    >>> for value in (0.5, 3.0, 250.0):
    ...     h.observe(value)
    >>> snap = h.snapshot()
    >>> snap["count"], [c for _, c in snap["buckets"]]
    (3, [1, 2, 2])
    >>> round(snap["sum"], 1)
    253.5
    """

    __slots__ = ("_bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self, bounds_ms: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS
    ):
        import threading

        bounds = tuple(float(b) for b in bounds_ms)
        if not bounds:
            raise ValueError("at least one bucket bound is required")
        if any(b <= 0 for b in bounds) or any(
            a >= b for a, b in zip(bounds, bounds[1:])
        ):
            raise ValueError("bucket bounds must be positive and increasing")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = overflow (+Inf)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    @property
    def bounds_ms(self) -> tuple[float, ...]:
        return self._bounds

    def observe(self, value_ms: float) -> None:
        value = float(value_ms)
        idx = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def mean(self) -> float | None:
        with self._lock:
            if self._count == 0:
                return None
            return self._sum / self._count

    def snapshot(self) -> dict:
        """Cumulative-bucket snapshot.

        ``{"buckets": [(le_ms, cumulative_count), ...], "count": n,
        "sum": total_ms}`` -- ``count`` includes the overflow bucket,
        so it is the implied ``+Inf`` cumulative value.
        """
        with self._lock:
            counts = list(self._counts)
            total = self._count
            total_sum = self._sum
        buckets: list[tuple[float, int]] = []
        acc = 0
        for le, c in zip(self._bounds, counts):
            acc += c
            buckets.append((le, acc))
        return {"buckets": buckets, "count": total, "sum": total_sum}

    def summary(self) -> dict:
        """Small JSON row for ``stats`` surfaces (count/mean, no buckets)."""
        with self._lock:
            count = self._count
            total_sum = self._sum
        mean = total_sum / count if count else None
        return {"count": count, "sum_ms": total_sum, "mean_ms": mean}


class CounterSet:
    """Thread-safe monotonic counters keyed by ``(name, label...)``.

    The serving layer's operational counters (requests per op, sheds
    per reason, bytes per direction) are all "count events, grouped by
    a small label" -- this is that, with a lock, so writers on the
    event loop and readers on a metrics scrape never tear.  Keys are
    a bare name (``"admitted"``) or a ``(name, label)`` tuple
    (``("shed", "queue_full")``).
    """

    def __init__(self) -> None:
        import threading

        self._lock = threading.Lock()
        self._counts: dict[tuple, int] = {}

    @staticmethod
    def _key(name) -> tuple:
        return name if isinstance(name, tuple) else (name,)

    def inc(self, name, k: int = 1) -> None:
        key = self._key(name)
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + int(k)

    def get(self, name) -> int:
        with self._lock:
            return self._counts.get(self._key(name), 0)

    def labelled(self, name: str) -> dict[str, int]:
        """All ``(name, label)`` counts as ``label -> count``."""
        with self._lock:
            return {
                key[1]: v
                for key, v in self._counts.items()
                if len(key) == 2 and key[0] == name
            }

    def as_dict(self) -> dict:
        """Flat snapshot: ``"name"`` or ``"name:label"`` -> count."""
        with self._lock:
            return {
                ":".join(str(part) for part in key): v
                for key, v in sorted(self._counts.items())
            }


@dataclass
class SpaceHighWater:
    """Tracks current and peak usage of one space category (in 'words')."""

    current: int = 0
    peak: int = 0

    def add(self, amount: int) -> None:
        self.current += int(amount)
        if self.current > self.peak:
            self.peak = self.current

    def release(self, amount: int) -> None:
        self.current -= int(amount)
        if self.current < 0:
            self.current = 0


@dataclass
class ResourceLedger:
    """Audited counters for all resource-constrained computation.

    Attributes
    ----------
    sampling_rounds:
        Adaptive rounds that re-access the input (MapReduce rounds /
        streaming passes).  The headline O(p/eps) quantity.
    refinement_steps:
        Sequential post-processing steps over stored samples only.
    oracle_calls:
        MicroOracle invocations (tau_i ledger of Theorem 4).
    central_space:
        High-water mark of centrally stored words (edges count as one
        word each, sketch counters one word each).
    shuffle_words:
        Total words moved through MapReduce shuffles.
    edges_streamed:
        Total edge reads from the input (for per-pass cost accounting).
    """

    sampling_rounds: int = 0
    refinement_steps: int = 0
    oracle_calls: int = 0
    central_space: SpaceHighWater = field(default_factory=SpaceHighWater)
    shuffle_words: int = 0
    edges_streamed: int = 0
    notes: list[str] = field(default_factory=list)

    def tick_sampling_round(self, note: str | None = None) -> None:
        self.sampling_rounds += 1
        if note:
            self.notes.append(f"round {self.sampling_rounds}: {note}")

    def tick_refinement(self, k: int = 1) -> None:
        self.refinement_steps += int(k)

    def tick_oracle(self, k: int = 1) -> None:
        self.oracle_calls += int(k)

    def charge_space(self, words: int) -> None:
        self.central_space.add(words)

    def release_space(self, words: int) -> None:
        self.central_space.release(words)

    def charge_shuffle(self, words: int) -> None:
        self.shuffle_words += int(words)

    def charge_stream(self, edges: int) -> None:
        self.edges_streamed += int(edges)

    def snapshot(self) -> dict:
        """Plain-dict summary for experiment tables."""
        return {
            "sampling_rounds": self.sampling_rounds,
            "refinement_steps": self.refinement_steps,
            "oracle_calls": self.oracle_calls,
            "peak_central_space": self.central_space.peak,
            "shuffle_words": self.shuffle_words,
            "edges_streamed": self.edges_streamed,
        }
