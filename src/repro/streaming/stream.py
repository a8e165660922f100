"""Edge-stream abstractions for the semi-streaming model.

A *semi-streaming* algorithm reads the edges once (or a constant number
of passes) in adversarial order and keeps ``O(n polylog n)`` state.
:class:`EdgeStream` wraps a graph -- in RAM or a
:class:`~repro.ingest.filegraph.FileBackedGraph` -- as a replayable,
pass-counted stream in storage order; :class:`DynamicEdgeStream`
additionally supports deletions (insert/delete tuples), which is the
setting where *linear* sketches are mandatory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger

__all__ = ["EdgeStream", "DynamicEdgeStream", "StreamEvent"]


@dataclass
class StreamEvent:
    """One dynamic-stream event: edge (u, v, w) with ``delta`` = +1/-1."""

    u: int
    v: int
    w: float
    delta: int


class EdgeStream:
    """Replayable insert-only edge stream over a graph, in storage order.

    Every pass walks :meth:`Graph.edge_ranges
    <repro.util.graph.Graph.edge_ranges>`, so the graph alone decides
    the chunking: 65536 edges per chunk in RAM, the file's
    ``chunk_edges`` for a :class:`~repro.ingest.filegraph.FileBackedGraph`,
    whose chunks are positioned reads that never materialize the
    columns.  Consumers must be chunk-size invariant (pinned by the
    file-backed parity tests).

    ``passes`` counts the passes started; with a ``ledger``, each pass
    also ticks one sampling round and charges ``m`` streamed edges.
    """

    def __init__(self, graph: Graph, ledger: ResourceLedger | None = None):
        self.graph = graph
        self.ledger = ledger
        self.passes = 0

    @property
    def n(self) -> int:
        return self.graph.n

    def __iter__(self) -> Iterator[tuple[int, int, float, int]]:
        """One pass: yields ``(u, v, w, edge_id)``."""
        for cu, cv, cw, ce in self.iter_chunks():
            yield from zip(cu.tolist(), cv.tolist(), cw.tolist(), ce.tolist())

    def iter_chunks(
        self,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """One pass in numpy chunks: yields ``(src, dst, weight, edge_id)``.

        Same pass accounting as ``__iter__`` (one tick per pass, not per
        chunk); consumers with an ``insert_many`` fast path use this to
        amortize per-edge Python overhead while preserving stream order.
        """
        self.passes += 1
        g = self.graph
        if self.ledger is not None:
            self.ledger.tick_sampling_round(f"stream pass {self.passes}")
            self.ledger.charge_stream(g.m)
        for start, stop in g.edge_ranges():
            yield (
                g.src[start:stop],
                g.dst[start:stop],
                g.weight[start:stop],
                np.arange(start, stop, dtype=np.int64),
            )


@dataclass
class DynamicEdgeStream:
    """Insert/delete edge stream (dynamic graph stream of [4]).

    The net graph after replay is whatever survives all deletions; only
    linear-sketch algorithms can process this model in one pass.
    """

    n: int
    events: list[StreamEvent] = field(default_factory=list)

    def insert(self, u: int, v: int, w: float = 1.0) -> None:
        self.events.append(StreamEvent(u, v, w, +1))

    def delete(self, u: int, v: int, w: float = 1.0) -> None:
        self.events.append(StreamEvent(u, v, w, -1))

    def insert_many(
        self,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray | None = None,
    ) -> None:
        """Append a burst of insertions (``w`` defaults to all-ones)."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        ww = np.ones(len(u)) if w is None else np.asarray(w, dtype=np.float64)
        for uu, vv, wv in zip(u.tolist(), v.tolist(), ww.tolist()):
            self.events.append(StreamEvent(uu, vv, wv, +1))

    def delete_many(
        self,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray | None = None,
    ) -> None:
        """Append a burst of deletions (negative-frequency updates)."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        ww = np.ones(len(u)) if w is None else np.asarray(w, dtype=np.float64)
        for uu, vv, wv in zip(u.tolist(), v.tolist(), ww.tolist()):
            self.events.append(StreamEvent(uu, vv, wv, -1))

    def __iter__(self) -> Iterator[StreamEvent]:
        return iter(self.events)

    def net_graph(self) -> Graph:
        """Materialize the surviving edges (for verification only)."""
        counts: dict[tuple[int, int], int] = {}
        weights: dict[tuple[int, int], float] = {}
        for ev in self.events:
            key = (min(ev.u, ev.v), max(ev.u, ev.v))
            counts[key] = counts.get(key, 0) + ev.delta
            weights[key] = ev.w
        live = [(k, weights[k]) for k, c in counts.items() if c > 0]
        if not live:
            return Graph.empty(self.n)
        edges = np.asarray([k for k, _ in live])
        w = np.asarray([wv for _, wv in live])
        return Graph.from_edges(self.n, edges, w)
