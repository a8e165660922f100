"""Incrementally maintained state of a dynamic turnstile graph.

Two cooperating halves:

* :class:`TurnstileGraphState` -- the exact strict-turnstile edge map.
  O(1) per update, materializes the surviving graph in canonical edge
  order on demand (cached between mutations), and counts *edits* so a
  session can measure the distance since its last solve.
* :class:`DynamicSketchState` -- the signed vertex-incidence ℓ0
  sketches (one :class:`~repro.sketch.tensor.SketchTensor` slot per
  vertex) that ``query_forest`` decodes.  Every update is a vectorized
  ±1 frequency update; by linearity the cell state after any
  insert/delete interleaving equals the cell state of a one-shot build
  over the surviving edge set, which is what makes query-at-any-time
  sound (and lets the parity tests pin the decoded forest bit-identical
  to :func:`~repro.streaming.semi_streaming.dynamic_stream_spanning_forest`).

The exact map is the session's source of truth for solver queries (the
dual-primal solver needs real edge access); the sketch is the
O(n polylog n)-space view that survives the turnstile model and backs
``query_forest`` without touching the exact map.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.graph_sketch import incidence_update_batch
from repro.sketch.support_find import boruvka_forest_from_tensor, forest_row_seeds
from repro.sketch.tensor import SketchTensor
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger
from repro.util.rng import make_rng

__all__ = ["TurnstileGraphState", "DynamicSketchState"]


class TurnstileGraphState:
    """Exact edge map of a strict-turnstile dynamic graph.

    Strictness (enforced): inserting a present edge or deleting an
    absent one raises ``ValueError`` -- the AGM dynamic-stream model
    keeps every edge frequency in ``{0, 1}``, and strictness is also
    what makes the incrementally maintained sketches cell-identical to
    a fresh build over the surviving edges (a frequency-2 edge would
    differ).  Weight changes are expressed as delete + insert.
    """

    def __init__(self, n: int, base_graph: Graph | None = None):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = int(n)
        self._edges: dict[tuple[int, int], float] = {}
        self._b: np.ndarray | None = None
        #: Monotone edit counter: +1 per applied insert or delete.
        self.version = 0
        self._graph: Graph | None = None
        if base_graph is not None:
            if base_graph.n != self.n:
                raise ValueError("base graph vertex count mismatch")
            self._b = base_graph.b.copy()
            for u, v, w in base_graph.edges():
                self._edges[(int(u), int(v))] = float(w)

    # ------------------------------------------------------------------
    def _key(self, u: int, v: int) -> tuple[int, int]:
        u, v = int(u), int(v)
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"endpoint out of range: ({u}, {v})")
        if u == v:
            raise ValueError("self-loops are not allowed")
        return (u, v) if u < v else (v, u)

    @property
    def m(self) -> int:
        """Number of surviving edges."""
        return len(self._edges)

    def validate_insert(self, u: int, v: int, w: float) -> tuple[int, int]:
        """Strictness/shape checks for an insert *without mutating*.

        Returns the canonical key.  Bulk operations pre-validate whole
        bursts with this so a failing event cannot leave a mutated
        prefix behind (updates must be atomic per call).
        """
        key = self._key(u, v)
        if key in self._edges:
            raise ValueError(
                f"edge {key} is already present; the strict turnstile model "
                "expresses weight changes as delete + insert"
            )
        if not (w > 0 and np.isfinite(w)):
            raise ValueError("edge weight must be positive and finite")
        return key

    def validate_delete(self, u: int, v: int) -> tuple[int, int]:
        """Strictness check for a delete *without mutating*; returns the
        canonical key."""
        key = self._key(u, v)
        if key not in self._edges:
            raise ValueError(f"edge {key} is not present; cannot delete")
        return key

    def contains(self, u: int, v: int) -> bool:
        return self._key(u, v) in self._edges

    def weight_of(self, u: int, v: int) -> float:
        return self._edges[self._key(u, v)]

    # ------------------------------------------------------------------
    def insert(self, u: int, v: int, w: float = 1.0) -> tuple[int, int]:
        """Insert edge ``{u, v}`` with weight ``w``; returns the canonical
        key.  Raises on a duplicate insert (strict turnstile)."""
        key = self.validate_insert(u, v, w)
        self._edges[key] = float(w)
        self.version += 1
        self._graph = None
        return key

    def delete(self, u: int, v: int) -> float:
        """Delete edge ``{u, v}``; returns the weight that was stored."""
        key = self.validate_delete(u, v)
        w = self._edges.pop(key)
        self.version += 1
        self._graph = None
        return w

    # ------------------------------------------------------------------
    def graph(self) -> Graph:
        """The surviving graph, edges in canonical key order (cached).

        Canonical ordering makes the materialization *the* graph every
        other consumer builds from the same edge set: array-identical
        to ``Graph.from_edges`` over the surviving edges, hence equal
        fingerprints and bit-identical solver runs.
        """
        if self._graph is None:
            if not self._edges:
                self._graph = Graph.empty(
                    self.n, b=None if self._b is None else self._b.copy()
                )
            else:
                keys = sorted(self._edges)
                src = np.asarray([k[0] for k in keys], dtype=np.int64)
                dst = np.asarray([k[1] for k in keys], dtype=np.int64)
                w = np.asarray([self._edges[k] for k in keys], dtype=np.float64)
                self._graph = Graph(
                    n=self.n,
                    src=src,
                    dst=dst,
                    weight=w,
                    b=None if self._b is None else self._b.copy(),
                )
        return self._graph

    def fingerprint(self) -> str:
        """Content address of the surviving graph."""
        return self.graph().fingerprint()


class DynamicSketchState:
    """The vertex-incidence ℓ0 sketch maintained under edge updates.

    Parameters
    ----------
    n:
        Vertex count (edge universe ``n^2``).
    seed:
        Randomness root.  The incidence rows are derived exactly as in
        :func:`~repro.streaming.semi_streaming.dynamic_stream_spanning_forest`
        (same row count, same 8 repetitions per row), so a session's
        decoded forest is bit-identical to replaying its update log
        through that one-shot pipeline with the same seed.
    """

    def __init__(self, n: int, seed: int | np.random.Generator | None = None):
        rng = make_rng(seed)
        self.n = int(n)
        # identical derivation to dynamic_stream_spanning_forest and the
        # out-of-core stream_spanning_forest: the first spawn batch
        # seeds the incidence rows, in order (one shared helper)
        row_seeds = forest_row_seeds(rng, n)
        self.incidence = SketchTensor(n * n, row_seeds, repetitions=8, slots=n)
        #: Update events folded in (for space/throughput accounting).
        self.updates_applied = 0
        # pending (buffered) updates: the tensor engine amortizes over
        # bulk batches, so per-event scatters are deferred and flushed
        # at the next sketch *read* -- exact by linearity (cell state is
        # a sum over updates; batching and order cannot change it)
        self._pend_u: list[np.ndarray] = []
        self._pend_v: list[np.ndarray] = []
        self._pend_d: list[np.ndarray] = []

    # ------------------------------------------------------------------
    def apply_updates(self, u: np.ndarray, v: np.ndarray, deltas: np.ndarray) -> None:
        """Buffer a burst of signed edge updates (``deltas`` is ±1 per
        event).

        Updates are buffered and folded in at the next read
        (:meth:`flush`): the sketch is linear, so deferred bulk
        ingestion produces bit-identical cell state at a fraction of
        the scatter cost.
        """
        u = np.asarray(u, dtype=np.int64)
        if len(u) == 0:
            return
        self._pend_u.append(u)
        self._pend_v.append(np.asarray(v, dtype=np.int64))
        self._pend_d.append(np.asarray(deltas, dtype=np.int64))
        self.updates_applied += len(u)

    def flush(self) -> None:
        """Fold every buffered update into the sketch cells in one
        vectorized batch."""
        if not self._pend_u:
            return
        u = np.concatenate(self._pend_u)
        v = np.concatenate(self._pend_v)
        d = np.concatenate(self._pend_d)
        self._pend_u.clear()
        self._pend_v.clear()
        self._pend_d.clear()
        self.incidence.update_many(*incidence_update_batch(u, v, self.n, d))

    # ------------------------------------------------------------------
    def forest(self, ledger: ResourceLedger | None = None) -> list[tuple[int, int]]:
        """Spanning forest of the *current* net graph, decoded from the
        incidence sketch state alone (no edge map access)."""
        self.flush()
        return boruvka_forest_from_tensor(self.incidence, self.n, ledger=ledger)

    def looks_empty(self) -> bool:
        """True iff every incidence measurement is zero (net graph empty)."""
        self.flush()
        return self.incidence.is_zero()

    def space_words(self) -> int:
        return self.incidence.space_words()
