"""Incrementally maintained state of a dynamic turnstile graph.

Two cooperating halves:

* :class:`TurnstileGraphState` -- the exact strict-turnstile edge map.
  O(1) per update, materializes the surviving graph in canonical edge
  order on demand (cached between mutations), and counts *edits* so a
  session can measure the distance since its last solve.
* :class:`DynamicSketchState` -- the linear-sketch battery the paper's
  model actually allows: the signed vertex-incidence ℓ0 sketches (one
  :class:`~repro.sketch.tensor.SketchTensor` slot per vertex), the
  geometric weight-class ℓ0 sketches of Definition 2
  (:class:`~repro.sketch.max_weight.MaxWeightEdgeSketch`), and a bank
  of plain edge-support ℓ0 samplers.  Every update is a vectorized
  ±1 frequency update; by linearity the cell state after any
  insert/delete interleaving equals the cell state of a one-shot build
  over the surviving edge set, which is what makes query-at-any-time
  sound (and lets the parity tests pin the decoded forest bit-identical
  to :func:`~repro.streaming.semi_streaming.dynamic_stream_spanning_forest`).

The exact map is the session's source of truth for solver queries (the
dual-primal solver needs real edge access); the sketches are the
O(n polylog n)-space view that survives the turnstile model and backs
``query_forest`` / support sampling without touching the exact map.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.graph_sketch import encode_edge, incidence_update_batch
from repro.sketch.l0_sampler import L0SamplerBank
from repro.sketch.max_weight import MaxWeightEdgeSketch
from repro.sketch.support_find import boruvka_forest_from_tensor, forest_row_seeds
from repro.sketch.tensor import SketchTensor
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger
from repro.util.rng import make_rng, spawn

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
        """Delete edge ``{u, v}``; returns the weight that was stored
        (the session needs it to cancel the weight-class sketches)."""
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
    """The linear-sketch battery maintained under edge updates.

    Parameters
    ----------
    n:
        Vertex count (edge universe ``n^2``).
    seed:
        Randomness root.  The incidence rows are derived exactly as in
        :func:`~repro.streaming.semi_streaming.dynamic_stream_spanning_forest`
        (same row count, same spawn order), so a session's decoded
        forest is bit-identical to replaying its update log through
        that one-shot pipeline with the same seed.
    repetitions:
        ℓ0 repetitions per incidence row.
    track_weight_classes:
        Maintain the Definition-2 weight-class sketches (requires every
        announced weight inside ``[w_min, w_max]``); switch off for
        unweighted/forest-only sessions with out-of-range weights.
    support_rows:
        Independent edge-support ℓ0 samplers (0 disables the bank).
    """

    def __init__(
        self,
        n: int,
        seed: int | np.random.Generator | None = None,
        repetitions: int = 8,
        track_weight_classes: bool = True,
        w_min: float = 1.0,
        w_max: float = 2.0**40,
        support_rows: int = 4,
    ):
        rng = make_rng(seed)
        self.n = int(n)
        # identical derivation to dynamic_stream_spanning_forest and the
        # out-of-core stream_spanning_forest: the first spawn batch
        # seeds the incidence rows, in order (one shared helper)
        row_seeds = forest_row_seeds(rng, n)
        self.incidence = SketchTensor(
            n * n, row_seeds, repetitions=repetitions, slots=n
        )
        extra = spawn(rng, 2)
        self.max_weight = (
            MaxWeightEdgeSketch(n, w_min=w_min, w_max=w_max, seed=extra[0])
            if track_weight_classes
            else None
        )
        self.support = (
            L0SamplerBank(n * n, t=support_rows, seed=extra[1])
            if support_rows > 0
            else None
        )
        self._w_min = float(w_min)
        self._w_max = float(w_max)
        #: Update events folded in (for space/throughput accounting).
        self.updates_applied = 0
        # pending (buffered) updates: the tensor engine amortizes over
        # bulk batches, so per-event scatters are deferred and flushed
        # at the next sketch *read* -- exact by linearity (cell state is
        # a sum over updates; batching and order cannot change it)
        self._pend_u: list[np.ndarray] = []
        self._pend_v: list[np.ndarray] = []
        self._pend_w: list[np.ndarray] = []
        self._pend_d: list[np.ndarray] = []

    # ------------------------------------------------------------------
    def check_weights(self, w: np.ndarray) -> None:
        """Raise if any weight falls outside the declared class range.

        Called by the session *before* it mutates anything: a deferred
        flush must never be the first place a bad weight surfaces (by
        then the exact state has moved on and the buffered burst cannot
        be unwound).  A no-op when weight classes are untracked.
        """
        if self.max_weight is None:
            return
        w = np.asarray(w, dtype=np.float64)
        if len(w) and (w.min() < self._w_min or w.max() > self._w_max):
            raise ValueError(
                f"edge weight outside the declared class range "
                f"[{self._w_min}, {self._w_max}]; widen w_min/w_max or "
                "disable track_weight_classes"
            )

    def apply_updates(
        self,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        deltas: np.ndarray,
    ) -> None:
        """Buffer a burst of signed edge updates for every sketch.

        ``deltas`` is ±1 per event; a delete must announce the weight
        of its matching insert (the strict-turnstile session guarantees
        this by looking the weight up before deleting).  Updates are
        buffered and folded in at the next read (:meth:`flush`): the
        sketches are linear, so deferred bulk ingestion produces
        bit-identical cell state at a fraction of the scatter cost.
        """
        u = np.asarray(u, dtype=np.int64)
        if len(u) == 0:
            return
        self.check_weights(w)
        self._pend_u.append(u)
        self._pend_v.append(np.asarray(v, dtype=np.int64))
        self._pend_w.append(np.asarray(w, dtype=np.float64))
        self._pend_d.append(np.asarray(deltas, dtype=np.int64))
        self.updates_applied += len(u)

    def flush(self) -> None:
        """Fold every buffered update into the sketch cells, in one
        vectorized batch per sketch family."""
        if not self._pend_u:
            return
        u = np.concatenate(self._pend_u)
        v = np.concatenate(self._pend_v)
        w = np.concatenate(self._pend_w)
        d = np.concatenate(self._pend_d)
        self._pend_u.clear()
        self._pend_v.clear()
        self._pend_w.clear()
        self._pend_d.clear()
        self.incidence.update_many(*incidence_update_batch(u, v, self.n, d))
        if self.max_weight is not None:
            self.max_weight.update_many(u, v, w, d)
        if self.support is not None:
            self.support.update_many(encode_edge(u, v, self.n).astype(np.int64), d)

    # ------------------------------------------------------------------
    def forest(self, ledger: ResourceLedger | None = None) -> list[tuple[int, int]]:
        """Spanning forest of the *current* net graph, decoded from the
        incidence sketch state alone (no edge map access)."""
        self.flush()
        return boruvka_forest_from_tensor(self.incidence, self.n, ledger=ledger)

    def top_weight_class(self):
        """Definition 2: heaviest nonempty weight class (exponent, witness)."""
        if self.max_weight is None:
            raise RuntimeError("weight-class sketches are disabled for this state")
        self.flush()
        return self.max_weight.top_class()

    def sample_edge(self) -> tuple[int, int] | None:
        """One surviving edge sampled from the support bank (or ``None``)."""
        if self.support is None:
            raise RuntimeError("support samplers are disabled for this state")
        self.flush()
        for sampler in self.support.samplers:
            got = sampler.sample()
            if got is not None:
                e = int(got[0])
                return e // self.n, e % self.n
        return None

    def looks_empty(self) -> bool:
        """True iff every incidence measurement is zero (net graph empty)."""
        self.flush()
        return self.incidence.is_zero()

    def space_words(self) -> int:
        words = self.incidence.space_words()
        if self.max_weight is not None:
            words += self.max_weight.space_words()
        if self.support is not None:
            words += self.support.space_words()
        return words
