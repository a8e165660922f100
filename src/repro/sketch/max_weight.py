"""Definition 2: find the maximum-weight edge via ℓ0 sampling.

*"Using O(p) rounds and n^{1+1/p} space we can easily find an edge with
the maximum weight W* (using ℓ0 sampling, which can be implemented
using sketches)."*

Construction: partition edges into geometric weight classes
``[2^t, 2^{t+1})`` and keep one ℓ0 sketch per class, all built in a
single pass / sketching round.  The top nonempty class contains an edge
within a factor 2 of ``W*``; sampling that class returns a concrete
witness edge.  A second (optional) exact pass over the returned class
pins ``W*`` exactly -- two data accesses total, comfortably inside the
O(p) budget.

Linear and deletion-safe: classes are keyed by the weight *announced in
the update*, so an insert/delete pair with equal weight cancels inside
its class sketch.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.graph_sketch import check_edge_endpoints, decode_edge, encode_edge
from repro.sketch.l0_sampler import L0Sampler
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger
from repro.util.rng import make_rng, spawn

__all__ = ["MaxWeightEdgeSketch", "find_max_weight_edge"]


class MaxWeightEdgeSketch:
    """Per-weight-class ℓ0 sketches over the edge universe.

    Parameters
    ----------
    n:
        Vertex count (edge universe is ``n^2``).
    w_min, w_max:
        The dynamic range the structure must cover; classes are
        ``floor(log2 w)`` for ``w`` in ``[w_min, w_max]``.
    """

    def __init__(
        self,
        n: int,
        w_min: float = 1.0,
        w_max: float = 2.0**40,
        seed: int | np.random.Generator | None = None,
        repetitions: int = 8,
    ):
        if not (0 < w_min <= w_max):
            raise ValueError("need 0 < w_min <= w_max")
        rng = make_rng(seed)
        self.n = int(n)
        self.class_lo = int(np.floor(np.log2(w_min)))
        self.class_hi = int(np.floor(np.log2(w_max)))
        k = self.class_hi - self.class_lo + 1
        children = spawn(rng, k)
        self._sketches = [
            L0Sampler(self.n * self.n, seed=children[t], repetitions=repetitions)
            for t in range(k)
        ]

    def _class_of(self, w: float) -> int:
        t = int(np.floor(np.log2(w)))
        if not (self.class_lo <= t <= self.class_hi):
            raise ValueError(f"weight {w} outside the declared range")
        return t - self.class_lo

    def update(self, u: int, v: int, w: float, delta: int = 1) -> None:
        """Insert (``delta=+1``) or delete (``-1``) edge ``(u, v, w)``.

        An endpoint outside ``[0, n)`` or a self-loop raises ``ValueError``
        (as in :meth:`update_many`).
        """
        check_edge_endpoints(u, v, self.n)
        e = int(encode_edge(u, v, self.n))
        self._sketches[self._class_of(w)].update(e, delta)

    def update_many(
        self,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        deltas: np.ndarray | None = None,
    ) -> None:
        """Vectorized signed updates: insert (``+1``) / delete (``-1``) edges.

        Classes are keyed by the *announced* weight, so a delete must
        announce the same weight as its matching insert for the pair to
        cancel inside the class sketch (the turnstile contract stated in
        the module docstring).
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if len(u) == 0:
            return
        check_edge_endpoints(u, v, self.n)
        d = (
            np.ones(len(u), dtype=np.int64)
            if deltas is None
            else np.asarray(deltas, dtype=np.int64)
        )
        codes = encode_edge(u, v, self.n).astype(np.int64)
        classes = np.floor(np.log2(w)).astype(np.int64) - self.class_lo
        if np.any((classes < 0) | (classes >= len(self._sketches))):
            raise ValueError("edge weight outside the declared range")
        for t in np.unique(classes):
            mask = classes == t
            self._sketches[int(t)].update_many(codes[mask], d[mask])

    def delete_many(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
        """Vectorized turnstile deletion (unit negative frequency each)."""
        u = np.asarray(u, dtype=np.int64)
        self.update_many(u, v, w, np.full(len(u), -1, dtype=np.int64))

    def ingest(self, graph: Graph) -> None:
        """One pass over a graph's edges."""
        self.update_many(graph.src, graph.dst, graph.weight)

    def merge(self, other: "MaxWeightEdgeSketch") -> None:
        """Linearity: merge another structure with identical seeds."""
        if (
            self.n != other.n
            or self.class_lo != other.class_lo
            or self.class_hi != other.class_hi
        ):
            raise ValueError("incompatible sketches")
        for a, b in zip(self._sketches, other._sketches):
            a.merge(b)

    def top_class(self) -> tuple[int, tuple[int, int] | None] | None:
        """``(class_exponent, witness)`` for the heaviest nonempty class.

        A class whose counters are nonzero provably contains an edge
        (insert-only streams; with deletions, up to the fingerprint
        failure probability), so the *class exponent* is reliable even
        when the ℓ0 decode fails across all repetitions -- in that case
        the witness is ``None`` but the exponent still pins ``W*``
        within a factor 2.  ``None`` if every class is empty.
        """
        for t in range(len(self._sketches) - 1, -1, -1):
            sk = self._sketches[t]
            if sk.is_zero():
                continue
            got = sk.sample()
            witness = decode_edge(got[0], self.n) if got is not None else None
            return t + self.class_lo, witness
        return None

    def top_edge(self) -> tuple[int, int, int] | None:
        """``(u, v, class_exponent)`` from the heaviest decodable class.

        The returned edge's weight lies in ``[2^t, 2^{t+1})``.  ``None``
        if every class is (or appears) empty.  Note the subtlety
        :meth:`top_class` exists for: when the heaviest nonempty class
        fails to decode, this method falls through to a lighter class
        and the factor-2 guarantee is lost -- callers that only need
        the exponent should use :meth:`top_class`.
        """
        for t in range(len(self._sketches) - 1, -1, -1):
            sk = self._sketches[t]
            if sk.is_zero():
                continue
            got = sk.sample()
            if got is not None:
                u, v = decode_edge(got[0], self.n)
                return u, v, t + self.class_lo
        return None

    def space_words(self) -> int:
        return sum(s.space_words() for s in self._sketches)


def find_max_weight_edge(
    graph: Graph,
    seed: int | np.random.Generator | None = None,
    ledger: ResourceLedger | None = None,
    exact_second_pass: bool = True,
) -> tuple[int, float]:
    """Definition 2 end-to-end: ``(edge_id, W*)`` via sketching.

    Round 1 builds the class sketches; the heaviest nonempty class gives
    a factor-2 estimate.  Round 2 (optional, ``exact_second_pass``)
    scans only that class's edges to return the exact maximum -- still a
    constant number of data accesses.
    """
    if graph.m == 0:
        raise ValueError("graph has no edges")
    w_min = float(graph.weight.min())
    w_max = float(graph.weight.max())
    sk = MaxWeightEdgeSketch(graph.n, w_min=w_min, w_max=w_max, seed=seed)
    sk.ingest(graph)
    if ledger is not None:
        ledger.tick_sampling_round("max-weight-edge class sketches")
        ledger.charge_space(sk.space_words())
    top = sk.top_class()
    if top is None:
        # all class sketches failed (improbable); fall back to a scan,
        # charging the extra pass honestly
        if ledger is not None:
            ledger.tick_sampling_round("max-weight-edge fallback scan")
        e = int(np.argmax(graph.weight))
        return e, float(graph.weight[e])
    t, witness = top
    if not exact_second_pass:
        # return the sampled witness edge itself; if the class counters
        # were nonzero but every repetition failed to decode, fall back
        # to any edge of the class (same factor-2 guarantee)
        if witness is not None:
            wu, wv = witness
            e = int(np.flatnonzero((graph.src == wu) & (graph.dst == wv))[0])
        else:
            mask = np.floor(np.log2(graph.weight)).astype(np.int64) == t
            e = int(np.flatnonzero(mask)[0])
        return e, float(2.0**t)
    if ledger is not None:
        ledger.tick_sampling_round("max-weight-edge exact class scan")
    in_class = np.floor(np.log2(graph.weight)).astype(np.int64) == t
    ids = np.flatnonzero(in_class)
    e = int(ids[np.argmax(graph.weight[ids])])
    return e, float(graph.weight[e])
