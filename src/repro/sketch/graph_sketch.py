"""AGM graph sketches: linear sketches of signed vertex-edge incidence.

Footnote 1 of the paper: *"Linear sketches are inner products of the input
with suitable pseudorandom matrices, in this case the input is an oriented
vertex-edge adjacency matrix.  The sketch is computed first, and
subsequently an adversary provides a cut.  We then sample an edge across
that cut (if one exists...) with high probability."*

Construction (Ahn-Guha-McGregor [3, 4]):

* Fix the canonical edge universe ``{(i, j) : i < j}`` with the index
  ``e(i, j) = i*n + j``.
* Vertex ``v``'s *incidence vector* ``a_v`` has ``a_v[e(i,j)] = +1`` if
  ``v == i`` and ``-1`` if ``v == j`` for each incident edge.
* For any vertex set ``S``, ``sum_{v in S} a_v`` is supported exactly on
  the edges *crossing* the cut ``(S, V-S)`` -- internal edges cancel.
* Therefore an ℓ0 sample from the merged (summed) sketches of ``S``
  yields a uniformly random cut edge: the primitive used for sketch-based
  connectivity, spanning forests, and the one-round MapReduce jobs of
  Section 4.2.

:class:`VertexIncidenceSketch` bundles one ℓ0-sampler bank per vertex.
All ``n * t`` banks live in a single
:class:`~repro.sketch.tensor.SketchTensor` (one slot per vertex): the
whole edge list is ingested with a few vectorized scatters, and merging
a component is an axis-sum over its slot rows -- no per-vertex Python
objects, no deep copies.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.tensor import (
    MergedSketchView,
    SketchTensor,
    decode_planes_many,
)
from repro.util.graph import Graph
from repro.util.rng import make_rng, spawn

__all__ = [
    "VertexIncidenceSketch",
    "check_edge_endpoints",
    "decode_edge",
    "encode_edge",
    "incidence_update_batch",
]


def check_edge_endpoints(u: np.ndarray | int, v: np.ndarray | int, n: int) -> None:
    """Reject edges a sketch over ``n`` vertices cannot hold.

    An endpoint outside ``[0, n)`` would alias another edge's coordinate
    (:func:`encode_edge` is only collision-free inside that range) and a
    self-loop is not an edge; either would corrupt the sketch silently,
    so both raise ``ValueError``.  Every edge-keyed sketch calls this
    before touching a cell.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.int64))
    v = np.atleast_1d(np.asarray(v, dtype=np.int64))
    if len(u) == 0:
        return
    if np.any(u == v):
        raise ValueError("self-loops cannot be sketched")
    if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
        raise ValueError(f"edge endpoint out of range [0, {n})")


def encode_edge(i: np.ndarray | int, j: np.ndarray | int, n: int):
    """Canonical edge index ``min*n + max`` in the universe ``[0, n^2)``."""
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    return lo * np.int64(n) + hi


def decode_edge(e: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`encode_edge`."""
    return int(e) // n, int(e) % n


def incidence_update_batch(
    u: np.ndarray,
    v: np.ndarray,
    n: int,
    deltas: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch ``(slots, indices, deltas)`` for signed-incidence ingestion.

    The one place that encodes the AGM sign convention: edge ``{u, v}``
    (optionally with multiplicity ``delta``) contributes ``+delta`` to
    the *lower* endpoint's incidence slot and ``-delta`` to the higher
    one, on the canonical edge coordinate.  Feed the result straight to
    :meth:`SketchTensor.update_many`; every ingest site (incidence
    sketch, congested clique, dynamic streams) must share this helper so
    merges between their sketches stay sign-consistent.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    d = (
        np.ones(len(u), dtype=np.int64)
        if deltas is None
        else np.asarray(deltas, dtype=np.int64)
    )
    codes = encode_edge(u, v, n).astype(np.int64)
    sign = np.where(u < v, 1, -1).astype(np.int64)
    return (
        np.concatenate([u, v]),
        np.concatenate([codes, codes]),
        np.concatenate([sign * d, -sign * d]),
    )


class VertexIncidenceSketch:
    """One ℓ0-sampler row bank per vertex over the signed incidence vector.

    Parameters
    ----------
    graph:
        The input graph whose edges are sketched.  Construction is a
        *single pass* over the edge list -- each edge touches only the
        sketches of its two endpoints, matching the 1st-round mapper of
        Section 4.2.
    t:
        Independent sampler rows per vertex (``O(log n)`` suffices for a
        spanning forest; the paper samples each vertex's neighborhood
        ``n^{1/p}`` times for the oversampled sparsifier).
    seed:
        Shared randomness: *all vertices* must use identical hash seeds
        row-by-row so that merged sketches remain valid ℓ0 sketches of
        the summed vector.
    """

    def __init__(
        self,
        graph: Graph,
        t: int = 1,
        seed: int | np.random.Generator | None = None,
        repetitions: int = 8,
    ):
        rng = make_rng(seed)
        self.n = graph.n
        self.t = int(t)
        # one seed per row, shared by every vertex (linearity requirement)
        row_seeds = [int(r.integers(0, 2**62)) for r in spawn(rng, t)]
        self._tensor = SketchTensor(
            graph.n * graph.n, row_seeds, repetitions=repetitions, slots=graph.n
        )
        if graph.m:
            # whole edge list at once: +1 into src's slot, -1 into dst's
            self._tensor.update_many(
                *incidence_update_batch(graph.src, graph.dst, self.n)
            )

    @classmethod
    def empty(
        cls,
        n: int,
        t: int = 1,
        seed: int | np.random.Generator | None = None,
        repetitions: int = 8,
    ) -> "VertexIncidenceSketch":
        """Edge-free sketch over ``n`` vertices, ready for incremental
        :meth:`update_edges` ingestion (the dynamic-stream entry point).

        Seeding is identical to building from a graph: a sketch grown by
        incremental inserts/deletes holds exactly the cell values of one
        built in a single pass over the surviving edge set (linearity).
        """
        return cls(Graph.empty(n), t=t, seed=seed, repetitions=repetitions)

    # ------------------------------------------------------------------
    def update_edges(
        self,
        u: np.ndarray,
        v: np.ndarray,
        deltas: np.ndarray | None = None,
    ) -> None:
        """Apply signed edge-multiset updates (``+1`` insert, ``-1`` delete).

        Every update touches only the two endpoint slots -- the same
        vectorized scatter construction uses -- so an insert/delete pair
        with matching endpoints cancels to exact zeros in every cell.
        """
        check_edge_endpoints(u, v, self.n)
        self._tensor.update_many(*incidence_update_batch(u, v, self.n, deltas))

    def insert_edges(self, u: np.ndarray, v: np.ndarray) -> None:
        """Insert edges ``{u[i], v[i]}`` (unit frequency each)."""
        self.update_edges(u, v, None)

    def delete_edges(self, u: np.ndarray, v: np.ndarray) -> None:
        """Delete edges ``{u[i], v[i]}`` (vectorized negative updates)."""
        u = np.asarray(u, dtype=np.int64)
        self.update_edges(u, v, np.full(len(u), -1, dtype=np.int64))

    # ------------------------------------------------------------------
    def merged_sketch(self, component: np.ndarray, row: int):
        """Sum the row-``row`` sketches of every vertex in ``component``.

        The result is an ℓ0 sketch of the cut-edge indicator vector of
        the component; sampling from it returns an edge leaving the
        component or ``None`` if the component is saturated/disconnected.
        This is an axis-sum over the component's slot rows returning a
        lightweight :class:`~repro.sketch.tensor.MergedSketchView`.
        """
        component = np.atleast_1d(np.asarray(component, dtype=np.int64))
        s0, s1, fp = self._tensor.merged_planes(component, row)
        return MergedSketchView(
            s0=s0,
            s1=s1,
            fp=fp,
            z=self._tensor.z[row],
            universe=self._tensor.universe,
        )

    def sample_cut_edge(self, component: np.ndarray, row: int) -> tuple[int, int] | None:
        """Sample one edge crossing ``(component, rest)`` via sketch merge."""
        got = self.merged_sketch(component, row).sample()
        if got is None:
            return None
        e, _val = got
        return decode_edge(e, self.n)

    def sample_cut_edges(self, labels: np.ndarray, row: int) -> dict:
        """Sample one cut edge for *every* part of a vertex partition.

        ``labels[v]`` names vertex ``v``'s part (arbitrary integers).
        Returns ``{label: (i, j) | None}``.  All parts are merged with one
        grouped scatter and decoded together.
        """
        labels = np.asarray(labels, dtype=np.int64)
        parts, inv = np.unique(labels, return_inverse=True)
        s0, s1, fp = self._tensor.grouped_planes(inv, len(parts), row)
        decoded = decode_planes_many(
            s0, s1, fp, self._tensor.z[row], self._tensor.universe
        )
        out = {}
        for part, got in zip(parts.tolist(), decoded):
            out[part] = None if got is None else decode_edge(got[0], self.n)
        return out

    def space_words(self) -> int:
        return self._tensor.space_words()
