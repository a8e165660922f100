"""Core graph substrate: numpy edge-array graphs with CSR adjacency.

The entire library operates on undirected, weighted graphs stored as flat
numpy arrays (structure-of-arrays layout).  This is the HPC-friendly
representation used throughout: edge-parallel operations (sampling,
reweighting, level bucketing) are vectorized over these arrays, and the
CSR adjacency index is built lazily only when vertex-local traversal is
required.

Conventions
-----------
* Vertices are integers ``0..n-1``.
* Each undirected edge ``{i, j}`` is stored once in canonical orientation
  ``src[k] < dst[k]``.
* Parallel edges are not permitted in :class:`Graph` (they are merged on
  construction by summing weights); the odd-set machinery that needs
  parallel-edge *multiplicities* (Lemma 24) carries an explicit
  multiplicity array instead.
* ``b`` is the per-vertex capacity vector of the b-matching instance;
  ordinary matching is ``b = 1``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Graph", "CSRAdjacency", "edge_key", "merge_parallel_edges"]

#: Edges per range of :meth:`Graph.edge_ranges` on an in-RAM graph, and
#: the default ``chunk_edges`` of the ``.edges`` readers and writers (1 MiB
#: of on-disk columns).  A file-backed graph ranges over its own
#: ``chunk_edges`` instead.
DEFAULT_CHUNK_EDGES = 65536


def edge_key(i: np.ndarray | int, j: np.ndarray | int, n: int) -> np.ndarray | int:
    """Collision-free integer key for the undirected edge ``{i, j}``.

    Canonicalizes the orientation so ``edge_key(i, j, n) == edge_key(j, i, n)``.
    Used for O(1) membership testing and for deterministic hashing of edges
    inside sketches.
    """
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    return lo * np.int64(n) + hi


def merge_parallel_edges(
    src: np.ndarray, dst: np.ndarray, weight: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonicalize orientation and merge duplicate edges by summing weights.

    Self-loops are dropped (a matching can never use one).
    Returns sorted-by-key ``(src, dst, weight)`` arrays.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)
    keep = src != dst
    src, dst, weight = src[keep], dst[keep], weight[keep]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keys = lo * np.int64(n) + hi
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    lo, hi, weight = lo[order], hi[order], weight[order]
    if len(keys) == 0:
        return lo, hi, weight
    uniq_mask = np.empty(len(keys), dtype=bool)
    uniq_mask[0] = True
    np.not_equal(keys[1:], keys[:-1], out=uniq_mask[1:])
    group_ids = np.cumsum(uniq_mask) - 1
    n_groups = group_ids[-1] + 1
    wsum = np.zeros(n_groups, dtype=np.float64)
    np.add.at(wsum, group_ids, weight)
    return lo[uniq_mask], hi[uniq_mask], wsum


@dataclass
class CSRAdjacency:
    """CSR adjacency index over a :class:`Graph`.

    ``indptr[v]:indptr[v+1]`` gives, for vertex ``v``, parallel slices into
    ``neighbor`` (the other endpoint) and ``edge_id`` (index into the
    graph's edge arrays).  Both directions of every undirected edge are
    materialized, so each edge id appears exactly twice.
    """

    indptr: np.ndarray
    neighbor: np.ndarray
    edge_id: np.ndarray

    def neighbors(self, v: int) -> np.ndarray:
        return self.neighbor[self.indptr[v] : self.indptr[v + 1]]

    def incident_edges(self, v: int) -> np.ndarray:
        return self.edge_id[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])


@dataclass
class Graph:
    """Undirected weighted graph with optional b-matching capacities.

    Parameters
    ----------
    n:
        Number of vertices.
    src, dst:
        Edge endpoint arrays in canonical orientation (``src < dst``).
    weight:
        Positive edge weights.  Unweighted graphs use all-ones.
    b:
        Non-negative integer vertex capacities; defaults to all-ones
        (plain matching).  ``b_i = 0`` is allowed (a saturated vertex).
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    b: np.ndarray = field(default=None)  # type: ignore[assignment]
    _csr: CSRAdjacency | None = field(default=None, repr=False, compare=False)
    _edge_keys: np.ndarray | None = field(default=None, repr=False, compare=False)
    _fingerprint: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.src = np.ascontiguousarray(self.src, dtype=np.int64)
        self.dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        self.weight = np.ascontiguousarray(self.weight, dtype=np.float64)
        if self.b is None:
            self.b = np.ones(self.n, dtype=np.int64)
        else:
            self.b = np.ascontiguousarray(self.b, dtype=np.int64)
        if not (len(self.src) == len(self.dst) == len(self.weight)):
            raise ValueError("edge arrays must have equal length")
        if len(self.b) != self.n:
            raise ValueError("capacity vector b must have length n")
        if self.n and self.b.min() < 0:
            v = int(self.b.argmin())
            raise ValueError(f"capacities must be >= 0, got b[{v}] = {int(self.b[v])}")
        if len(self.src) and (self.src.min() < 0 or self.dst.max() >= self.n):
            raise ValueError("edge endpoint out of range")
        if np.any(self.src >= self.dst):
            raise ValueError("edges must be canonical: src < dst (no self loops)")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
        b: Sequence[int] | np.ndarray | None = None,
    ) -> "Graph":
        """Build a graph from an iterable of ``(i, j)`` pairs.

        Duplicate edges are merged (weights summed); self-loops dropped.
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        src = arr[:, 0].astype(np.int64)
        dst = arr[:, 1].astype(np.int64)
        if weights is None:
            w = np.ones(len(src), dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
        src, dst, w = merge_parallel_edges(src, dst, w, n)
        bb = None if b is None else np.asarray(b, dtype=np.int64)
        return cls(n=n, src=src, dst=dst, weight=w, b=bb)

    @classmethod
    def empty(cls, n: int, b: np.ndarray | None = None) -> "Graph":
        return cls(
            n=n,
            src=np.empty(0, dtype=np.int64),
            dst=np.empty(0, dtype=np.int64),
            weight=np.empty(0, dtype=np.float64),
            b=b,
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.src)

    @property
    def total_capacity(self) -> int:
        """B = sum_i b_i (the paper's ``B``)."""
        return int(self.b.sum())

    def edge_keys(self) -> np.ndarray:
        """Canonical edge keys, computed once and cached (edges are frozen)."""
        if self._edge_keys is None:
            self._edge_keys = edge_key(self.src, self.dst, self.n)
        return self._edge_keys

    def fingerprint(self) -> str:
        """Canonical content hash of the instance (hex sha256, cached).

        Covers everything a solver can observe -- ``n``, the edge set
        with weights, and the capacity vector ``b`` -- hashed in
        canonical edge-key order, so the fingerprint is invariant to
        the order edges were inserted or stored in and two graphs get
        the same fingerprint iff they are the same instance (up to
        sha256 collisions).  This is the content address the
        :mod:`repro.service` result cache and shard router key on.
        """
        if self._fingerprint is None:
            # local, not edge_keys(): the sortedness check is the keys'
            # only use, and a cached O(m) array would outlive it on every
            # graph the service's result cache keeps
            keys = edge_key(self.src, self.dst, self.n)
            # arrays from from_edges are already key-sorted, but a Graph
            # may be constructed directly from any canonical ordering
            if len(keys) and np.any(keys[1:] < keys[:-1]):
                order = np.argsort(keys, kind="stable")
            else:
                order = slice(None)
            h = hashlib.sha256()
            h.update(b"repro-graph-v1")
            h.update(np.int64(self.n).tobytes())
            h.update(np.ascontiguousarray(self.src[order]).tobytes())
            h.update(np.ascontiguousarray(self.dst[order]).tobytes())
            h.update(np.ascontiguousarray(self.weight[order]).tobytes())
            h.update(self.b.tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def edge_ranges(self) -> Iterator[tuple[int, int]]:
        """Consecutive ``(start, stop)`` edge-id ranges covering ``0..m``.

        The per-edge solver scans (discretization, the per-level maximal
        matchings, the incidence mask, ``lambda`` and the certificate
        audit) read one range of columns at a time, so they hold
        O(range) edge words and never coerce a file-backed graph's
        columns into RAM.  Ranges are :data:`DEFAULT_CHUNK_EDGES` long in
        RAM and ``chunk_edges`` long for a file-backed graph.  A pass of
        :class:`~repro.streaming.stream.EdgeStream` walks the same ranges.
        """
        step = getattr(self, "chunk_edges", DEFAULT_CHUNK_EDGES)
        for start in range(0, self.m, step):
            yield start, min(start + step, self.m)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        # tolist() materializes native ints/floats in one C pass; zipping
        # numpy scalars instead costs a boxing allocation per element
        return zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist())

    def degrees(self) -> np.ndarray:
        """Vertex degrees (vectorized bincount over both endpoints)."""
        deg = np.bincount(self.src, minlength=self.n)
        deg += np.bincount(self.dst, minlength=self.n)
        return deg

    def weighted_degrees(self, w: np.ndarray | None = None) -> np.ndarray:
        """Sum of (possibly overridden) edge weights incident to each vertex."""
        ww = self.weight if w is None else np.asarray(w, dtype=np.float64)
        wd = np.zeros(self.n, dtype=np.float64)
        np.add.at(wd, self.src, ww)
        np.add.at(wd, self.dst, ww)
        return wd

    # ------------------------------------------------------------------
    # CSR adjacency
    # ------------------------------------------------------------------
    def csr(self) -> CSRAdjacency:
        """Lazily build (and cache) the CSR adjacency index."""
        if self._csr is None:
            both_src = np.concatenate([self.src, self.dst])
            both_dst = np.concatenate([self.dst, self.src])
            eid = np.concatenate(
                [np.arange(self.m, dtype=np.int64), np.arange(self.m, dtype=np.int64)]
            )
            order = np.argsort(both_src, kind="stable")
            counts = np.bincount(both_src, minlength=self.n)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._csr = CSRAdjacency(
                indptr=indptr, neighbor=both_dst[order], edge_id=eid[order]
            )
        return self._csr

    def neighbors(self, v: int) -> np.ndarray:
        return self.csr().neighbors(v)

    # ------------------------------------------------------------------
    # Subgraphs and cuts
    # ------------------------------------------------------------------
    def edge_subgraph(self, mask: np.ndarray, weights: np.ndarray | None = None) -> "Graph":
        """Graph on the same vertex set keeping edges where ``mask`` is true.

        ``weights`` optionally replaces the kept edges' weights (e.g. the
        importance-reweighted values a sparsifier assigns).
        """
        mask = np.asarray(mask)
        if mask.dtype != bool:
            idx = mask
        else:
            idx = np.flatnonzero(mask)
        w = self.weight[idx] if weights is None else np.asarray(weights, dtype=np.float64)
        return Graph(n=self.n, src=self.src[idx], dst=self.dst[idx], weight=w, b=self.b.copy())

    def cut_value(self, side: np.ndarray, w: np.ndarray | None = None) -> float:
        """Total (override-)weight of edges crossing the cut ``(S, V-S)``.

        ``side`` is a boolean membership array of length ``n``.
        """
        side = np.asarray(side, dtype=bool)
        ww = self.weight if w is None else np.asarray(w, dtype=np.float64)
        crossing = side[self.src] != side[self.dst]
        return float(ww[crossing].sum())

    def induced_edge_mask(self, members: np.ndarray) -> np.ndarray:
        """Boolean mask of edges with *both* endpoints inside ``members``."""
        members = np.asarray(members, dtype=bool)
        return members[self.src] & members[self.dst]

    def total_weight(self) -> float:
        return float(self.weight.sum())

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to ``networkx.Graph`` (used only for verification)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        for i, j, w in self.edges():
            g.add_edge(i, j, weight=w)
        return g

    def copy(self) -> "Graph":
        return Graph(
            n=self.n,
            src=self.src.copy(),
            dst=self.dst.copy(),
            weight=self.weight.copy(),
            b=self.b.copy(),
        )

    def with_b(self, b: np.ndarray) -> "Graph":
        """Same edges, different capacity vector."""
        return Graph(n=self.n, src=self.src, dst=self.dst, weight=self.weight, b=np.asarray(b))
