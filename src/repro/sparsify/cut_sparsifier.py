"""Cut sparsifiers: offline importance sampling and streaming Algorithm 6.

A *(1 ± xi)-cut-sparsifier* of a weighted graph ``G`` is a reweighted
subgraph ``H`` such that every cut of ``H`` is within ``(1 ± xi)`` of the
corresponding cut of ``G`` (Benczur-Karger [8]).  Two constructions are
provided:

* :func:`sparsify_by_connectivity` -- the offline workhorse: compute NI
  forest indices per geometric weight class, sample edge ``e`` with
  probability ``p_e = min(1, rho / index_e)``, keep it with weight
  ``w_e / p_e``.  ``rho = O(xi^-2 log^2 n)`` gives the guarantee; the
  constant is configurable because the worst-case constant is far from
  what moderate instances need.

* :class:`StreamingCutSparsifier` -- the paper's Algorithm 6: geometric
  subsampling levels ``G_0 ⊇ G_1 ⊇ ...`` (edge survives to level ``i``
  with probability ``2^-i``, decided by a hash so membership is
  reproducible), ``k`` NI forests per level, single pass, and a final
  extraction that assigns each stored edge the level at which its
  endpoints first fail to be k-connected, rescaling the weight by the
  inverse sampling probability of that level.

Both constructions return an :class:`EdgeSample` -- edge ids into the
source graph plus sparsifier weights -- so downstream code can relate
sparsifier edges back to the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sketch.hashing import PolyHash
from repro.sparsify.connectivity import NIForestDecomposition
from repro.util.graph import Graph, edge_key
from repro.util.rng import derive_seed, make_rng
from repro.util.validation import check_epsilon

__all__ = [
    "EdgeSample",
    "default_rho",
    "connectivity_sampling_probs",
    "sparsify_by_connectivity",
    "StreamingCutSparsifier",
]


@dataclass
class EdgeSample:
    """A reweighted subset of a graph's edges.

    ``edge_ids`` index into the source graph's edge arrays; ``weights``
    are the sparsifier weights (already rescaled by inverse sampling
    probability).
    """

    edge_ids: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.edge_ids)

    def as_graph(self, graph: Graph) -> Graph:
        """Materialize the sample as a reweighted subgraph of ``graph``."""
        return graph.edge_subgraph(self.edge_ids, weights=self.weights)

    def space_words(self) -> int:
        return 2 * len(self.edge_ids)


def default_rho(n: int, xi: float, constant: float = 0.7) -> float:
    """Oversampling rate ``rho = C * xi^-2 * log^2 n``.

    The theory constant is large; ``constant`` defaults to a practical
    value validated by the E5 benchmark (cut error stays within xi on the
    tested families).
    """
    xi = check_epsilon(xi)
    return constant * (xi**-2) * max(1.0, np.log2(max(2, n))) ** 2


def _weight_classes(weights: np.ndarray) -> np.ndarray:
    """Geometric class index ``floor(log2 w)`` per edge (w > 0)."""
    return np.floor(np.log2(np.maximum(weights, 1e-300))).astype(np.int64)


def connectivity_sampling_probs(
    graph: Graph,
    weights: np.ndarray,
    rho: float,
) -> np.ndarray:
    """Per-edge sampling probabilities ``min(1, rho / NI-index)``.

    The NI index is computed per geometric weight class, scanning heavier
    classes first so a light edge "sees" the connectivity provided by
    heavier edges (the union of class sparsifiers remains a sparsifier;
    scanning heavy-to-light only sharpens the index).  Zero-weight edges
    get probability zero.
    """
    w = np.asarray(weights, dtype=np.float64)
    m = graph.m
    p = np.zeros(m, dtype=np.float64)
    positive = w > 0
    if not positive.any():
        return p
    classes = np.full(m, np.iinfo(np.int64).min, dtype=np.int64)
    classes[positive] = _weight_classes(w[positive])
    uniq = np.unique(classes[positive])[::-1]
    # One *incremental* forest decomposition shared across classes: the
    # NI construction is online (an edge's index depends only on the
    # edges scanned before it), so continuing one decomposition over the
    # heavy-to-light class sequence yields exactly the indices that
    # re-running it on each class's full prefix would -- without the
    # quadratic re-scan.
    decomp = NIForestDecomposition(graph.n, k=graph.n)
    for cls in uniq:
        in_cls = np.flatnonzero(classes == cls)
        cls_idx = decomp.place_many(graph.src[in_cls], graph.dst[in_cls])
        p[in_cls] = np.minimum(1.0, rho / cls_idx)
    return p


def sparsify_by_connectivity(
    graph: Graph,
    xi: float,
    seed: int | np.random.Generator | None = None,
    rho: float | None = None,
    weights: np.ndarray | None = None,
) -> EdgeSample:
    """Offline (1±xi) cut sparsifier via per-class NI indices.

    Parameters
    ----------
    weights:
        Optional override weights (e.g. dual multipliers ``u`` of the
        matching algorithm -- "this is not the edge weight in the basic
        matching problem", Section 1).  Defaults to the graph's weights.
    """
    rng = make_rng(seed)
    w = graph.weight if weights is None else np.asarray(weights, dtype=np.float64)
    if len(w) != graph.m:
        raise ValueError("weight override must cover every edge")
    if graph.m == 0:
        return EdgeSample(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    if rho is None:
        rho = default_rho(graph.n, xi)
    p = connectivity_sampling_probs(graph, w, rho)
    coins = rng.random(graph.m)
    keep = coins < p
    ids = np.flatnonzero(keep)
    return EdgeSample(edge_ids=ids, weights=w[ids] / p[ids])


class StreamingCutSparsifier:
    """Algorithm 6: single-pass cut sparsification via level subsampling.

    Usage::

        sp = StreamingCutSparsifier(n, xi, seed=0)
        for (u, v, w) in edge_stream:
            sp.insert(u, v, w)
        sample = sp.extract()     # EdgeSample over insertion order ids

    Level membership of an edge is decided by a pairwise hash of its key,
    so re-processing an edge is idempotent and membership is reproducible
    across machines (the MapReduce implementation relies on this).
    """

    def __init__(
        self,
        n: int,
        xi: float,
        seed: int | np.random.Generator | None = None,
        k: int | None = None,
        max_levels: int | None = None,
    ):
        rng = make_rng(seed)
        self.n = int(n)
        self.xi = check_epsilon(xi)
        # k = O(xi^-2 log^2 n) forests per level (Algorithm 6 step 2)
        if k is None:
            k = max(2, int(np.ceil(default_rho(n, xi))))
        self.k = int(k)
        if max_levels is None:
            max_levels = max(1, 2 * int(np.ceil(np.log2(max(2, n)))))
        self.levels = int(max_levels)
        self._level_hash = PolyHash(k=2, seed=derive_seed(rng))
        self._decomp = [NIForestDecomposition(n, self.k) for _ in range(self.levels)]
        # Stored edges live in insertion-ordered *chunks* of tight-dtype
        # columns (u/v int32, id int64, surv int8, w float64) instead of
        # per-edge Python objects in growing lists: ~17-25 bytes per
        # stored edge rather than hundreds.  The weight column of a
        # chunk is elided (None) when every kept weight is exactly 1.0
        # -- the streaming matching chain only ever inserts unit
        # weights, so its sparsifiers store no weight column at all.
        self._chunks: list[
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]
        ] = []
        self._stored_total = 0
        self._count = 0

    def _survival_level(self, u: int, v: int) -> int:
        """Deepest level this edge belongs to (P[>= l] = 2^-l)."""
        key = int(edge_key(u, v, self.n))
        return int(self._level_hash.level(key, self.levels - 1))

    def _place_chunk(
        self, u: np.ndarray, v: np.ndarray, survs: np.ndarray
    ) -> np.ndarray:
        """Forest placement for a chunk; returns the kept mask.

        Each level is its own decomposition and sees its edges in
        stream order, so the chunk is placed one level at a time: level
        ``i`` takes the edges that survived to it (``survs >= i``) in
        one :meth:`~repro.sparsify.connectivity.NIForestDecomposition.
        place_many` call.  An edge is kept when some level gives it a
        forest index ``<= k``.
        """
        kept = np.zeros(len(u), dtype=bool)
        pos = np.arange(len(u))
        for i, decomp in enumerate(self._decomp):
            if i:
                pos = pos[survs[pos] >= i]
                if len(pos) == 0:
                    break
            index = decomp.place_many(u[pos], v[pos])
            kept[pos[index <= self.k]] = True
        return kept

    def insert(self, u: int, v: int, w: float = 1.0) -> None:
        """Process one stream edge."""
        self.insert_many(
            np.asarray([u], dtype=np.int64), np.asarray([v], dtype=np.int64), w
        )

    def insert_many(
        self,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray | float = 1.0,
        ids: np.ndarray | None = None,
    ) -> None:
        """Process a chunk of stream edges in order.

        The (hash-based) survival levels of the whole chunk are computed
        with one vectorized evaluation; forest placement stays
        sequential.  Results are identical to repeated :meth:`insert`.

        ``ids`` optionally names the edges: the sample returned by
        :meth:`extract` indexes these instead of the default positional
        insertion counter.  This lets a caller that filters a stream
        (e.g. by promise class) recover original edge ids without an
        O(m) side table.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.broadcast_to(np.asarray(w, dtype=np.float64), u.shape)
        if ids is None:
            eids = np.arange(self._count, self._count + len(u), dtype=np.int64)
        else:
            eids = np.asarray(ids, dtype=np.int64)
            if eids.shape != u.shape:
                raise ValueError("ids must match the chunk length")
        self._count += len(u)
        if len(u) == 0:
            return
        keys = edge_key(u, v, self.n)
        survs = np.atleast_1d(self._level_hash.level(keys, self.levels - 1))
        kept = self._place_chunk(u, v, survs)
        if not kept.any():
            return
        wk = w[kept]
        self._chunks.append(
            (
                u[kept].astype(np.int32),
                v[kept].astype(np.int32),
                eids[kept],
                survs[kept].astype(np.int8),
                None if np.all(wk == 1.0) else wk.copy(),
            )
        )
        self._stored_total += int(kept.sum())

    def insert_graph(self, graph: Graph) -> None:
        """Stream all edges of a graph (in storage order)."""
        self.insert_many(graph.src, graph.dst, graph.weight)

    def stored_count(self) -> int:
        return self._stored_total

    def space_words(self) -> int:
        """Stored edges + forest structures."""
        return 4 * self._stored_total + 2 * self.n * self.k * self.levels

    def extract(self) -> EdgeSample:
        """Final extraction (Algorithm 6 steps 10-15).

        For every stored edge, find the smallest level ``i'`` whose k-th
        forest separates its endpoints; include the edge iff it survived
        to level ``i'`` and rescale its weight by ``2^{i'}`` (the inverse
        of the level-``i'`` sampling probability).  An edge whose
        endpoints are k-connected at every level gets ``i' = 0`` and
        keeps its raw weight, the conservative choice.

        The stored columns are scanned level by level: a level with
        fewer than k forests separates every stored edge (none is a
        self-loop); otherwise the edges whose endpoints have different
        roots in the level's k-th forest are separated there.
        """
        chunks = self._chunks
        if not chunks:
            return EdgeSample(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        u = np.concatenate([c[0] for c in chunks])
        v = np.concatenate([c[1] for c in chunks])
        i_prime = np.zeros(len(u), dtype=np.int64)
        pos = np.arange(len(u))  # stored edges no level has separated yet
        for i, decomp in enumerate(self._decomp):
            roots = decomp.last_roots()
            a, b = u[pos], v[pos]
            sep = a != b if roots is None else roots[a] != roots[b]
            i_prime[pos[sep]] = i
            pos = pos[~sep]
            if len(pos) == 0:
                break
        keep = np.concatenate([c[3] for c in chunks]) >= i_prime
        w = np.concatenate([np.ones(len(c[0])) if c[4] is None else c[4] for c in chunks])
        return EdgeSample(
            edge_ids=np.concatenate([c[2] for c in chunks])[keep],
            weights=w[keep] * 2.0 ** i_prime[keep],
        )
