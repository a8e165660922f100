"""Sketch-based spanning forest (AGM connectivity).

The paper cites this as the canonical precedent for *deferred use* of
sketches: "the linear sketches were computed in parallel in 1 round but
used sequentially in O(log n) steps of postprocessing to produce a
spanning tree" (Section 1, discussing [3, 4]).

The algorithm is Boruvka over merged sketches:

1. Build a :class:`~repro.sketch.graph_sketch.VertexIncidenceSketch` with
   ``t = O(log n)`` independent rows (one sketching round over the input).
2. Repeat for rounds ``r = 0, 1, ...``: for every current component,
   merge its members' row-``r`` sketches and ℓ0-sample an outgoing edge.
   Union the discovered endpoints.  Each round at least halves the number
   of non-isolated components, so ``O(log n)`` rows suffice whp.

Fresh rows per round keep the adaptive sampling from biasing later
samples -- exactly the adaptivity discipline the dual-primal framework
generalizes.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.graph_sketch import VertexIncidenceSketch
from repro.sketch.tensor import SketchTensor, decode_planes_many
from repro.sparsify.union_find import UnionFind
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger
from repro.util.rng import spawn

__all__ = [
    "sketch_spanning_forest",
    "sketch_connected_components",
    "boruvka_forest_from_tensor",
    "boruvka_forest_rounds",
    "forest_row_seeds",
    "incidence_forest_rows",
]


def incidence_forest_rows(n: int) -> int:
    """Independent sketch rows needed for a whp spanning forest on ``n``
    vertices (one fresh row per Boruvka round, ``O(log n)`` rounds)."""
    return max(4, int(np.ceil(np.log2(max(2, n)))) + 2)


def forest_row_seeds(rng: np.random.Generator, n: int) -> list[int]:
    """The canonical per-row seed derivation for incidence-forest
    sketches: ``incidence_forest_rows(n)`` children spawned from ``rng``
    in order, one 62-bit draw each.

    Every spanning-forest ingestion route -- the one-shot dynamic
    stream, incrementally maintained sessions
    (:class:`~repro.dynamic.state.DynamicSketchState`), and the
    out-of-core chunked path -- derives its row seeds through this one
    helper, which is what makes their decoded forests bit-identical for
    a given root seed regardless of *how* or *in how many passes* the
    cells were populated (linearity does the rest).  ``rng`` is
    advanced by exactly one spawn batch, so callers may keep drawing
    from it afterwards.
    """
    return [int(r.integers(0, 2**62)) for r in spawn(rng, incidence_forest_rows(n))]


def boruvka_forest_rounds(
    n: int,
    row_blocks,
    ledger: ResourceLedger | None = None,
) -> list[tuple[int, int]]:
    """Sketch-Boruvka over a *lazy sequence* of incidence-tensor blocks.

    ``row_blocks`` yields :class:`SketchTensor` objects whose rows are
    consumed in order as successive Boruvka rounds -- the global round
    index keeps advancing across block boundaries, so splitting the
    same ``t`` rows into one t-row tensor or t one-row tensors (built
    by separate passes over the input) decodes the identical forest.
    Blocks after an early termination are never requested, which is how
    the multi-pass out-of-core driver avoids building sketches it will
    not use.
    """
    uf = UnionFind(n)
    forest: list[tuple[int, int]] = []
    done = False
    for tensor in row_blocks:
        for r in range(tensor.rows):
            if ledger is not None:
                ledger.tick_refinement()
            labels = np.asarray([uf.find(v) for v in range(n)], dtype=np.int64)
            roots, inv = np.unique(labels, return_inverse=True)
            s0, s1, fp = tensor.grouped_planes(inv, len(roots), row=r)
            decoded = decode_planes_many(s0, s1, fp, tensor.z[r], n * n)
            grew = False
            for got in decoded:
                if got is None:
                    continue
                e, _ = got
                i, j = e // n, e % n
                if uf.union(i, j):
                    forest.append((i, j))
                    grew = True
            if not grew or len(forest) >= n - 1:
                done = True
                break
        if done:
            break
    return forest


def boruvka_forest_from_tensor(
    tensor: SketchTensor,
    n: int,
    ledger: ResourceLedger | None = None,
) -> list[tuple[int, int]]:
    """Sketch-Boruvka over an already-built vertex-incidence tensor.

    ``tensor`` holds one slot per vertex over the ``n^2`` edge universe
    (the AGM signed-incidence encoding).  This is the post-processing
    half shared by every ingestion route -- one-shot graph builds,
    dynamic insert/delete streams, incrementally maintained sessions,
    and (via :func:`boruvka_forest_rounds`) the chunked out-of-core
    path: because the sketches are linear, *how* the cell state was
    reached cannot change the decoded forest, only the net vector can.
    Each round merges every current component with one grouped
    axis-sum, decodes all of them together, and unions the discovered
    endpoints; round ``r`` consumes row ``r`` (fresh randomness per
    round keeps the adaptive sampling unbiased).
    """
    return boruvka_forest_rounds(n, (tensor,), ledger=ledger)


def sketch_spanning_forest(
    graph: Graph,
    seed: int | np.random.Generator | None = None,
    ledger: ResourceLedger | None = None,
    rows: int | None = None,
) -> list[tuple[int, int]]:
    """Compute a spanning forest using only linear sketches of the input.

    Returns a list of forest edges.  One ``sampling_round`` is charged to
    the ledger (the sketches are computed in a single round); each Boruvka
    iteration of :func:`boruvka_forest_from_tensor` is a
    ``refinement_step`` over stored sketches only.
    """
    if rows is None:
        rows = incidence_forest_rows(graph.n)
    sketch = VertexIncidenceSketch(graph, t=rows, seed=seed)
    if ledger is not None:
        ledger.tick_sampling_round("vertex incidence sketches")
        ledger.charge_space(sketch.space_words())
    return boruvka_forest_from_tensor(sketch._tensor, graph.n, ledger)


def sketch_connected_components(
    graph: Graph,
    seed: int | np.random.Generator | None = None,
    ledger: ResourceLedger | None = None,
) -> np.ndarray:
    """Component labels computed from a sketch-built spanning forest."""
    forest = sketch_spanning_forest(graph, seed=seed, ledger=ledger)
    uf = UnionFind(graph.n)
    for i, j in forest:
        uf.union(i, j)
    return np.asarray([uf.find(v) for v in range(graph.n)], dtype=np.int64)
