"""Semi-streaming drivers: single-pass sparsification and matching.

Wires the stream abstraction to the substrates:

* :func:`streaming_sparsify` -- Algorithm 6 over a single pass.
* :func:`streaming_greedy_matching` -- the classic one-pass greedy
  (1/2-approximation for cardinality; used as a streaming baseline).
* :func:`dynamic_stream_spanning_forest` -- spanning forest of a
  dynamic (insert/delete) stream via linear sketches, the [4] result the
  paper builds on.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.graph_sketch import incidence_update_batch
from repro.sketch.support_find import (
    boruvka_forest_from_tensor,
    boruvka_forest_rounds,
    forest_row_seeds,
)
from repro.sketch.tensor import SketchTensor
from repro.sparsify.cut_sparsifier import EdgeSample, StreamingCutSparsifier
from repro.streaming.stream import DynamicEdgeStream, EdgeStream
from repro.util.instrumentation import ResourceLedger
from repro.util.rng import make_rng

__all__ = [
    "streaming_sparsify",
    "streaming_greedy_matching",
    "dynamic_stream_spanning_forest",
    "stream_spanning_forest",
]


def streaming_sparsify(
    stream: EdgeStream,
    xi: float,
    seed: int | np.random.Generator | None = None,
    k: int | None = None,
) -> tuple[EdgeSample, StreamingCutSparsifier]:
    """One pass of Algorithm 6 over the stream; returns the sample.

    Edge ids in the sample are the graph's edge ids; use the returned
    sparsifier object for space introspection.
    """
    sp = StreamingCutSparsifier(stream.n, xi=xi, seed=seed, k=k)
    for cu, cv, cw, ceid in stream.iter_chunks():
        sp.insert_many(cu, cv, cw, ids=ceid)
    return sp.extract(), sp


def streaming_greedy_matching(stream: EdgeStream) -> list[int]:
    """One-pass greedy matching (b=1): take any edge with both ends free.

    Returns the taken edge ids.  Maximal, hence a 1/2-approximation in
    cardinality and for unweighted graphs.
    """
    free = np.ones(stream.n, dtype=bool)
    taken: list[int] = []
    for u, v, _w, eid in stream:
        if free[u] and free[v]:
            free[u] = False
            free[v] = False
            taken.append(eid)
    return taken


def dynamic_stream_spanning_forest(
    stream: DynamicEdgeStream,
    seed: int | np.random.Generator | None = None,
    ledger: ResourceLedger | None = None,
) -> list[tuple[int, int]]:
    """Spanning forest of the *net* graph of an insert/delete stream.

    Only linear sketches can do this in one pass: every event updates the
    two endpoint sketches by ±1 on the edge coordinate; deletions cancel
    insertions inside the sketch.  Post-processing is sketch-Boruvka.
    """
    rng = make_rng(seed)
    n = stream.n
    row_seeds = forest_row_seeds(rng, n)
    sketches = SketchTensor(n * n, row_seeds, repetitions=8, slots=n)
    events = list(stream)
    if events:
        # the whole event log in one batch: every event updates the two
        # endpoint slots by ±delta on the edge coordinate; deletions
        # cancel insertions inside the sketch (linearity)
        us = np.asarray([ev.u for ev in events], dtype=np.int64)
        vs = np.asarray([ev.v for ev in events], dtype=np.int64)
        ds = np.asarray([ev.delta for ev in events], dtype=np.int64)
        sketches.update_many(*incidence_update_batch(us, vs, n, ds))
    if ledger is not None:
        ledger.tick_sampling_round("dynamic stream pass")
        ledger.charge_stream(len(events))
        ledger.charge_space(sketches.space_words())
    # shared post-processing: the same decode the incrementally
    # maintained DynamicGraphSession uses on its sketch state, so the
    # two are bit-identical by construction (linearity + same decoder)
    return boruvka_forest_from_tensor(sketches, n, ledger=ledger)


def stream_spanning_forest(
    stream: EdgeStream,
    seed: int | np.random.Generator | None = None,
    ledger: ResourceLedger | None = None,
    repetitions: int = 8,
    rows_per_pass: int | None = None,
) -> list[tuple[int, int]]:
    """Spanning forest of an edge stream via linear sketches.

    The out-of-core counterpart of
    :func:`dynamic_stream_spanning_forest`: ``stream`` is an
    :class:`EdgeStream` over an in-RAM graph or over a
    :class:`~repro.ingest.filegraph.FileBackedGraph`, whose passes read
    the ``.edges`` file in ``chunk_edges`` slices without materializing
    it, so the in-RAM and file-backed paths are the same code.

    ``rows_per_pass`` trades passes for resident sketch memory:

    * ``None`` -- all ``incidence_forest_rows(n)`` rows are built in a
      single pass over the edges; peak sketch memory is the full
      tensor, ``O(n * rows * repetitions * log n)`` words.
    * ``k`` -- the rows are built ``k`` at a time, one pass per block;
      peak sketch memory drops to ``O(n * k * repetitions * log n)``
      while the decoded forest stays **bit-identical** (the row seeds
      are all drawn up front through
      :func:`~repro.sketch.support_find.forest_row_seeds`, rows are
      mutually independent, and Boruvka consumes them in the same
      global order either way).  Blocks past an early Boruvka
      termination are never built, so the worst case is
      ``ceil(rows/k)`` passes and often fewer.

    Each block tensor, and each chunk while it is folded into the
    block (``4 * len(chunk)`` words: src, dst, weight, edge id), is
    charged to (and released from) the ledger, so
    ``ledger.central_space.peak`` certifies the O(chunk + sketch-block)
    residency claim; pass accounting lives on the stream itself.
    """
    n = stream.n
    rng = make_rng(seed)
    row_seeds = forest_row_seeds(rng, n)
    rows = len(row_seeds)
    block = rows if rows_per_pass is None else max(1, min(rows, int(rows_per_pass)))

    def row_blocks():
        for r0 in range(0, rows, block):
            tensor = SketchTensor(
                n * n, row_seeds[r0 : r0 + block], repetitions=repetitions, slots=n
            )
            words = tensor.space_words()
            if ledger is not None:
                ledger.charge_space(words)
            try:
                for cu, cv, _cw, _ceid in stream.iter_chunks():
                    chunk_words = 4 * len(cu)
                    if ledger is not None:
                        ledger.charge_space(chunk_words)
                    tensor.update_many(*incidence_update_batch(cu, cv, n))
                    if ledger is not None:
                        ledger.release_space(chunk_words)
                yield tensor
            finally:
                if ledger is not None:
                    ledger.release_space(words)

    return boruvka_forest_rounds(n, row_blocks(), ledger=ledger)
