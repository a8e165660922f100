"""Canonical MapReduce jobs from Section 4.2 of the paper.

The two-round sketch pipeline:

1. **Round 1** -- mapper: each edge ``(u, v)`` emits its record (with the
   shared randomness ``R``) to both endpoints; reducer: each vertex
   builds the ℓ0 sketches of its incidence vector.
2. **Round 2** -- mapper: every vertex sketch is keyed to the single
   central reducer; reducer: the central machine holds all ``n`` vertex
   sketches (near-linear space) and post-processes exactly like the
   dynamic-stream algorithm of [4].

:func:`mapreduce_vertex_sketches` wires this into
:class:`~repro.mapreduce.engine.MapReduceEngine`;
:func:`mapreduce_spanning_forest_impl` stacks the collected sketches into
one incidence tensor and finishes with the shared sketch-Boruvka
(:func:`~repro.sketch.support_find.boruvka_forest_from_tensor`),
demonstrating the "compute in 1 round, use in O(log n) steps" deferral
the paper highlights.
"""

from __future__ import annotations

import numpy as np

from repro.mapreduce.engine import MapReduceEngine, MapReduceJob
from repro.sketch.graph_sketch import encode_edge
from repro.sketch.l0_sampler import L0Sampler
from repro.sketch.support_find import boruvka_forest_from_tensor, forest_row_seeds
from repro.sketch.tensor import SketchTensor
from repro.util.graph import Graph
from repro.util.rng import make_rng, spawn

__all__ = [
    "mapreduce_vertex_sketches",
    "mapreduce_spanning_forest_impl",
]


def mapreduce_vertex_sketches(
    engine: MapReduceEngine,
    graph: Graph,
    rows: int,
    seed: int | np.random.Generator | None = None,
    repetitions: int = 8,
) -> dict[int, list[L0Sampler]]:
    """Two MapReduce rounds producing all vertex sketches centrally.

    Returns ``{vertex: [row sketches]}`` exactly as the 2nd-round reducer
    of Section 4.2 would hold them; a vertex without edges sends nothing
    and is absent.
    """
    rng = make_rng(seed)
    row_seeds = [int(r.integers(0, 2**62)) for r in spawn(rng, rows)]
    return _collect_vertex_sketches(engine, graph, row_seeds, repetitions)


def _collect_vertex_sketches(
    engine: MapReduceEngine,
    graph: Graph,
    row_seeds: list[int],
    repetitions: int,
) -> dict[int, list[L0Sampler]]:
    """The two rounds of :func:`mapreduce_vertex_sketches`, given the
    shared row seeds ``R``."""
    n = graph.n
    rows = len(row_seeds)

    # Round 1: edges -> per-vertex sketch construction
    def mapper1(edge_rec):
        u, v = edge_rec
        e = int(encode_edge(u, v, n))
        # shared randomness R is implicit in the row seeds
        yield (u, (e, +1))
        yield (v, (e, -1))

    def reducer1(vertex, updates):
        sketches = [
            L0Sampler(n * n, seed=row_seeds[r], repetitions=repetitions)
            for r in range(rows)
        ]
        idx = np.asarray([e for e, _ in updates], dtype=np.int64)
        deltas = np.asarray([d for _, d in updates], dtype=np.int64)
        for s in sketches:
            s.update_many(idx, deltas)
        yield (vertex, sketches)

    round1 = MapReduceJob(mapper=mapper1, reducer=reducer1, name="sketch-build")
    edge_records = list(zip(graph.src.tolist(), graph.dst.tolist()))
    vertex_sketches = engine.run_round(round1, edge_records)

    # Round 2: collect everything on one reducer
    def mapper2(rec):
        yield (0, rec)

    def reducer2(_key, recs):
        yield dict(recs)

    round2 = MapReduceJob(mapper=mapper2, reducer=reducer2, name="sketch-collect")
    collected = engine.run_round(round2, vertex_sketches)
    # an edgeless graph sends nothing, so the central reducer never runs
    return collected[0] if collected else {}


def mapreduce_spanning_forest_impl(
    engine: MapReduceEngine,
    graph: Graph,
    seed: int | np.random.Generator | None = None,
) -> list[tuple[int, int]]:
    """Implementation behind the ``mapreduce`` backend.

    The central machine stacks the collected row sketches into one
    ``(n, rows, repetitions, levels)`` incidence tensor -- a vertex that
    sent nothing keeps zero cells -- and decodes it with the shared
    sketch-Boruvka.  The Boruvka iterations are *refinement steps* (no
    further input access), charged to the engine's ledger accordingly.
    """
    n = graph.n
    row_seeds = forest_row_seeds(make_rng(seed), n)
    repetitions = 8
    central = _collect_vertex_sketches(engine, graph, row_seeds, repetitions)
    tensor = SketchTensor(n * n, row_seeds, repetitions=repetitions, slots=n)
    for v, sketches in central.items():
        for r, sketch in enumerate(sketches):
            cells = sketch._tensor
            tensor.s0[v, r] = cells.s0[0, 0]
            tensor.s1[v, r] = cells.s1[0, 0]
            tensor.fp[v, r] = cells.fp[0, 0]
    return boruvka_forest_from_tensor(tensor, n, engine.ledger)
