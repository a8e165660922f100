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
:func:`mapreduce_spanning_forest_impl` finishes with Boruvka over the merged
sketches, demonstrating the "compute in 1 round, use in O(log n) steps"
deferral the paper highlights.
"""

from __future__ import annotations

import numpy as np

from repro.mapreduce.engine import MapReduceEngine, MapReduceJob
from repro.sketch.graph_sketch import encode_edge
from repro.sketch.l0_sampler import L0Sampler
from repro.sketch.support_find import incidence_forest_rows
from repro.sparsify.union_find import UnionFind
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
    of Section 4.2 would hold them.
    """
    rng = make_rng(seed)
    n = graph.n
    row_seeds = [int(r.integers(0, 2**62)) for r in spawn(rng, rows)]

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
    (central,) = engine.run_round(round2, vertex_sketches)
    return central


def mapreduce_spanning_forest_impl(
    engine: MapReduceEngine,
    graph: Graph,
    seed: int | np.random.Generator | None = None,
) -> list[tuple[int, int]]:
    """Implementation behind the ``mapreduce`` backend.

    The Boruvka iterations are *refinement steps* (no further input
    access), charged to the engine's ledger accordingly.
    """
    n = graph.n
    rows = incidence_forest_rows(n)
    central = mapreduce_vertex_sketches(engine, graph, rows=rows, seed=seed)

    uf = UnionFind(n)
    forest: list[tuple[int, int]] = []
    for r in range(rows):
        engine.ledger.tick_refinement()
        components: dict[int, list[int]] = {}
        for v in range(n):
            components.setdefault(uf.find(v), []).append(v)
        grew = False
        for members in components.values():
            merged = central[members[0]][r].clone()
            for v in members[1:]:
                merged.merge(central[v][r])
            got = merged.sample()
            if got is None:
                continue
            e, _ = got
            i, j = e // n, e % n
            if uf.union(i, j):
                forest.append((i, j))
                grew = True
        if not grew or len(forest) >= n - 1:
            break
    return forest
