"""Maximal (b-)matchings and the sampled construction of Lemma 20.

A b-matching is *maximal* if no edge can be added with any positive
multiplicity -- equivalently every edge has at least one saturated
endpoint.  Maximal matchings are the building block of both the
Lattanzi-et-al. filtering baseline [25] and the paper's initial dual
solution (Lemma 12 via Lemma 20): each level's maximal b-matching tells
us which vertices must carry dual mass.

:func:`maximal_bmatching_sampled` implements Lemma 20's iterative
sampling loop: sample ``O(n^{1+1/p})`` edges uniformly, extend the
maximal b-matching within the sample, drop edges with both endpoints
saturated, repeat.  Lemma 19 guarantees the surviving edge count drops
by ``n^{1/p}`` per round, so ``O(p)`` rounds suffice.
"""

from __future__ import annotations

import numpy as np

from repro.matching.structures import BMatching
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger
from repro.util.rng import make_rng

__all__ = [
    "maximal_bmatching",
    "is_maximal",
    "maximal_bmatching_sampled",
]


def maximal_bmatching(
    graph: Graph,
    order: np.ndarray | None = None,
    residual: np.ndarray | None = None,
) -> BMatching:
    """Maximal b-matching by a single scan in the given (or input) order.

    ``residual`` optionally continues from an existing partial matching's
    residual capacities (used by the level-merging of Lemma 21 and by the
    sampled construction below); it is mutated in place.
    """
    if order is None:
        order = np.arange(graph.m)
    if residual is None:
        residual = graph.b.copy()
    taken: list[int] = []
    mult: list[int] = []
    src, dst = graph.src, graph.dst
    for e in order:
        i, j = src[e], dst[e]
        take = min(residual[i], residual[j])
        if take > 0:
            taken.append(int(e))
            mult.append(int(take))
            residual[i] -= take
            residual[j] -= take
    return BMatching(
        graph, np.asarray(taken, dtype=np.int64), np.asarray(mult, dtype=np.int64)
    )


def is_maximal(matching: BMatching) -> bool:
    """Every edge must have a saturated endpoint."""
    g = matching.graph
    loads = matching.vertex_loads()
    saturated = loads >= g.b
    return bool(np.all(saturated[g.src] | saturated[g.dst]))


def maximal_bmatching_sampled(
    graph: Graph,
    p: float = 2.0,
    seed: int | np.random.Generator | None = None,
    ledger: ResourceLedger | None = None,
    space_budget: int | None = None,
    max_rounds: int | None = None,
) -> BMatching:
    """Lemma 20: maximal b-matching in ``O(p)`` sampling rounds.

    Per round: sample ``min(remaining, budget)`` of the *surviving* edges
    (both endpoints unsaturated), run the maximal scan on the sample with
    the running residuals, then filter the survivors.  Each round charges
    one ``sampling_round`` and ``budget`` central space.

    Parameters
    ----------
    p:
        Round/space tradeoff: the per-round budget is
        ``ceil(n^{1 + 1/p})`` unless ``space_budget`` overrides it.
    """
    rng = make_rng(seed)
    n = graph.n
    if space_budget is None:
        space_budget = int(np.ceil(n ** (1.0 + 1.0 / p))) + 1
    if max_rounds is None:
        max_rounds = max(8, 4 * int(np.ceil(p)) + 8)

    residual = graph.b.copy()
    alive = np.arange(graph.m)
    parts: list[BMatching] = []
    src, dst = graph.src, graph.dst

    for _ in range(max_rounds):
        if len(alive) == 0:
            break
        if ledger is not None:
            ledger.tick_sampling_round("maximal b-matching sample")
            ledger.charge_stream(len(alive))
        if len(alive) <= space_budget:
            sample = alive
        else:
            sample = rng.choice(alive, size=space_budget, replace=False)
        if ledger is not None:
            ledger.charge_space(len(sample))
        # extend the maximal matching inside the sample
        parts.append(maximal_bmatching(graph, order=sample, residual=residual))
        if ledger is not None:
            ledger.release_space(len(sample))
        # filter: an edge survives iff both endpoints keep residual capacity
        alive = alive[(residual[src[alive]] > 0) & (residual[dst[alive]] > 0)]
        if len(alive) <= space_budget and len(alive) > 0:
            # one final exhaustive pass fits in memory
            continue
    # final exhaustive pass over whatever survives (guaranteed small whp)
    parts.append(maximal_bmatching(graph, order=alive, residual=residual))
    return BMatching(
        graph,
        np.concatenate([p.edge_ids for p in parts]),
        np.concatenate([p.multiplicity for p in parts]),
    )
