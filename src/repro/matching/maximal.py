"""Maximal (b-)matchings and the sampled construction of Lemma 20.

A b-matching is *maximal* if no edge can be added with any positive
multiplicity -- equivalently every edge has at least one saturated
endpoint.  Maximal matchings are the building block of both the
Lattanzi-et-al. filtering baseline [25] and the paper's initial dual
solution (Lemma 12 via Lemma 20): each level's maximal b-matching tells
us which vertices must carry dual mass.

:func:`saturating_scan` is the one scan that builds them: the greedy
and maximal b-matchings, the per-level matchings of the initial
solution and their group merge (Definition 7), and a warm start's fold
and completion all call it, the merge and the fold with a per-edge
multiplicity cap.  :func:`summed_bmatching` turns the takes of such a
scan into a b-matching when an edge may be visited more than once.

:func:`maximal_bmatching_sampled` implements Lemma 20's iterative
sampling loop: sample ``O(n^{1+1/p})`` edges uniformly, extend the
maximal b-matching within the sample, drop edges with both endpoints
saturated, repeat.  Lemma 19 guarantees the surviving edge count drops
by ``n^{1/p}`` per round, so ``O(p)`` rounds suffice.
"""

from __future__ import annotations

from itertools import count, repeat

import numpy as np

from repro.matching.structures import BMatching
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger
from repro.util.rng import make_rng

__all__ = [
    "saturating_scan",
    "summed_bmatching",
    "maximal_bmatching",
    "is_maximal",
    "maximal_bmatching_sampled",
]


def saturating_scan(
    src: np.ndarray,
    dst: np.ndarray,
    residual: list[int],
    cap: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Take the edges ``(src[t], dst[t])`` in order, each as often as fits.

    Edge ``t`` is taken with multiplicity ``min(residual[src[t]],
    residual[dst[t]])``, lowered to ``cap[t]`` when a cap is given, so
    an uncapped take saturates at least one endpoint.  ``residual`` is
    a list of per-vertex residual capacities, updated in place.  Returns
    the positions ``t`` with a positive take and those takes, in scan
    order.
    """
    caps = repeat(np.inf) if cap is None else np.asarray(cap).tolist()
    ends = zip(count(), np.asarray(src).tolist(), np.asarray(dst).tolist(), caps)
    pos: list[int] = []
    takes: list[int] = []
    for t, i, j, c in ends:
        ri, rj = residual[i], residual[j]
        take = ri if ri < rj else rj
        if c < take:
            take = c
        if take > 0:
            pos.append(t)
            takes.append(take)
            residual[i] -= take
            residual[j] -= take
    return np.asarray(pos, dtype=np.int64), np.asarray(takes, dtype=np.int64)


def summed_bmatching(graph: Graph, edge_ids: np.ndarray, takes: np.ndarray) -> BMatching:
    """The b-matching taking each edge the sum of its takes, ids ascending."""
    ids, slot = np.unique(np.asarray(edge_ids, dtype=np.int64), return_inverse=True)
    mult = np.zeros(len(ids), dtype=np.int64)
    np.add.at(mult, slot, np.asarray(takes, dtype=np.int64))
    return BMatching(graph, ids, mult)


def maximal_bmatching(
    graph: Graph,
    order: np.ndarray | None = None,
    residual: np.ndarray | None = None,
) -> BMatching:
    """Maximal b-matching by a single scan in the given (or input) order.

    ``residual`` optionally continues from an existing partial matching's
    residual capacities (used by the sampled construction below); it is
    updated in place.  The matching lists its edges in scan order.
    """
    order = np.arange(graph.m) if order is None else np.asarray(order, dtype=np.int64)
    left = (graph.b if residual is None else residual).tolist()
    pos, takes = saturating_scan(graph.src[order], graph.dst[order], left)
    if residual is not None:
        residual[:] = left
    return BMatching(graph, order[pos], takes)


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
    # final exhaustive pass over whatever survives (guaranteed small whp)
    parts.append(maximal_bmatching(graph, order=alive, residual=residual))
    return BMatching(
        graph,
        np.concatenate([p.edge_ids for p in parts]),
        np.concatenate([p.multiplicity for p in parts]),
    )
