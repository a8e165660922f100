"""Auction algorithm for bipartite maximum-weight matching (pass-based).

The related-work landscape the paper positions itself against includes
multi-pass bipartite algorithms whose pass count depends on ``eps``
([1, 6, 14-16, 22, 39]).  The auction algorithm (Bertsekas) is the
cleanest member with an unconditional guarantee:

* right vertices carry *prices* ``p_j``; unmatched left vertices *bid*
  for their best ``j`` (maximizing ``w_ij - p_j``) raising the price by
  the bid increment plus the profit margin over the second-best option;
* with minimum increment ``delta``, termination yields a matching within
  ``n_left * delta`` of the maximum weight (eps-complementary
  slackness).

One *round* = one sweep of bids by all currently unmatched left
vertices = one streaming pass over their incident edges; rounds are
charged to the ledger so E4 can put the auction on the same
rounds-vs-quality axes as the dual-primal solver.  Setting
``delta = eps * W* / n_left`` gives a ``(1-eps)``-style additive
guarantee at ``O(max_w / delta)`` worst-case rounds -- the "number of
iterations depends on the problem parameters" failure mode the paper's
O(p/eps) result removes.
"""

from __future__ import annotations

import numpy as np

from repro.matching.structures import BMatching
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger

__all__ = ["bipartite_sides", "auction_backend_run"]


def bipartite_sides(graph: Graph) -> tuple[np.ndarray, np.ndarray] | None:
    """2-color the graph; ``None`` when an odd cycle makes it nonbipartite.

    Returns boolean masks ``(left, right)``; isolated vertices go left.
    """
    color = np.full(graph.n, -1, dtype=np.int8)
    csr = graph.csr()
    for start in range(graph.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in csr.neighbors(v):
                u = int(u)
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    return color == 0, color == 1


def auction_backend_run(
    graph: Graph,
    eps: float = 0.1,
    ledger: ResourceLedger | None = None,
    max_rounds: int | None = None,
    sides: tuple[np.ndarray, np.ndarray] | None = None,
) -> BMatching:
    """Auction implementation behind the ``baseline:auction`` backend.

    ``sides`` lets a caller that already 2-colored the graph (the
    backend's ``check``) skip the second O(n + m) bipartiteness scan.

    Raises ``ValueError`` on nonbipartite input.  The matching returned
    satisfies ``w(M) >= w(M*) - n_left * delta`` where
    ``delta = eps * max_w / max(1, n_left)``; unprofitable vertices
    (best net value < 0) drop out unmatched, which is correct for
    *maximum weight* (not perfect) matching.

    Resource accounting: one ``sampling_round`` per bid sweep, one
    ``edges_streamed`` unit per incident edge scanned by a bidder, and
    the ``4n``-word auction state (prices, ownership, matches) as
    central space.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    if sides is None:
        sides = bipartite_sides(graph)
    if sides is None:
        raise ValueError("the auction baseline requires a bipartite graph")
    left_mask, _right_mask = sides
    if graph.m == 0:
        return BMatching.empty(graph)

    max_w = float(graph.weight.max())
    n_left = max(1, int(left_mask.sum()))
    delta = eps * max_w / n_left
    if max_rounds is None:
        # each bid raises some price by >= delta and prices are bounded
        # by max_w, so n_left * max_w / delta bids suffice; sweeps are
        # far fewer in practice -- cap generously.
        max_rounds = int(np.ceil(2.0 * n_left / eps)) + 8

    csr = graph.csr()
    price = np.zeros(graph.n, dtype=np.float64)
    owner = np.full(graph.n, -1, dtype=np.int64)  # right vertex -> left owner
    owner_edge = np.full(graph.n, -1, dtype=np.int64)
    match_of = np.full(graph.n, -1, dtype=np.int64)  # left vertex -> edge id
    unassigned = [int(v) for v in np.flatnonzero(left_mask) if csr.degree(int(v))]
    dropped: set[int] = set()
    if ledger is not None:
        # prices + owner + owner_edge + match_of, one word per vertex each
        ledger.charge_space(4 * graph.n)

    rounds = 0
    while unassigned and rounds < max_rounds:
        rounds += 1
        if ledger is not None:
            ledger.tick_sampling_round("auction bid sweep")
            ledger.charge_stream(sum(csr.degree(i) for i in unassigned))
        next_unassigned: list[int] = []
        for i in unassigned:
            # best and second-best net value over incident edges
            best_e, best_v, second_v = -1, -np.inf, -np.inf
            for eid in csr.incident_edges(i):
                j = int(graph.dst[eid]) if int(graph.src[eid]) == i else int(graph.src[eid])
                v = float(graph.weight[eid]) - price[j]
                if v > best_v:
                    second_v = best_v
                    best_e, best_v = int(eid), v
                elif v > second_v:
                    second_v = v
            if best_e < 0 or best_v < 0:
                dropped.add(i)  # nothing profitable: stay unmatched
                continue
            j = int(graph.dst[best_e]) if int(graph.src[best_e]) == i else int(graph.src[best_e])
            margin = best_v - (second_v if np.isfinite(second_v) else 0.0)
            price[j] += max(delta, margin + delta)
            prev = int(owner[j])
            if prev != -1:
                match_of[prev] = -1
                next_unassigned.append(prev)
            owner[j] = i
            owner_edge[j] = best_e
            match_of[i] = best_e
        unassigned = next_unassigned

    if ledger is not None:
        ledger.release_space(4 * graph.n)
    ids = np.unique(owner_edge[owner_edge >= 0])
    result = BMatching(graph, ids)
    result.check_valid()
    return result
