"""Exact matching solvers (ground truth and offline subroutine).

Two solvers, trading generality for cost:

* :func:`max_weight_matching_exact` -- exact maximum-weight matching for
  ``b = 1`` via the blossom algorithm.  It is the verifier and the
  offline subroutine of Algorithm 2 step 5 on sampled subgraphs (where
  [2, 13] would be used at scale).
* :func:`max_weight_bmatching_exact` -- exact uncapacitated b-matching by
  the standard vertex-splitting reduction: vertex ``i`` becomes ``b_i``
  clones; edge ``(i, j)`` becomes a complete bipartite bundle between the
  clone sets; a maximum matching of the blown-up graph projects back to a
  maximum b-matching.  Exponential in nothing, but the blow-up is
  ``B = sum b_i`` vertices, so keep it for moderate ``B``.
The LP1 optimum (odd-set constraints enumerated by
:func:`enumerate_odd_sets`) is :func:`repro.core.lp_library.solve_lp1`.

Both solvers share one array path: keep the heaviest copy of each
parallel edge, split vertices with numpy, run the ``blossom_mates``
kernel once, and count matched clone edges per source edge.  The kernel
is a C port of networkx's ``max_weight_matching`` that returns the same
mates as networkx, tie for tie; ``REPRO_KERNELS=numpy`` runs networkx
itself (see ``docs/kernels.md``).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.kernels import blossom_mates
from repro.matching.structures import BMatching
from repro.util.graph import Graph

__all__ = [
    "max_weight_matching_exact",
    "max_weight_bmatching_exact",
    "enumerate_odd_sets",
]


def max_weight_matching_exact(graph: Graph) -> BMatching:
    """Exact maximum-weight matching (b = 1) via blossom."""
    return _exact_bmatching(graph, np.ones(graph.n, dtype=np.int64))


def max_weight_bmatching_exact(graph: Graph) -> BMatching:
    """Exact maximum-weight uncapacitated b-matching via vertex splitting.

    Complexity is blossom on ``B`` vertices and ``sum_e b_i b_j`` edges;
    intended for verification-scale instances.
    """
    return _exact_bmatching(graph, graph.b)


def _heaviest_copies(graph: Graph) -> np.ndarray:
    """Ascending ids of the edges left when each parallel bundle keeps
    its heaviest copy (ties to the lowest id).

    A b-matching has no per-edge cap, so an optimum never needs a
    lighter parallel copy.
    """
    keys = graph.edge_keys()
    order = np.lexsort((-graph.weight, keys))  # stable: equal weights keep id order
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[order[1:]], keys[order[:-1]], out=first[1:])
    return np.sort(order[first])


def _exact_bmatching(graph: Graph, b: np.ndarray) -> BMatching:
    """Vertex split, one blossom call, per-edge match counts.

    Clone edges come out in ``(edge, clone_i, clone_j)`` order: the
    order the blossom sees them in, which decides among tied optima.
    """
    keep = _heaviest_copies(graph)
    starts = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(b, out=starts[1:])
    i, j = graph.src[keep], graph.dst[keep]
    reps = b[i] * b[j]
    bundle = np.repeat(np.arange(len(keep)), reps)  # clone edge -> kept edge
    # position of each clone edge inside its b_i x b_j bundle
    local = np.arange(len(bundle)) - np.repeat(np.cumsum(reps) - reps, reps)
    bj = b[j][bundle]
    ci = starts[i][bundle] + local // bj
    cj = starts[j][bundle] + local % bj
    eid = keep[bundle]
    mate = blossom_mates(int(starts[-1]), ci, cj, graph.weight[eid])
    # every matched clone edge is seen from both of its clones
    counts = np.bincount(eid[mate[mate >= 0]], minlength=graph.m) // 2
    ids = np.flatnonzero(counts)
    return BMatching(graph, ids, counts[ids])


#: Memo for :func:`enumerate_odd_sets`.  The LP library solves LP1-LP4 on
#: the same graph back to back and each solve re-enumerates the same odd
#: sets; caching the (immutable) result makes the identities checkable on
#: verification-scale graphs without paying the enumeration four times.
#: Only the most recent entry is kept -- enumerations can be huge, and the
#: motivating pattern is consecutive solves on one graph.
_ODD_SET_CACHE: dict[tuple, list[tuple[int, ...]]] = {}


def enumerate_odd_sets(
    b: np.ndarray, max_size_b: int | None = None, max_card: int | None = None
) -> list[tuple[int, ...]]:
    """All vertex sets ``U`` with ``||U||_b`` odd and ``>= 3``.

    ``max_size_b`` caps ``||U||_b`` (the paper's ``O_s`` uses ``4/eps``);
    ``max_card`` caps ``|U|``.  Exponential in general -- small graphs
    (or small caps) only.

    Two guards keep the capped case usable on moderate ``n``:

    * **early exit** -- when ``max_size_b`` is given, no set larger than
      the longest prefix of the *ascending-sorted* capacities fitting in
      the cap can qualify (``||U||_b >= sum of the |U| smallest b_i``),
      so cardinalities beyond that bound are never enumerated;
    * **memoization** -- results are cached per ``(b, caps)`` so the LP
      library's four formulations share one enumeration.  Callers must
      treat the returned list as immutable.
    """
    b = np.asarray(b, dtype=np.int64)
    n = len(b)
    key = (b.tobytes(), n, max_size_b, max_card)
    cached = _ODD_SET_CACHE.get(key)
    if cached is not None:
        return cached
    cap = max_card if max_card is not None else n
    if max_size_b is not None:
        # largest cardinality whose cheapest possible ||U||_b fits the cap
        cheapest = np.cumsum(np.sort(b))
        cap = min(cap, int(np.searchsorted(cheapest, max_size_b, side="right")))
    out: list[tuple[int, ...]] = []
    for size in range(3, cap + 1):
        for combo in combinations(range(n), size):
            sb = int(b[list(combo)].sum())
            if sb % 2 == 1 and sb >= 3:
                if max_size_b is None or sb <= max_size_b:
                    out.append(combo)
    _ODD_SET_CACHE.clear()
    _ODD_SET_CACHE[key] = out
    return out

