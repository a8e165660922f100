"""b-matching specific algorithms beyond the maximal/greedy scans.

The paper's b-matching is *uncapacitated* (LP1 has no per-edge cap), but
three more tools are needed across the experiments and the offline step:

* :func:`capacitated_bmatching_greedy` -- the *simple* (per-edge cap 1)
  variant, used when comparing against references that disallow parallel
  multiplicity.
* :func:`round_fractional_bmatching` -- turn an LP1-feasible fractional
  ``y`` into an integral b-matching losing at most the rounding slack;
  used to harvest the LP7 witnesses of the MicroOracle (Lemma 13 route)
  without calling the exact solver.
* :func:`bmatching_local_search` -- multiplicity-aware local search:
  greedy seed, then profitable single-edge reallocation moves (shift one
  unit of multiplicity from a lighter edge to a heavier conflicting
  edge) until fixpoint.  The b-generalisation of the 2-opt pass.
"""

from __future__ import annotations

import numpy as np

from repro.matching.greedy import greedy_bmatching
from repro.matching.structures import BMatching
from repro.util.graph import Graph

__all__ = [
    "capacitated_bmatching_greedy",
    "round_fractional_bmatching",
    "bmatching_local_search",
]


def capacitated_bmatching_greedy(graph: Graph) -> BMatching:
    """Greedy *simple* b-matching: every edge used with multiplicity <= 1.

    Scan in weight-descending order; take an edge iff both endpoints have
    residual capacity.  A 1/2-approximation of the simple b-matching
    optimum by the standard charging argument.
    """
    order = np.argsort(-graph.weight, kind="stable")
    residual = graph.b.copy()
    taken: list[int] = []
    src, dst = graph.src, graph.dst
    for e in order:
        i, j = src[e], dst[e]
        if residual[i] > 0 and residual[j] > 0:
            taken.append(int(e))
            residual[i] -= 1
            residual[j] -= 1
    return BMatching(graph, np.asarray(sorted(taken), dtype=np.int64))


def round_fractional_bmatching(
    graph: Graph, y: np.ndarray, sweeten: bool = True
) -> BMatching:
    """Integral b-matching from a fractional LP1-feasible ``y``.

    Floor-then-greedy rounding:

    1. take ``floor(y_e)`` units of every edge (always feasible since the
       vertex constraints are integer),
    2. scan the fractional remainders in ``w_e * frac_e`` descending
       order, adding one unit wherever both endpoints retain capacity,
    3. (``sweeten``) finish with a greedy pass over all edges so the
       result is maximal -- rounding never *wastes* capacity.

    The result is a valid b-matching; on LP-extreme points of bipartite
    instances step 1 alone is already optimal (the polytope is integral).
    """
    y = np.asarray(y, dtype=np.float64)
    if len(y) != graph.m:
        raise ValueError("y must have one entry per edge")
    if np.any(y < -1e-9):
        raise ValueError("y must be nonnegative")
    y = np.maximum(y, 0.0)

    base = np.floor(y + 1e-9).astype(np.int64)
    residual = graph.b.copy()
    mult = np.zeros(graph.m, dtype=np.int64)
    src, dst = graph.src, graph.dst

    # step 1: integral part (clip defensively against numeric drift)
    for e in np.flatnonzero(base):
        take = min(int(base[e]), int(residual[src[e]]), int(residual[dst[e]]))
        if take > 0:
            mult[e] += take
            residual[src[e]] -= take
            residual[dst[e]] -= take

    # step 2: fractional remainders, most valuable first
    frac = y - base
    gain = graph.weight * frac
    for e in np.argsort(-gain, kind="stable"):
        if frac[e] <= 1e-9:
            break
        if residual[src[e]] > 0 and residual[dst[e]] > 0:
            mult[e] += 1
            residual[src[e]] -= 1
            residual[dst[e]] -= 1

    # step 3: maximality sweep
    if sweeten:
        for e in np.argsort(-graph.weight, kind="stable"):
            take = min(int(residual[src[e]]), int(residual[dst[e]]))
            if take > 0:
                mult[e] += take
                residual[src[e]] -= take
                residual[dst[e]] -= take

    ids = np.flatnonzero(mult)
    return BMatching(graph, ids, mult[ids])


def bmatching_local_search(
    graph: Graph,
    rounds: int = 8,
    seed_matching: BMatching | None = None,
) -> BMatching:
    """Greedy seed + unit-reallocation local search for general ``b``.

    Two move families are applied until fixpoint, both strictly
    weight-increasing (hence terminating):

    * **steal**: edge ``e`` blocked at a saturated endpoint takes one
      unit from the lightest incident matched edge lighter than ``e``;
    * **pair swap**: one unit of a matched edge ``d`` is dropped to
      admit one unit each of two unmatched incident edges whose other
      endpoints have residual capacity (the length-3 alternating-path
      augmentation, generalized to multiplicities).
    """
    cur = seed_matching if seed_matching is not None else greedy_bmatching(graph)
    mult = np.zeros(graph.m, dtype=np.int64)
    mult[cur.edge_ids] = cur.multiplicity
    residual = graph.b - cur.vertex_loads()
    src, dst, w = graph.src, graph.dst, graph.weight
    csr = graph.csr()

    def lightest_loaded(v: int, cap: float) -> int:
        """Incident edge with mult>0 and weight < cap, minimizing weight."""
        best, best_w = -1, cap
        for eid in csr.incident_edges(v):
            if mult[eid] > 0 and w[eid] < best_w:
                best, best_w = int(eid), float(w[eid])
        return best

    def best_addable(v: int, avoid: int) -> int:
        """Heaviest edge at ``v`` (not ``avoid``) whose far endpoint has
        residual capacity.  ``v`` itself is assumed about to gain a unit."""
        best, best_w = -1, 0.0
        for eid in csr.incident_edges(v):
            if eid == avoid:
                continue
            far = int(dst[eid]) if int(src[eid]) == v else int(src[eid])
            if residual[far] > 0 and w[eid] > best_w:
                best, best_w = int(eid), float(w[eid])
        return best

    def pair_swap_pass() -> bool:
        """Drop one unit of d, add units of the two best side edges."""
        improved = False
        for d in np.flatnonzero(mult > 0):
            d = int(d)
            i, j = int(src[d]), int(dst[d])
            # tentatively free one unit of d
            mult[d] -= 1
            residual[i] += 1
            residual[j] += 1
            e1 = best_addable(i, avoid=d)
            e2 = best_addable(j, avoid=d)
            candidates = [e for e in dict.fromkeys([e1, e2]) if e >= 0]
            # apply greedily, tracking the *actual* delta; roll back unless
            # the realized gain is strictly positive
            added: list[int] = []
            delta = -float(w[d])
            for e_add in candidates:
                a, c = int(src[e_add]), int(dst[e_add])
                if residual[a] > 0 and residual[c] > 0:
                    mult[e_add] += 1
                    residual[a] -= 1
                    residual[c] -= 1
                    added.append(e_add)
                    delta += float(w[e_add])
            if delta > 1e-12:
                improved = True
                continue
            # not profitable: undo the additions and restore d's unit
            for e_add in added:
                a, c = int(src[e_add]), int(dst[e_add])
                mult[e_add] -= 1
                residual[a] += 1
                residual[c] += 1
            mult[d] += 1
            residual[i] -= 1
            residual[j] -= 1
        return improved

    order = np.argsort(-w, kind="stable")
    for _ in range(rounds):
        improved = pair_swap_pass()
        for e in order:
            e = int(e)
            i, j = int(src[e]), int(dst[e])
            # how many extra units could e absorb after stealing one unit
            # at each saturated endpoint?
            donors: list[int] = []
            gain = w[e]
            ok = True
            for v in (i, j):
                if residual[v] > 0:
                    continue
                d = lightest_loaded(v, w[e])
                if d < 0 or d == e:
                    ok = False
                    break
                donors.append(d)
                gain -= w[d]
            if not ok or gain <= 1e-12:
                continue
            if not donors:
                # both endpoints free: plain extension
                take = min(int(residual[i]), int(residual[j]))
                if take > 0:
                    mult[e] += take
                    residual[i] -= take
                    residual[j] -= take
                    improved = True
                continue
            # apply: remove one unit from each donor, add one unit of e
            for d in donors:
                mult[d] -= 1
                residual[src[d]] += 1
                residual[dst[d]] += 1
            if residual[i] > 0 and residual[j] > 0:
                mult[e] += 1
                residual[i] -= 1
                residual[j] -= 1
                improved = True
            else:
                # stealing freed the wrong vertices; undo
                for d in donors:
                    mult[d] += 1
                    residual[src[d]] -= 1
                    residual[dst[d]] -= 1
        if not improved:
            break

    ids = np.flatnonzero(mult)
    return BMatching(graph, ids, mult[ids])
