"""Initial dual solution from per-level maximal b-matchings (Section 5).

Lemma 12 / Lemma 21: compute a maximal b-matching ``M_k`` for every
weight level ``Ê_k``; give every vertex that ``M_k`` *saturates* the dual
value ``x_i(k) = r ŵ_k`` with ``r = eps/256``.  Maximality means every
level-``k`` edge has a saturated endpoint, so every edge constraint is
covered to at least ``r ŵ_k = (1 - eps0) ŵ_k`` -- a valid starting point
for the covering framework with ``eps0 = 1 - eps/256``.

The accounting of Lemma 21 (groups of Definition 6, the blocking
argument of Claims 1-2) guarantees ``beta^b / a <= b^T x0 <= beta^b / 4``
with ``a = 2048 eps^-2`` -- i.e. the initial dual objective is within a
*fixed poly(1/eps) factor* of optimal, so ``O(eps^-1 log a)`` doubling
steps of ``beta`` suffice for the whole run (Theorem 3).

The per-level matchings are computed with the sampled O(p)-round
procedure of Lemma 20 (or by one greedy pass over the edges that serves
every level, when resource accounting is not needed), and their *merge*
across groups (Definition 7) yields the primal warm start ``M`` with
``weight(M) >= sum_t weight(M_Gt)/8`` (Claim 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.levels import LevelDecomposition
from repro.core.relaxations import LayeredDual
from repro.matching.maximal import (
    maximal_bmatching_sampled,
    saturating_scan,
    summed_bmatching,
)
from repro.matching.structures import BMatching
from repro.util.instrumentation import ResourceLedger
from repro.util.rng import make_rng, spawn

__all__ = ["InitialSolution", "build_initial_solution"]


@dataclass
class InitialSolution:
    """Initial dual + primal warm start.

    Attributes
    ----------
    dual:
        The layered dual ``x0`` (``z = 0``) in rescaled units.
    beta0:
        Rescaled dual objective ``b^T x0``.
    per_level:
        The maximal b-matchings ``{M_k}`` keyed by level.
    merged:
        The overall maximal b-matching ``M`` (primal warm start).
    r:
        The per-saturated-vertex rate actually used (``eps/256``).
    """

    dual: LayeredDual
    beta0: float
    per_level: dict[int, BMatching]
    merged: BMatching
    r: float


def build_initial_solution(
    levels: LevelDecomposition,
    p: float = 2.0,
    seed: int | np.random.Generator | None = None,
    ledger: ResourceLedger | None = None,
    sampled: bool = False,
) -> InitialSolution:
    """Construct the Lemma 12 initial solution.

    Parameters
    ----------
    sampled:
        Use the Lemma 20 O(p)-round sampling procedure per level (charges
        rounds/space to the ledger).  The default computes every level's
        greedy maximal b-matching in one ranged pass over the edges,
        without the model accounting.
    """
    g = levels.graph
    eps = levels.eps
    rng = make_rng(seed)
    r = eps / 256.0

    dual = LayeredDual(levels)
    level_list = levels.nonempty_levels()
    # spawned on both routes: the caller's generator advances the same way
    children = spawn(rng, max(1, len(level_list)))

    if sampled:
        per_level, saturated, ends = {}, {}, {}
        for idx, k in enumerate(level_list):
            ids = levels.edges_at(int(k))
            sub = g.edge_subgraph(ids)
            mk_sub = maximal_bmatching_sampled(
                sub, p=p, seed=children[idx], ledger=ledger
            )
            # translate back to parent edge ids
            per_level[int(k)] = BMatching(
                g, ids[mk_sub.edge_ids], mk_sub.multiplicity
            )
            saturated[int(k)] = mk_sub.saturated_vertices()
            ends[int(k)] = (sub.src[mk_sub.edge_ids], sub.dst[mk_sub.edge_ids])
    else:
        per_level, saturated, ends = _per_level_matchings(levels)

    for k, sat in saturated.items():
        dual.x[sat, k] = r * levels.level_weight(k)

    beta0 = float((g.b * dual.vertex_costs()).sum())
    merged = _merge_by_groups(levels, per_level, ends)
    return InitialSolution(
        dual=dual, beta0=beta0, per_level=per_level, merged=merged, r=r
    )


def _per_level_matchings(
    levels: LevelDecomposition,
) -> tuple[dict[int, BMatching], dict[int, np.ndarray], dict[int, tuple]]:
    """Per-level maximal b-matchings from one ranged pass over the edges.

    For each level this is the greedy scan of :func:`~repro.matching.
    maximal.maximal_bmatching` over ``edge_subgraph(edges_at(k))``: the
    level's edges arrive in ascending id order and each level keeps its
    own residual, starting at ``b``.  The scan reads one range of
    endpoints at a time (:meth:`~repro.util.graph.Graph.edge_ranges`)
    and keeps an O(n) residual per nonempty level, so no per-level
    subgraph or id array is built.

    Returns the matchings, each level's saturated vertices and the
    endpoints of each matching's edges, all keyed by level.  A vertex
    is saturated exactly when its residual is 0 (its load is ``b``
    minus the residual), and the endpoints serve the merge, so neither
    reads the graph again: out of core, that would be a gather from
    the file per level.
    """
    g = levels.graph
    lvl = levels.level
    level_list = [int(k) for k in levels.nonempty_levels()]
    residual = {k: g.b.tolist() for k in level_list}
    parts: dict[int, list[tuple[np.ndarray, ...]]] = {k: [] for k in level_list}
    for start, stop in g.edge_ranges():
        lv_c = lvl[start:stop]
        src_c = np.asarray(g.src[start:stop])
        dst_c = np.asarray(g.dst[start:stop])
        for k in level_list:
            sel = np.flatnonzero(lv_c == k)
            if len(sel) == 0:
                continue
            src_k, dst_k = src_c[sel], dst_c[sel]
            pos, takes = saturating_scan(src_k, dst_k, residual[k])
            parts[k].append((start + sel[pos], takes, src_k[pos], dst_k[pos]))
    per_level, saturated, ends = {}, {}, {}
    for k in level_list:
        ids, mult, src, dst = (np.concatenate(col) for col in zip(*parts[k]))
        per_level[k] = BMatching(g, ids, mult)
        saturated[k] = np.flatnonzero(np.asarray(residual[k]) == 0)
        ends[k] = (src, dst)
    return per_level, saturated, ends


def _merge_by_groups(
    levels: LevelDecomposition,
    per_level: dict[int, BMatching],
    ends: dict[int, tuple[np.ndarray, np.ndarray]],
) -> BMatching:
    """Definitions 6-7: merge per-level matchings, heaviest group first.

    Each edge is added, at most at its level's multiplicity, while
    residual capacity remains; the blocking argument (Claim 1) bounds
    the weight lost to earlier groups.  ``ends[k]`` holds the endpoints
    of ``per_level[k]``'s edges.
    """
    g = levels.graph
    if not per_level:
        return BMatching.empty(g)
    # descending levels == ascending group index (groups are consecutive
    # level blocks)
    order = sorted(per_level, reverse=True)
    ids = np.concatenate([per_level[k].edge_ids for k in order])
    cap = np.concatenate([per_level[k].multiplicity for k in order])
    src = np.concatenate([ends[k][0] for k in order])
    dst = np.concatenate([ends[k][1] for k in order])
    pos, takes = saturating_scan(src, dst, g.b.tolist(), cap)
    return summed_bmatching(g, ids[pos], takes)
