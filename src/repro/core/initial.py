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
        per_level = {}
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
    else:
        per_level = _per_level_matchings(levels)

    for k, mk in per_level.items():
        saturated = np.flatnonzero(mk.vertex_loads() == g.b)
        if len(saturated):
            dual.x[saturated, int(k)] = r * levels.level_weight(int(k))

    beta0 = float((g.b * dual.vertex_costs()).sum())
    merged = _merge_by_groups(levels, per_level)
    return InitialSolution(
        dual=dual, beta0=beta0, per_level=per_level, merged=merged, r=r
    )


def _per_level_matchings(levels: LevelDecomposition) -> dict[int, BMatching]:
    """Per-level maximal b-matchings from one ranged pass over the edges.

    For each level this is the greedy scan of :func:`~repro.matching.
    maximal.maximal_bmatching` over ``edge_subgraph(edges_at(k))``: the
    level's edges arrive in ascending id order and each level keeps its
    own residual, starting at ``b``.  The scan reads one range of
    endpoints at a time (:meth:`~repro.util.graph.Graph.edge_ranges`)
    and keeps an O(n) residual per nonempty level, so no per-level
    subgraph or id array is built.
    """
    g = levels.graph
    lvl = levels.level
    level_list = [int(k) for k in levels.nonempty_levels()]
    residual = {k: g.b.tolist() for k in level_list}
    ids: dict[int, list[np.ndarray]] = {k: [] for k in level_list}
    mult: dict[int, list[np.ndarray]] = {k: [] for k in level_list}
    for start, stop in g.edge_ranges():
        lv_c = lvl[start:stop]
        src_c = np.asarray(g.src[start:stop])
        dst_c = np.asarray(g.dst[start:stop])
        for k in level_list:
            sel = np.flatnonzero(lv_c == k)
            if len(sel) == 0:
                continue
            pos, takes = saturating_scan(src_c[sel], dst_c[sel], residual[k])
            ids[k].append(start + sel[pos])
            mult[k].append(takes)
    return {
        k: BMatching(g, np.concatenate(ids[k]), np.concatenate(mult[k]))
        for k in level_list
    }


def _merge_by_groups(
    levels: LevelDecomposition, per_level: dict[int, BMatching]
) -> BMatching:
    """Definitions 6-7: merge per-level matchings, heaviest group first.

    Each edge is added, at most at its level's multiplicity, while
    residual capacity remains; the blocking argument (Claim 1) bounds
    the weight lost to earlier groups.
    """
    g = levels.graph
    if not per_level:
        return BMatching.empty(g)
    # descending levels == ascending group index (groups are consecutive
    # level blocks)
    parts = [per_level[k] for k in sorted(per_level, reverse=True)]
    ids = np.concatenate([mk.edge_ids for mk in parts])
    cap = np.concatenate([mk.multiplicity for mk in parts])
    pos, takes = saturating_scan(g.src[ids], g.dst[ids], g.b.tolist(), cap)
    return summed_bmatching(g, ids[pos], takes)
