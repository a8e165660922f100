"""Weight discretization into geometric levels (Definitions 2, 3, 6, 7).

The weighted algorithm never works with raw weights: each edge is
assigned a *level* ``k`` with nominal weight ``ŵ_k = (1+eps)^k`` in
rescaled units.  Definition 3 rescales by ``W*/B`` (maximum weight over
total capacity); we use the slightly finer threshold ``eps * W* / B`` so
that the edges dropped for falling below level 0 cost at most
``(B/2) * (eps W*/B) = eps W*/2 <= eps/2 * OPT`` in any b-matching
(the paper absorbs the same slack into its O(eps) accounting).  This
keeps ``L = O(eps^-1 log(B/eps))`` levels.

Definition 6 groups consecutive levels in blocks of ``ceil(log_{1+eps} 2)``
so that weights across alternate groups differ by a factor >= 2 -- the
geometric decay the initial-solution accounting (Lemma 21, Claim 1)
charges against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.graph import Graph
from repro.util.validation import check_epsilon, check_positive_weights

__all__ = ["LevelDecomposition", "discretize"]


@dataclass
class LevelDecomposition:
    """Level structure of a weighted graph.

    Attributes
    ----------
    eps:
        Discretization parameter.
    scale:
        Rescale unit: level-``k`` nominal weight in *original* units is
        ``scale * (1+eps)^k``.
    level:
        Per-edge level index; ``-1`` marks dropped (below-threshold) edges.
    num_levels:
        ``L + 1`` -- levels are ``0..L``.
    """

    graph: Graph
    eps: float
    scale: float
    level: np.ndarray
    num_levels: int

    # ------------------------------------------------------------------
    def level_weight(self, k: int | np.ndarray) -> np.ndarray | float:
        """Nominal rescaled weight ``ŵ_k = (1+eps)^k``."""
        return (1.0 + self.eps) ** k

    def nominal_weight(self, k: int | np.ndarray) -> np.ndarray | float:
        """Nominal weight in original units: ``scale * ŵ_k``."""
        return self.scale * self.level_weight(k)

    def edges_at(self, k: int) -> np.ndarray:
        """Edge ids in level ``k`` (the paper's ``Ê_k``)."""
        return np.flatnonzero(self.level == k)

    def live_edges(self) -> np.ndarray:
        """Edge ids that were not dropped (``Ê``)."""
        return np.flatnonzero(self.level >= 0)

    def nonempty_levels(self) -> np.ndarray:
        """Levels that actually contain edges, ascending."""
        live = self.level[self.level >= 0]
        return np.unique(live)

    # ------------------------------------------------------------------
    # Definition 6: groups of ceil(log_{1+eps} 2) consecutive levels,
    # counted downward from the highest level.
    # ------------------------------------------------------------------
    def group_size(self) -> int:
        return max(1, int(np.ceil(np.log(2.0) / np.log(1.0 + self.eps))))

    def group_of(self, k: int | np.ndarray) -> np.ndarray | int:
        """1-based group index; group 1 holds the highest levels."""
        top = self.num_levels - 1
        return ((top - np.asarray(k)) // self.group_size()) + 1

    def levels_of_group(self, t: int) -> np.ndarray:
        """Levels belonging to group ``t`` (descending)."""
        top = self.num_levels - 1
        gs = self.group_size()
        hi = top - (t - 1) * gs
        lo = max(0, hi - gs + 1)
        return np.arange(hi, lo - 1, -1)

    def num_groups(self) -> int:
        return int(self.group_of(0))

    # ------------------------------------------------------------------
    def dropped_weight_bound(self) -> float:
        """Upper bound on matching weight lost to dropped edges.

        Any b-matching uses at most ``B/2`` edge-units, each dropped edge
        weighs < ``scale`` in original units.
        """
        return 0.5 * self.graph.total_capacity * self.scale


def discretize(graph: Graph, eps: float) -> LevelDecomposition:
    """Compute the level decomposition of a weighted graph.

    Level of edge ``e``: the unique ``k >= 0`` with
    ``scale * (1+eps)^k <= w_e < scale * (1+eps)^{k+1}`` where
    ``scale = eps * W* / B``; edges below ``scale`` are dropped
    (level ``-1``).

    Two passes over :meth:`~repro.util.graph.Graph.edge_ranges` (validate
    and take the running max, then fill the levels) hold one range of
    weights at a time, so a file-backed graph's weight column is never
    coerced into RAM; only the int64 ``level`` array is O(m).
    """
    eps = check_epsilon(eps)
    if graph.m == 0:
        return LevelDecomposition(
            graph=graph,
            eps=eps,
            scale=1.0,
            level=np.empty(0, dtype=np.int64),
            num_levels=1,
        )
    weight = graph.weight
    w_star = -np.inf
    for start, stop in graph.edge_ranges():
        wc = check_positive_weights(weight[start:stop])
        w_star = max(w_star, float(wc.max()))
    B = graph.total_capacity
    scale = eps * w_star / B
    lvl = np.full(graph.m, -1, dtype=np.int64)
    log1p_eps = np.log1p(eps)
    for start, stop in graph.edge_ranges():
        ratio = weight[start:stop] / scale
        live = ratio >= 1.0
        # float-safe: floor(log ratio / log(1+eps)) with a nudge for
        # exact powers
        raw = np.log(ratio[live]) / log1p_eps
        lvl[start:stop][live] = np.floor(raw + 1e-9).astype(np.int64)
    num_levels = max(1, int(lvl.max()) + 1)
    return LevelDecomposition(
        graph=graph, eps=eps, scale=scale, level=lvl, num_levels=num_levels
    )
