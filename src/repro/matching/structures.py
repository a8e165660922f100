"""Matching value objects.

:class:`BMatching` is the universal result type: a multiset of edges of a
source graph, with integer multiplicities.  Ordinary matchings are the
``b = 1`` special case (all multiplicities one).  The paper's b-matching
is *uncapacitated* -- LP1 places no per-edge cap, so an edge may be used
with multiplicity up to ``min(b_i, b_j)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.graph import Graph

__all__ = ["BMatching"]


@dataclass
class BMatching:
    """A (candidate) b-matching of ``graph``.

    Attributes
    ----------
    graph:
        The source graph (provides endpoints, weights and capacities).
    edge_ids:
        Indices into the graph's edge arrays; must be unique.
    multiplicity:
        Positive integer multiplicities, parallel to ``edge_ids``.
    """

    graph: Graph
    edge_ids: np.ndarray
    multiplicity: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.edge_ids = np.asarray(self.edge_ids, dtype=np.int64)
        if self.multiplicity is None:
            self.multiplicity = np.ones(len(self.edge_ids), dtype=np.int64)
        else:
            self.multiplicity = np.asarray(self.multiplicity, dtype=np.int64)
        if len(self.edge_ids) != len(self.multiplicity):
            raise ValueError("edge_ids and multiplicity must be parallel")
        if len(np.unique(self.edge_ids)) != len(self.edge_ids):
            raise ValueError("edge_ids must be unique (use multiplicity)")
        if np.any(self.multiplicity < 1):
            raise ValueError("multiplicities must be >= 1")

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, graph: Graph) -> "BMatching":
        return cls(graph, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    @classmethod
    def from_pairs(cls, graph: Graph, pairs) -> "BMatching":
        """Build from ``(i, j)`` vertex pairs (each must be a graph edge)."""
        keys = {
            (int(s), int(d)): e for e, (s, d) in enumerate(zip(graph.src, graph.dst))
        }
        ids = []
        for i, j in pairs:
            i, j = (int(i), int(j)) if i < j else (int(j), int(i))
            if (i, j) not in keys:
                raise KeyError(f"({i},{j}) is not an edge of the graph")
            ids.append(keys[(i, j)])
        return cls(graph, np.asarray(sorted(set(ids)), dtype=np.int64))

    # ------------------------------------------------------------------
    def weight(self) -> float:
        """Total matched weight ``sum_e w_e * y_e``."""
        return float(
            (self.graph.weight[self.edge_ids] * self.multiplicity).sum()
        )

    def size(self) -> int:
        """Total multiplicity (cardinality for b = 1)."""
        return int(self.multiplicity.sum())

    def vertex_loads(self) -> np.ndarray:
        """Matched degree of every vertex (``sum_{e ∋ i} y_e``)."""
        loads = np.zeros(self.graph.n, dtype=np.int64)
        np.add.at(loads, self.graph.src[self.edge_ids], self.multiplicity)
        np.add.at(loads, self.graph.dst[self.edge_ids], self.multiplicity)
        return loads

    def is_valid(self) -> bool:
        """Degree constraints: ``load_i <= b_i`` for every vertex."""
        return bool(np.all(self.vertex_loads() <= self.graph.b))

    def check_valid(self) -> None:
        loads = self.vertex_loads()
        bad = np.flatnonzero(loads > self.graph.b)
        if len(bad):
            v = int(bad[0])
            raise ValueError(
                f"vertex {v} overloaded: load {int(loads[v])} > b {int(self.graph.b[v])}"
            )

    def saturated_vertices(self) -> np.ndarray:
        """Vertices with ``load_i == b_i`` (Lemma 20's saturation set)."""
        return np.flatnonzero(self.vertex_loads() == self.graph.b)

    def as_pairs(self) -> list[tuple[int, int]]:
        """Matched vertex pairs, one per unit of multiplicity collapsed to 1."""
        return [
            (int(self.graph.src[e]), int(self.graph.dst[e])) for e in self.edge_ids
        ]
