"""Greedy weighted (b-)matching.

The classic 1/2-approximation: scan edges in nonincreasing weight order,
take an edge whenever both endpoints still have residual capacity, with
multiplicity equal to the smaller residual.  Used both as a baseline and
as the seed of the local-search improver.
"""

from __future__ import annotations

import numpy as np

from repro.matching.maximal import maximal_bmatching
from repro.matching.structures import BMatching
from repro.util.graph import Graph

__all__ = ["greedy_bmatching", "greedy_matching"]


def greedy_bmatching(graph: Graph, order: np.ndarray | None = None) -> BMatching:
    """Greedy b-matching; ``order`` overrides the weight-descending scan.

    The saturating scan of :func:`~repro.matching.maximal.maximal_bmatching`
    in stable weight-descending order: each taken edge's multiplicity is
    the minimum of the endpoints' residual capacities, so at least one
    endpoint is saturated by the take (the accounting Lemma 20 relies on).
    """
    if order is None:
        order = np.argsort(-graph.weight, kind="stable")
    return maximal_bmatching(graph, order=order)


def greedy_matching(graph: Graph) -> BMatching:
    """Greedy matching for ``b = 1`` (weight-descending order)."""
    return greedy_bmatching(graph)
