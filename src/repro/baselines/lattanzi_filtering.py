"""Lattanzi-Moseley-Suri-Vassilvitskii filtering baseline (SPAA 2011, [25]).

The paper's point of departure: an O(1)-approximate maximum matching in
``O(p)`` MapReduce rounds with ``O(n^{1+1/p})`` central memory.  The
weighted variant (as analyzed in [25], Section 4): partition edges into
geometric weight classes, run the unweighted filtering per class from
heaviest to lightest keeping feasibility -- an 8-approximation; the
unweighted core is:

    repeat: sample n^{1+1/p} surviving edges, compute a maximal matching
    of the sample, drop every edge with a matched endpoint.

Lemma 19 ("sampling hits every 2n/q-edge subgraph") gives the n^{1/p}
per-round shrinkage.  Our implementation generalizes to b-matching
exactly as the paper's Lemma 20 does (saturating multiplicities).

Used by experiment E4 as the rounds/quality baseline the dual-primal
algorithm is compared against.
"""

from __future__ import annotations

import numpy as np

from repro.matching.maximal import maximal_bmatching_sampled, summed_bmatching
from repro.matching.structures import BMatching
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger
from repro.util.rng import make_rng, spawn

__all__ = ["lattanzi_backend_run"]


def lattanzi_backend_run(
    graph: Graph,
    p: float = 2.0,
    seed: int | np.random.Generator | None = None,
    ledger: ResourceLedger | None = None,
    base: float = 2.0,
    weighted: bool = True,
) -> BMatching:
    """Implementation behind the ``baseline:lattanzi`` backend.

    ``weighted=False`` runs the unweighted filtering core (one maximal
    b-matching by Lemma 20 sampling); ``weighted=True`` (default) runs
    the heaviest-first weight-class loop around it.

    Classes ``[base^l, base^{l+1})`` are processed heaviest-first; each
    class runs the unweighted filtering on the *residual* capacities.
    The classic analysis gives an 8-approximation for ``base = 2``
    (factor 2 class rounding x factor 2 maximality x factor 2 blocking).

    Resource accounting: per-round sampling/space charges come from
    :func:`~repro.matching.maximal.maximal_bmatching_sampled`; the
    weighted loop additionally holds the ``n``-word residual-capacity
    vector for its whole duration.
    """
    if not weighted:
        return maximal_bmatching_sampled(graph, p=p, seed=seed, ledger=ledger)
    rng = make_rng(seed)
    if graph.m == 0:
        return BMatching.empty(graph)
    classes = np.floor(np.log(graph.weight) / np.log(base)).astype(np.int64)
    residual = graph.b.copy()
    if ledger is not None:
        ledger.charge_space(graph.n)  # residual-capacity vector
    ids_taken: list[np.ndarray] = []
    mult_taken: list[np.ndarray] = []
    uniq = np.unique(classes)[::-1]
    children = spawn(rng, len(uniq))
    for t, cls in enumerate(uniq):
        ids = np.flatnonzero(classes == cls)
        sub = graph.edge_subgraph(ids)
        sub = sub.with_b(residual)
        # skip classes with no usable capacity
        if not ((residual[sub.src] > 0) & (residual[sub.dst] > 0)).any():
            continue
        mk = maximal_bmatching_sampled(sub, p=p, seed=children[t], ledger=ledger)
        # mk is feasible for the residual it was computed against, so it
        # is taken whole and its loads come off that residual
        ids_taken.append(ids[mk.edge_ids])
        mult_taken.append(mk.multiplicity)
        residual -= mk.vertex_loads()
    if ledger is not None:
        ledger.release_space(graph.n)
    if not ids_taken:
        return BMatching.empty(graph)
    return summed_bmatching(
        graph, np.concatenate(ids_taken), np.concatenate(mult_taken)
    )
