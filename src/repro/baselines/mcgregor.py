"""McGregor-style streaming matching baseline ([29]).

For unweighted cardinality matching, McGregor (APPROX 2005) achieves a
(1-eps)-approximation with 2^{O(1/eps)} passes: start from a maximal
matching and repeatedly find short augmenting paths with randomized
layered sampling.  The paper cites this as the prior art whose
*iteration count depends exponentially on 1/eps* -- the dual-primal
algorithm's O(p/eps) rounds is the contrast.

We implement the spirit faithfully at simulation scale: greedy maximal
matching in pass 1, then per epoch one pass that collects the edges
incident to free vertices and augments along length-3 alternating paths
(the first augmentation class; longer paths follow in later epochs via
repeated application).  Pass counting goes to the ledger so E4 can
tabulate rounds-vs-quality against the other algorithms.
"""

from __future__ import annotations

import numpy as np

from repro.matching.structures import BMatching
from repro.streaming.stream import EdgeStream
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger

__all__ = ["mcgregor_backend_run"]


def _augment_length3(
    graph: Graph, matched: set[int], matched_at: np.ndarray
) -> int:
    """One sweep of length-3 augmentations (free-matched-free).

    ``matched_at[v]`` is the matched edge at ``v`` or -1.  Returns the
    number of augmentations applied.
    """
    src, dst = graph.src, graph.dst
    gains = 0
    for e in matched.copy():
        a, b = int(src[e]), int(dst[e])
        # look for free x adjacent to a and free y adjacent to b, x != y
        found = None
        for ea in graph.csr().incident_edges(a):
            if ea == e:
                continue
            x = int(dst[ea]) if int(src[ea]) == a else int(src[ea])
            if matched_at[x] != -1:
                continue
            for eb in graph.csr().incident_edges(b):
                if eb == e:
                    continue
                y = int(dst[eb]) if int(src[eb]) == b else int(src[eb])
                if matched_at[y] != -1 or y == x:
                    continue
                found = (int(ea), int(eb))
                break
            if found:
                break
        if found:
            ea, eb = found
            matched.discard(e)
            matched.add(ea)
            matched.add(eb)
            for edge in (e,):
                matched_at[int(src[edge])] = -1
                matched_at[int(dst[edge])] = -1
            for edge in (ea, eb):
                matched_at[int(src[edge])] = edge
                matched_at[int(dst[edge])] = edge
            gains += 1
    return gains


def mcgregor_backend_run(
    graph: Graph,
    eps: float = 0.2,
    seed: int | np.random.Generator | None = None,
    ledger: ResourceLedger | None = None,
    max_epochs: int | None = None,
) -> BMatching:
    """Implementation behind the ``baseline:mcgregor`` backend.

    Pass 1 builds greedy maximal; each epoch spends one pass and applies
    length-3 augmentations until an epoch yields fewer than
    ``eps * |M|`` gains (the classic stopping rule; guarantees >= 2/3 of
    optimum after the first epoch class and improves from there).

    Resource accounting: the first pass is charged by the stream; each
    epoch charges one ``sampling_round`` plus ``m`` streamed edges (one
    pass over the input), and the held state (``matched_at`` array plus
    the matched edge set) is tracked as central space.
    """
    if max_epochs is None:
        max_epochs = max(4, int(np.ceil(1.0 / eps)))
    stream = EdgeStream(graph, ledger=ledger)
    # pass 1: greedy maximal
    matched_at = np.full(graph.n, -1, dtype=np.int64)
    matched: set[int] = set()
    for u, v, _w, eid in stream:
        if matched_at[u] == -1 and matched_at[v] == -1:
            matched.add(eid)
            matched_at[u] = eid
            matched_at[v] = eid
    held = graph.n + len(matched)
    if ledger is not None:
        ledger.charge_space(held)
    for _ in range(max_epochs):
        if ledger is not None:
            ledger.tick_sampling_round("mcgregor augmentation epoch")
            ledger.charge_stream(graph.m)
        gains = _augment_length3(graph, matched, matched_at)
        if ledger is not None and graph.n + len(matched) > held:
            ledger.charge_space(graph.n + len(matched) - held)
            held = graph.n + len(matched)
        if gains < eps * max(1, len(matched)):
            break
    if ledger is not None:
        ledger.release_space(held)
    return BMatching(graph, np.asarray(sorted(matched), dtype=np.int64))
