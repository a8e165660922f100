"""One-pass weighted streaming matching (Feigenbaum et al. [16] / McGregor [29]).

The classic gamma-charging algorithm: keep a provisional matching; when
edge ``e`` arrives, let ``C`` be the provisional edges sharing an
endpoint.  Replace ``C`` by ``e`` iff

    w(e) >= (1 + gamma) * w(C).

Evicted edges are "charged" to their replacement; the geometric charging
argument gives a ``1 / (3 + 2 sqrt 2) ~ 0.171``-approximation at the
optimal ``gamma = 1/sqrt 2`` (McGregor's tuning; Feigenbaum et al.'s
``gamma = 1`` gives 1/6).  One pass, ``O(n)`` state -- the cheapest
point on the rounds/quality tradeoff curve that experiment E4 plots the
dual-primal algorithm against.
"""

from __future__ import annotations

import numpy as np

from repro.matching.structures import BMatching
from repro.streaming.stream import EdgeStream
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger

__all__ = ["one_pass_backend_run", "charging_approximation_bound"]


def charging_approximation_bound(gamma: float) -> float:
    """Worst-case approximation factor of gamma-charging.

    ``f(gamma) = gamma (1+gamma) / (1 + 3 gamma + gamma^2 + gamma^3)``
    is the standard charging bound; maximized near ``gamma = 1/sqrt 2``.
    Exposed so the benchmark can annotate measured ratios with the
    guarantee they must dominate.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    g = float(gamma)
    return g * (1.0 + g) / (1.0 + 3.0 * g + g * g + g * g * g)


def one_pass_backend_run(
    stream: EdgeStream | Graph,
    gamma: float = 2.0**-0.5,
    ledger: ResourceLedger | None = None,
) -> BMatching:
    """Implementation behind the ``baseline:one_pass`` backend.

    Accepts a replayable :class:`EdgeStream` or a bare :class:`Graph`
    (treated as an input-order stream).  The pass is charged to
    ``ledger`` (or to the stream's own ledger when it already has one);
    central space is the ``n``-word ``matched_at`` array plus two words
    per provisional edge at its high-water mark.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    attached = False
    restore: ResourceLedger | None = None
    if isinstance(stream, Graph):
        stream = EdgeStream(stream, ledger=ledger)
    elif ledger is not None and stream.ledger is not ledger:
        # borrow, never keep: an explicit ledger wins over whatever the
        # stream was built with, and the stream comes back exactly as it
        # arrived -- otherwise repeated runs accumulate each other's
        # charges or account into the wrong sink
        restore = stream.ledger
        stream.ledger = ledger
        attached = True
    account = stream.ledger
    try:
        graph = stream.graph
        matched_at = np.full(graph.n, -1, dtype=np.int64)  # edge id or -1
        weight_of: dict[int, float] = {}
        held = graph.n
        if account is not None:
            account.charge_space(held)

        for u, v, w, eid in stream:
            conflicts = {int(matched_at[u]), int(matched_at[v])} - {-1}
            conflict_w = sum(weight_of[c] for c in conflicts)
            if w >= (1.0 + gamma) * conflict_w and w > 0:
                for c in conflicts:
                    cu, cv = int(graph.src[c]), int(graph.dst[c])
                    matched_at[cu] = -1
                    matched_at[cv] = -1
                    del weight_of[c]
                matched_at[u] = eid
                matched_at[v] = eid
                weight_of[eid] = w
                if account is not None and graph.n + 2 * len(weight_of) > held:
                    account.charge_space(graph.n + 2 * len(weight_of) - held)
                    held = graph.n + 2 * len(weight_of)

        if account is not None:
            account.release_space(held)
    finally:
        if attached:
            stream.ledger = restore
    ids = np.asarray(sorted(weight_of), dtype=np.int64)
    return BMatching(graph, ids)
