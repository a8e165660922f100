"""Deferred cut-sparsifiers (Definition 4, Lemmas 17-18).

The deferred-sparsifier problem: the true edge weights ``u`` are *not
known* at sampling time -- only promise values ``ς`` with
``ς_e / χ <= u_e <= ς_e χ``.  The data structure ``D`` must pick (and
store) its edges using only ``ς``; the exact ``u`` values of the stored
edges are revealed later, after which ``D`` outputs a (1 ± xi)
sparsifier for ``u``.

Lemma 17's construction: compute the sampling probability ``p'_e`` from
``ς`` (per weight class in ``[2^l, 2^{l+1})``), then inflate by ``O(χ²)``
and cap at 1.  Since ``u_e <= ς_e χ <= u_e χ²``, the inflated probability
dominates the probability the true weights would have required, so the
stored set stochastically contains a valid sparsifier support.  At
refinement time, stored edge ``e`` receives weight ``u_e / p_e``.

Why this matters: in the dual-primal matching loop, the multipliers ``u``
drift by a factor ``<= (1+eps)^t = γ`` over ``t`` deferred steps
(Theorem 3).  Sampling *once* with ``χ = γ`` therefore supports ``t``
sequential refinements -- "t simultaneous steps without further access
to data" (Figure 1, right panel).  :class:`DeferredSparsifierChain`
packages exactly that pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparsify.cut_sparsifier import (
    EdgeSample,
    connectivity_sampling_probs,
    default_rho,
)
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger
from repro.util.rng import make_rng, spawn
from repro.util.validation import check_epsilon, require

__all__ = ["DeferredSparsifier", "DeferredSparsifierChain"]


@dataclass
class _StoredSample:
    edge_ids: np.ndarray
    probs: np.ndarray  # inflated sampling probability of each stored edge


class DeferredSparsifier:
    """Data structure ``D`` of Definition 4.

    Parameters
    ----------
    graph:
        Underlying graph (topology only is used at sampling time).
    promise:
        The ``ς`` values, one per edge (nonnegative; zero means the true
        weight is promised to be zero and the edge is never stored).
    chi:
        Promise slack χ >= 1; sampling probabilities are inflated by χ².
    xi:
        Target cut-approximation quality of the refined sparsifier.
    rho:
        Optional oversampling-rate override (default ``O(xi^-2 log^2 n)``).
    """

    def __init__(
        self,
        graph: Graph,
        promise: np.ndarray,
        chi: float,
        xi: float,
        seed: int | np.random.Generator | None = None,
        rho: float | None = None,
        ledger: ResourceLedger | None = None,
        base_probs: np.ndarray | None = None,
    ):
        rng = make_rng(seed)
        self.graph = graph
        self.chi = float(chi)
        require(self.chi >= 1.0, "promise slack chi must be >= 1")
        self.xi = check_epsilon(xi)
        promise = np.asarray(promise, dtype=np.float64)
        require(len(promise) == graph.m, "promise must cover every edge")
        require(bool(np.all(promise >= 0)), "promise values must be nonnegative")
        if base_probs is None:
            if rho is None:
                rho = default_rho(graph.n, xi)
            base_p = connectivity_sampling_probs(graph, promise, rho)
        else:
            # the chain precomputes the (deterministic) probabilities
            # once for all of its structures -- same values, one NI scan
            base_p = base_probs
        inflated = np.minimum(1.0, base_p * self.chi**2)
        coins = rng.random(graph.m)
        ids = np.flatnonzero(coins < inflated)
        self._stored = _StoredSample(edge_ids=ids, probs=inflated[ids])
        self._refined = False
        if ledger is not None:
            ledger.charge_space(2 * len(ids))

    # ------------------------------------------------------------------
    @property
    def stored_edge_ids(self) -> np.ndarray:
        """Indices (into the source graph) of the stored edges."""
        return self._stored.edge_ids

    @property
    def stored_probs(self) -> np.ndarray:
        """Inflated sampling probabilities of the stored edges.

        Exposed so callers doing *incremental* refinement (one multiplier
        re-evaluation per inner step) can divide by the probabilities
        directly instead of building a full-length vector each time.
        """
        return self._stored.probs

    def stored_count(self) -> int:
        return len(self._stored.edge_ids)

    def space_words(self) -> int:
        return 2 * self.stored_count()

    # ------------------------------------------------------------------
    def refine(self, u_exact: np.ndarray) -> EdgeSample:
        """Reveal exact weights and emit the (1±xi) sparsifier.

        ``u_exact`` is indexed over *all* edges of the source graph but
        only the stored entries are read -- matching Definition 4's
        "exact values of those stored entries are revealed".  Edges whose
        revealed weight is zero are dropped.

        Refinement is repeatable: the same ``D`` may be refined against
        several weight vectors (each within the χ promise), which is how
        the matching algorithm reuses one sampling round for many dual
        steps.
        """
        u_exact = np.asarray(u_exact, dtype=np.float64)
        require(len(u_exact) == self.graph.m, "u_exact must cover every edge")
        ids = self._stored.edge_ids
        probs = self._stored.probs
        u_stored = u_exact[ids]
        nz = u_stored > 0
        return EdgeSample(edge_ids=ids[nz], weights=u_stored[nz] / probs[nz])


class DeferredSparsifierChain:
    """The ``ln γ`` deferred sparsifiers of one outer round (Algorithm 2/4).

    One chain = one *sampling round*: all ``t`` structures are built in
    parallel from the same promise vector (a single access to the data).
    They are then refined *sequentially*: structure ``q`` is refined with
    the multiplier vector produced after using structures ``1..q-1`` --
    the "use S_1..S_q to refine S_{q+1}" step of Algorithm 1.
    """

    def __init__(
        self,
        graph: Graph,
        promise: np.ndarray,
        gamma: float,
        xi: float,
        count: int,
        seed: int | np.random.Generator | None = None,
        rho: float | None = None,
        ledger: ResourceLedger | None = None,
    ):
        require(count >= 1, "chain needs at least one sparsifier")
        rng = make_rng(seed)
        children = spawn(rng, count)
        self.gamma = float(gamma)
        # All structures of a chain sample from the same promise vector,
        # so the (deterministic) connectivity probabilities are computed
        # once and shared; each structure still flips its own coins.
        base_p = connectivity_sampling_probs(
            graph,
            np.asarray(promise, dtype=np.float64),
            rho if rho is not None else default_rho(graph.n, check_epsilon(xi)),
        )
        self.sparsifiers = [
            DeferredSparsifier(
                graph,
                promise,
                chi=self.gamma,
                xi=xi,
                seed=children[q],
                rho=rho,
                ledger=ledger,
                base_probs=base_p,
            )
            for q in range(count)
        ]
        if ledger is not None:
            ledger.tick_sampling_round(
                f"deferred chain: {count} sparsifiers, gamma={self.gamma:.3g}"
            )
        self._cursor = 0

    def __len__(self) -> int:
        return len(self.sparsifiers)

    def __getitem__(self, q: int) -> DeferredSparsifier:
        return self.sparsifiers[q]

    def next(self) -> DeferredSparsifier | None:
        """Sequential access: the next not-yet-used structure, or None."""
        if self._cursor >= len(self.sparsifiers):
            return None
        d = self.sparsifiers[self._cursor]
        self._cursor += 1
        return d

    def union_edge_ids(self) -> np.ndarray:
        """Union of all stored edges (the offline-matching pool, step 5)."""
        if not self.sparsifiers:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([d.stored_edge_ids for d in self.sparsifiers]))

    def space_words(self) -> int:
        return sum(d.space_words() for d in self.sparsifiers)
