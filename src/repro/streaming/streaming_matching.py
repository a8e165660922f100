"""Semi-streaming execution binding for the dual-primal matching solver.

The headline algorithm is model-agnostic: each outer round needs *one
access to the data* that yields a chain of deferred u-sparsifiers.  In
the semi-streaming model that access is a single pass over the edge
list.  This module provides

* :class:`StreamingDeferredSparsifier` -- Lemma 17 built on Algorithm 6:
  per geometric promise-class :class:`~repro.sparsify.cut_sparsifier.
  StreamingCutSparsifier` structures with the NI-forest count inflated
  by ``ceil(chi^2)`` (the lemma's "multiply p'_e by O(chi^2)"), storing
  ``(edge id, structural sampling probability)`` pairs for deferred
  refinement;
* :class:`StreamingDeferredChain` -- ``t`` such structures filled by
  **one shared pass** (the paper's "computed in parallel in 1 round");
* :class:`SemiStreamingMatchingSolver` -- the dual-primal solver with
  its chain construction rebound to stream passes, so
  ``resources["sampling_rounds"]`` literally counts passes.

The guarantee story is unchanged -- the binding only changes *how* the
samples are collected, not what is collected.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig
from repro.sparsify.cut_sparsifier import StreamingCutSparsifier, default_rho
from repro.streaming.stream import EdgeStream
from repro.util.instrumentation import ResourceLedger
from repro.util.rng import make_rng, spawn
from repro.util.validation import check_epsilon, require

__all__ = [
    "StreamingDeferredSparsifier",
    "StreamingDeferredChain",
    "SemiStreamingMatchingSolver",
]


class StreamingDeferredSparsifier:
    """Single-pass deferred u-sparsifier (Definition 4 via Algorithm 6).

    Edges arrive with *promise* values ``ς``; each geometric class
    ``[2^l, 2^{l+1})`` of ς feeds its own level-subsampled NI-forest
    structure.  The per-class forest count ``k`` is inflated by
    ``ceil(chi^2)`` so the structural sampling probability dominates
    what any true weight within the ``chi`` band would need.

    After the pass, :meth:`finalize` computes each stored edge's
    effective sampling probability ``2^{-i'}`` (the level at which its
    endpoints first separate) and exposes the
    ``stored_edge_ids`` / ``stored_probs`` contract of
    :class:`~repro.sparsify.deferred.DeferredSparsifier`.
    """

    def __init__(
        self,
        n: int,
        chi: float,
        xi: float,
        seed: int | np.random.Generator | None = None,
        k: int | None = None,
    ):
        require(chi >= 1.0, "promise slack chi must be >= 1")
        self.n = int(n)
        self.chi = float(chi)
        self.xi = check_epsilon(xi)
        rng = make_rng(seed)
        if k is None:
            # Lemma 17: worst-case rate, inflated by O(chi^2)
            base_k = max(2, int(np.ceil(default_rho(n, xi))))
            self.k = int(np.ceil(base_k * max(1.0, chi) ** 2))
        else:
            # explicit override: the caller-provided forest count *is*
            # the per-level rate (the density/memory escape hatch --
            # no chi^2 inflation, certificates stay valid regardless)
            self.k = max(1, int(k))
        self._rng = rng
        self._classes: dict[int, StreamingCutSparsifier] = {}
        self._finalized: tuple[np.ndarray, np.ndarray] | None = None

    def _class_sparsifier(self, cls: int) -> StreamingCutSparsifier:
        sp = self._classes.get(cls)
        if sp is None:
            sp = StreamingCutSparsifier(
                self.n, xi=self.xi, seed=self._rng, k=self.k
            )
            self._classes[cls] = sp
        return sp

    def insert(self, u: int, v: int, promise: float, edge_id: int) -> None:
        """Process one stream edge with its promise value."""
        self.insert_many(
            np.asarray([u], dtype=np.int64),
            np.asarray([v], dtype=np.int64),
            np.asarray([promise], dtype=np.float64),
            np.asarray([edge_id], dtype=np.int64),
        )

    def insert_many(
        self,
        u: np.ndarray,
        v: np.ndarray,
        promise: np.ndarray,
        edge_ids: np.ndarray,
    ) -> None:
        """Process a chunk of stream edges with their promise values.

        Equivalent to calling :meth:`insert` per edge: promise classes
        are computed vectorized, each class's edges are forwarded to its
        sparsifier in stream order, and new classes are created in
        first-occurrence order so the RNG consumption (hence every
        structure's seed) matches the per-edge path exactly.  Graph
        edge ids ride along *inside* the class sparsifiers (the ``ids``
        pass-through of :meth:`StreamingCutSparsifier.insert_many`), so
        no O(stream) Python-side id ledger is kept.
        """
        if self._finalized is not None:
            raise RuntimeError("sparsifier already finalized")
        promise = np.asarray(promise, dtype=np.float64)
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        keep = promise > 0.0  # promised-zero edges are never stored
        if not keep.any():
            return
        u, v, promise, edge_ids = u[keep], v[keep], promise[keep], edge_ids[keep]
        classes = np.floor(np.log2(np.maximum(promise, 1e-300))).astype(np.int64)
        uniq, first = np.unique(classes, return_index=True)
        for cls in uniq[np.argsort(first)].tolist():
            mask = classes == cls
            sp = self._class_sparsifier(cls)
            sp.insert_many(u[mask], v[mask], 1.0, ids=edge_ids[mask])

    def finalize(self) -> None:
        """Close the pass: compute stored probabilities per class."""
        if self._finalized is not None:
            return
        ids_parts: list[np.ndarray] = []
        probs_parts: list[np.ndarray] = []
        for sp in self._classes.values():
            sample = sp.extract()
            if len(sample.edge_ids) == 0:
                continue
            # extract ids are the graph edge ids we passed through;
            # extract weights are 1 * 2^{i'}, the structural sampling
            # probability is the inverse
            ids_parts.append(np.asarray(sample.edge_ids, dtype=np.int64))
            probs_parts.append(1.0 / np.asarray(sample.weights, dtype=np.float64))
        if ids_parts:
            ids = np.concatenate(ids_parts)
            probs = np.concatenate(probs_parts)
        else:
            ids = np.empty(0, dtype=np.int64)
            probs = np.empty(0, dtype=np.float64)
        order = np.argsort(ids, kind="stable")
        self._finalized = (ids[order], probs[order])
        # the class stores (NI forests + kept-edge chunks) are dead
        # weight from here on; record their space charge, then free them
        # so the inner-step phase holds only the finalized arrays
        self._space_words = 2 * len(ids) + sum(
            sp.space_words() for sp in self._classes.values()
        )
        self._classes.clear()

    # -- DeferredSparsifier contract ------------------------------------
    @property
    def stored_edge_ids(self) -> np.ndarray:
        if self._finalized is None:
            raise RuntimeError("call finalize() after the pass")
        return self._finalized[0]

    @property
    def stored_probs(self) -> np.ndarray:
        if self._finalized is None:
            raise RuntimeError("call finalize() after the pass")
        return self._finalized[1]

    def stored_count(self) -> int:
        return len(self.stored_edge_ids)

    def space_words(self) -> int:
        if self._finalized is not None:
            # construction-time charge, captured before the class
            # stores were released in :meth:`finalize`
            return self._space_words
        return 2 * self.stored_count() + sum(
            sp.space_words() for sp in self._classes.values()
        )


class StreamingDeferredChain:
    """``t`` streaming deferred sparsifiers filled by one shared pass.

    Mirrors :class:`~repro.sparsify.deferred.DeferredSparsifierChain`:
    the structures are independent (fresh seeds) but consume the *same*
    pass -- one data access for the whole chain, exactly the "compute
    ς(1)..ς(t) in parallel" step of Figure 1 (right panel).
    """

    def __init__(
        self,
        stream: EdgeStream,
        promise: np.ndarray,
        gamma: float,
        xi: float,
        count: int,
        seed: int | np.random.Generator | None = None,
        ledger: ResourceLedger | None = None,
        sparsifier_k: int | None = None,
    ):
        require(count >= 1, "chain needs at least one sparsifier")
        rng = make_rng(seed)
        children = spawn(rng, count)
        self.gamma = float(gamma)
        self.sparsifiers = [
            StreamingDeferredSparsifier(
                stream.n, chi=self.gamma, xi=xi, seed=children[q], k=sparsifier_k
            )
            for q in range(count)
        ]
        # the single shared pass, consumed in numpy chunks (EdgeStream
        # ticks its own ledger once for the whole pass)
        for cu, cv, _cw, ceid in stream.iter_chunks():
            cp = promise[ceid]
            for sp in self.sparsifiers:
                sp.insert_many(cu, cv, cp, ceid)
        for sp in self.sparsifiers:
            sp.finalize()
        if ledger is not None:
            # the shared pass is one data access: m streamed edges total,
            # regardless of chain length (the solver ticks the sampling
            # round itself, so only the volume is charged here)
            ledger.charge_stream(stream.graph.m)
            ledger.charge_space(sum(sp.space_words() for sp in self.sparsifiers))

    def __len__(self) -> int:
        return len(self.sparsifiers)

    def __getitem__(self, q: int) -> StreamingDeferredSparsifier:
        return self.sparsifiers[q]

    def union_edge_ids(self) -> np.ndarray:
        if not self.sparsifiers:
            return np.empty(0, dtype=np.int64)
        return np.unique(
            np.concatenate([sp.stored_edge_ids for sp in self.sparsifiers])
        )

    def space_words(self) -> int:
        return sum(sp.space_words() for sp in self.sparsifiers)


class SemiStreamingMatchingSolver(DualPrimalMatchingSolver):
    """The dual-primal solver bound to the semi-streaming model.

    Identical algorithm; only ``_build_chain`` is rebound: the chain of
    each outer round is built from one pass of a fresh
    :class:`EdgeStream` over the instance being solved, chunked as the
    graph's own :meth:`~repro.util.graph.Graph.edge_ranges` (65536
    edges in RAM, ``chunk_edges`` for a file-backed graph).  Results
    are chunk-size invariant (hash-decided sparsifier membership).
    ``solver.passes`` counts the stream passes the solver has taken,
    one per chain, so after a fresh solver's ``solve`` it equals
    ``result.rounds``.

    ``sparsifier_k`` overrides the per-class NI forest count of every
    chain sparsifier (default: the Lemma 17 worst-case rate, which at
    moderate ``n`` stores essentially every edge).  Smaller ``k`` trades
    sparsifier density -- hence resident memory -- against union
    quality; certificates remain valid regardless (they are verified
    independently of how the support was sampled).

    The chain asks for the round promise one stream chunk at a time
    inside its own pass, and every other per-edge step reads the graph
    one edge range at a time, so on an unmaterialized
    :class:`~repro.ingest.filegraph.FileBackedGraph` a solve holds no
    edge-length float vector: the route is O(n + chunk) resident beyond
    the sparsifier stores and the int64 level array.
    """

    def __init__(
        self,
        config: SolverConfig | None = None,
        *,
        sparsifier_k: int | None = None,
        **kwargs,
    ):
        super().__init__(config, **kwargs)
        self.sparsifier_k = None if sparsifier_k is None else int(sparsifier_k)
        self.passes = 0

    def _build_chain(self, graph, promise, gamma, xi, count, rng, ledger):
        stream = EdgeStream(graph)
        chain = StreamingDeferredChain(
            stream,
            promise,
            gamma=gamma,
            xi=xi,
            count=count,
            seed=rng,
            ledger=ledger,
            sparsifier_k=self.sparsifier_k,
        )
        self.passes += stream.passes
        return chain
