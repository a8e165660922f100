"""`DynamicGraphSession`: query-at-any-time over a turnstile stream.

The session is the dynamic-workload entry point the linearity of the
paper's sketches was always promising: interleave ``insert`` / ``delete``
(single or ``_many``) edge updates with ``query_matching()`` /
``query_forest()`` at any point, with no stream re-reads.

* Updates are O(1) amortized into the exact edge map and one vectorized
  ±1 frequency update into the linear incidence sketch
  (:class:`~repro.dynamic.state.DynamicSketchState`).
* ``query_forest`` decodes the *current sketch state* (sketch-Boruvka)
  -- by linearity, bit-identical to a one-shot sketch build over the
  surviving edges with the same seed.
* ``query_matching`` runs the dual-primal solver on the canonically
  materialized surviving graph.  Cold queries (the default) are
  bit-identical to the ``offline`` backend on that graph.  With
  ``warm_start=True`` and a small edit distance since the previous
  query, the solver is warm-started from the previous query's verified
  duals (:class:`~repro.core.matching_solver.WarmStart`): the returned
  certificate is re-verified against the current graph, so the
  (1 - eps) guarantee is intact, but the bits may differ from a cold
  solve (``docs/dynamic.md`` spells out the trade).
* Repeat queries with no intervening edits return the previous
  ``RunResult`` object itself (content-addressed: the graph cannot
  have changed).

Sessions compose with the serving layer through
:meth:`repro.service.MatchingService.open_session`, which adds
fingerprint-delta cache invalidation on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.matching_solver import (
    DualPrimalMatchingSolver,
    SolverConfig,
    WarmStart,
)
from repro.dynamic.state import DynamicSketchState, TurnstileGraphState
from repro.dynamic.updates import normalize_updates
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger

__all__ = ["DynamicGraphSession", "SessionStats"]


@dataclass
class SessionStats:
    """Counters a session accumulates over its lifetime."""

    inserts: int = 0
    deletes: int = 0
    matching_queries: int = 0
    forest_queries: int = 0
    #: Queries answered by returning the previous result object
    #: (no edits since the last query of the same task).
    unchanged_hits: int = 0
    #: Matching queries solved with a warm-started solver.
    warm_solves: int = 0
    #: Warm solves that terminated in zero sampling rounds (the lifted
    #: dual certified the folded incumbent immediately).
    warm_fastpath: int = 0
    cold_solves: int = 0
    sketch_space_words: int = 0

    def as_row(self) -> dict:
        return dict(self.__dict__)


@dataclass
class _TaskMemo:
    """Last answer for one query task: the result + the edit version."""

    result: object = None
    version: int = -1


class DynamicGraphSession:
    """Maintain a dynamic graph; answer matching/forest queries any time.

    Parameters
    ----------
    n:
        Vertex count (fixed for the session's lifetime).
    config:
        :class:`~repro.core.matching_solver.SolverConfig` for matching
        queries; ``config.seed`` also seeds the incidence sketch unless
        ``seed`` overrides it.
    base_graph:
        Optional starting graph (its ``b`` vector, if any, carries
        through to every materialized graph).
    warm_start:
        Enable warm-started matching solves (default off: every query
        is then bit-identical to the ``offline`` backend on the current
        graph -- the mode the turnstile-parity battery pins).  Warm and
        cold solves aim at the same gap, ``config.target_gap`` (``eps``
        when unset): a warm query ends with zero sampling rounds when
        the previous duals, lifted, already certify the folded
        matching within it.
    warm_start_max_edits:
        Edit-distance ceiling for reusing the previous duals; beyond
        it the session solves cold (a large burst invalidates most of
        what the old dual knew anyway).
    maintain_sketches:
        Keep the linear incidence sketch up to date (required for
        ``query_forest``).

    Any positive finite edge weight is accepted.
    """

    def __init__(
        self,
        n: int,
        *,
        config: SolverConfig | None = None,
        base_graph: Graph | None = None,
        seed: int | np.random.Generator | None = None,
        warm_start: bool = False,
        warm_start_max_edits: int = 64,
        maintain_sketches: bool = True,
    ):
        self.config = config if config is not None else SolverConfig()
        self.warm_start = bool(warm_start)
        self.warm_start_max_edits = int(warm_start_max_edits)
        self.stats = SessionStats()
        self._state = TurnstileGraphState(n, base_graph=base_graph)
        self._sketches = (
            DynamicSketchState(
                n, seed=seed if seed is not None else self.config.seed
            )
            if maintain_sketches
            else None
        )
        self._memo: dict[str, _TaskMemo] = {
            "matching": _TaskMemo(),
            "spanning_forest": _TaskMemo(),
        }
        self._warm: WarmStart | None = None
        self._warm_version: int = -1
        if base_graph is not None and self._sketches is not None and base_graph.m:
            # one +1 per base edge: the sketch starts cell-identical to a
            # one-shot build over the base graph
            self._sketches.apply_updates(
                base_graph.src, base_graph.dst, np.ones(base_graph.m, dtype=np.int64)
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._state.n

    @property
    def m(self) -> int:
        """Surviving edge count."""
        return self._state.m

    @property
    def version(self) -> int:
        """Monotone edit counter (one tick per applied update)."""
        return self._state.version

    @property
    def sketches(self) -> DynamicSketchState | None:
        return self._sketches

    def graph(self) -> Graph:
        """The surviving graph in canonical edge order (cached)."""
        return self._state.graph()

    def fingerprint(self) -> str:
        """Content address of the surviving graph."""
        return self._state.fingerprint()

    def contains(self, u: int, v: int) -> bool:
        return self._state.contains(u, v)

    def session_stats(self) -> SessionStats:
        if self._sketches is not None:
            self.stats.sketch_space_words = self._sketches.space_words()
        return self.stats

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, u: int, v: int, w: float = 1.0) -> None:
        """Insert edge ``{u, v}`` (strict: duplicate inserts raise)."""
        key = self._state.insert(u, v, w)
        self.stats.inserts += 1
        if self._sketches is not None:
            self._sketches.apply_updates([key[0]], [key[1]], [1])

    def delete(self, u: int, v: int) -> None:
        """Delete edge ``{u, v}`` (strict: absent deletes raise)."""
        key = self._state.validate_delete(u, v)  # canonical key, one place
        self._state.delete(*key)
        self.stats.deletes += 1
        if self._sketches is not None:
            self._sketches.apply_updates([key[0]], [key[1]], [-1])

    def insert_many(
        self,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray | None = None,
    ) -> None:
        """Burst insert: one vectorized sketch update for the burst.

        Atomic: the whole burst (strictness, intra-burst duplicates,
        weights) is validated before anything mutates, so a failing
        event cannot leave a half-applied prefix behind.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        ww = np.ones(len(u)) if w is None else np.asarray(w, dtype=np.float64)
        if len(u) != len(v) or len(u) != len(ww):
            raise ValueError("insert_many arrays must have equal length")
        keys = []
        seen: set[tuple[int, int]] = set()
        for a, b, wt in zip(u, v, ww):
            key = self._state.validate_insert(int(a), int(b), float(wt))
            if key in seen:
                raise ValueError(f"edge {key} appears twice in one insert burst")
            seen.add(key)
            keys.append(key)
        for key, wt in zip(keys, ww):
            self._state.insert(key[0], key[1], float(wt))
        self.stats.inserts += len(keys)
        if self._sketches is not None and keys:
            self._sketches.apply_updates(
                [k[0] for k in keys],
                [k[1] for k in keys],
                np.ones(len(keys), dtype=np.int64),
            )

    def delete_many(self, u: np.ndarray, v: np.ndarray) -> None:
        """Burst delete: one vectorized negative-frequency sketch update
        for the whole burst.

        Atomic, like :meth:`insert_many`: validation precedes mutation.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if len(u) != len(v):
            raise ValueError("delete_many arrays must have equal length")
        keys = []
        seen: set[tuple[int, int]] = set()
        for a, b in zip(u, v):
            key = self._state.validate_delete(int(a), int(b))
            if key in seen:
                raise ValueError(f"edge {key} appears twice in one delete burst")
            seen.add(key)
            keys.append(key)
        for key in keys:
            self._state.delete(*key)
        self.stats.deletes += len(keys)
        if self._sketches is not None and keys:
            self._sketches.apply_updates(
                [k[0] for k in keys],
                [k[1] for k in keys],
                np.full(len(keys), -1, dtype=np.int64),
            )

    def apply(self, updates) -> None:
        """Apply a mixed update log (canonical lists or
        :class:`~repro.dynamic.updates.GraphUpdate` s), in order."""
        for up in normalize_updates(updates):
            if up.op == "+":
                self.insert(up.u, up.v, up.w)
            else:
                self.delete(up.u, up.v)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_matching(self):
        """Solve maximum-weight b-matching on the *current* graph.

        Returns a :class:`~repro.api.RunResult` (``backend="dynamic"``,
        ``task="matching"``).  Cold mode (``warm_start=False``) is
        bit-identical to ``run(Problem(graph), backend="offline")`` on
        the materialized graph -- pinned by the turnstile-parity
        battery.  Warm mode reuses the previous query's verified duals
        when the edit distance allows (see the class docstring).
        """
        from repro.api import RunLedger, RunResult

        memo = self._memo["matching"]
        if memo.result is not None and memo.version == self._state.version:
            self.stats.unchanged_hits += 1
            return memo.result
        self.stats.matching_queries += 1
        graph = self._state.graph()
        warm = None
        if (
            self.warm_start
            and self._warm is not None
            and self._state.version - self._warm_version <= self.warm_start_max_edits
        ):
            warm = self._warm
            self.stats.warm_solves += 1
        else:
            self.stats.cold_solves += 1
        result = DualPrimalMatchingSolver(self.config).solve(
            graph, warm_start=warm
        )
        if warm is not None and result.rounds == 0:
            self.stats.warm_fastpath += 1
        run_result = RunResult(
            backend="dynamic",
            task="matching",
            matching=result.matching,
            certificate=result.certificate,
            ledger=RunLedger.from_snapshot("dynamic", result.resources),
            raw=result,
            extras={
                "session_version": self._state.version,
                "warm_started": warm is not None,
            },
        )
        memo.result = run_result
        memo.version = self._state.version
        if self.warm_start:
            self._warm = WarmStart.from_result(result)
            self._warm_version = self._state.version
        return run_result

    def query_forest(self):
        """Spanning forest decoded from the current sketch state.

        Returns a :class:`~repro.api.RunResult` (``task=
        "spanning_forest"``).  No stream re-read, no edge-map access:
        the answer is a pure function of the linear sketch cells, hence
        bit-identical to replaying the session's whole update history
        through :func:`~repro.streaming.semi_streaming.
        dynamic_stream_spanning_forest` with the same seed.
        """
        from repro.api import RunLedger, RunResult

        if self._sketches is None:
            raise RuntimeError(
                "query_forest needs maintain_sketches=True for this session"
            )
        memo = self._memo["spanning_forest"]
        if memo.result is not None and memo.version == self._state.version:
            self.stats.unchanged_hits += 1
            return memo.result
        self.stats.forest_queries += 1
        ledger = ResourceLedger()
        ledger.tick_sampling_round("dynamic session sketch state")
        ledger.charge_stream(self._sketches.updates_applied)
        ledger.charge_space(self._sketches.space_words())
        forest = self._sketches.forest(ledger=ledger)
        run_result = RunResult(
            backend="dynamic",
            task="spanning_forest",
            forest=forest,
            ledger=RunLedger.from_snapshot("dynamic", ledger.snapshot()),
            raw=forest,
            extras={"session_version": self._state.version},
        )
        memo.result = run_result
        memo.version = self._state.version
        return run_result
