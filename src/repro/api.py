"""Unified execution-backend facade: one ``Problem`` / ``run()`` surface.

The paper frames a *single* dual-primal algorithm as instantiable
across models of computation -- offline resource-constrained access,
semi-streaming passes, MapReduce rounds, congested-clique messages --
and positions it against a family of baselines.  This module is the
one stable surface over all of them:

* :class:`Problem` -- declarative spec: the graph, a
  :class:`~repro.core.matching_solver.SolverConfig`, the task
  (``"matching"`` or ``"spanning_forest"``) and per-model
  :class:`ModelBudgets`.  Configuration is data, not kwargs sprawl.
* :class:`Backend` + :func:`register_backend` -- a decorator-based
  registry; each model of computation is a backend exposing
  ``run(problem) -> RunResult`` (and a batched ``run_many``).
* :func:`run` / :func:`run_many` -- top-level dispatch.  ``run_many``
  routes homogeneous offline batches through one call of the solver's
  lockstep engine (:meth:`~repro.core.matching_solver.
  DualPrimalMatchingSolver.solve_many`), with results pinned equal to
  looped :func:`run`.
* :class:`RunResult` -- the unified result: matching, certificate when
  the backend produces one, spanning forest for the forest protocols,
  and a normalized :class:`RunLedger` with per-model resource fields
  (passes, rounds, reducer memory, clique message words).
* :func:`compare` -- run one problem across several backends and return
  a ranked weight/certified-ratio/resources table (the shape of the
  paper's comparison tables; experiment E4 in three lines).

Every backend is pinned exact-equal to the implementation it wraps by
``tests/test_api.py``, and to checked-in golden digests by
``tests/test_golden.py``.  The pre-facade entry points were removed in
1.5.0 (see the removal note in ``docs/api.md``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, astuple, dataclass, field, replace
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.baselines.auction import auction_backend_run, bipartite_sides
from repro.baselines.lattanzi_filtering import lattanzi_backend_run
from repro.baselines.mcgregor import mcgregor_backend_run
from repro.baselines.streaming_weighted import one_pass_backend_run
from repro.core.certificates import Certificate, MatchingResult
from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig
from repro.matching.structures import BMatching
from repro.util.graph import Graph
from repro.util.instrumentation import ResourceLedger

__all__ = [
    "Problem",
    "ModelBudgets",
    "RunLedger",
    "RunResult",
    "Backend",
    "BackendNotFound",
    "ProblemMismatch",
    "register_backend",
    "backend_names",
    "get_backend",
    "run",
    "run_many",
    "compare",
    "config_fingerprint",
]

#: The tasks a problem may ask for.  "matching" is the paper's headline
#: objective; "spanning_forest" is the sketch-shipping connectivity
#: protocol the MapReduce / congested-clique bindings demonstrate.
TASKS = ("matching", "spanning_forest")


# ======================================================================
# Canonical fingerprints (content addresses for the service cache)
# ======================================================================
def _require_canonical(value: Any, where: str) -> None:
    """Reject values ``json.dumps`` would *coerce* rather than encode.

    ``json.dumps`` silently stringifies non-str dict keys and flattens
    tuples into lists; either would let two backend-distinguishable
    problems share one fingerprint (a wrong-answer cache hit).  Only
    shapes that round-trip exactly -- None/bool/int/float/str, lists,
    and str-keyed dicts of the same -- are canonical.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, list):
        for item in value:
            _require_canonical(item, where)
        return
    if isinstance(value, dict):
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(
                    f"{where}: dict key {k!r} is not a string; it has no "
                    "canonical JSON form"
                )
            _require_canonical(v, where)
        return
    raise TypeError(
        f"{where}: {type(value).__name__} value has no canonical JSON form"
    )


def _canonical_json(payload: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace, plain values only.

    Raises ``TypeError`` for values without a canonical JSON form
    (callables, ledgers, pre-built engines/streams...) -- the caller
    treats such problems as unfingerprintable rather than guessing.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_fingerprint(config: SolverConfig) -> str:
    """Canonical content hash of a :class:`SolverConfig` (hex sha256).

    Two configs hash equal iff every field (including ``seed``) is
    equal; any field change -- ``eps``, ``p``, the step constants --
    changes the hash.  Companion of :meth:`Graph.fingerprint` for the
    :mod:`repro.service` result cache.
    """
    blob = _canonical_json(asdict(config))
    return hashlib.sha256(b"repro-config-v1" + blob.encode()).hexdigest()


# ======================================================================
# Problem specification
# ======================================================================
@dataclass
class ModelBudgets:
    """Per-model resource budgets (the knobs the paper's O() bounds cap).

    Attributes
    ----------
    reducer_memory_words:
        MapReduce per-reducer memory budget in words
        (``None`` = unlimited; the paper's budget is ``O(n^{1+1/p})``).
        Exceeding it raises
        :class:`~repro.mapreduce.engine.ReducerMemoryExceeded`.
    clique_message_words:
        Congested-clique per-vertex outgoing words per round
        (``None`` = unlimited; the paper's budget is ``O(n^{1/p})``).
        Exceeding it raises
        :class:`~repro.mapreduce.clique_sim.MessageBudgetExceeded`.
    max_rounds:
        Cap on auction bid sweeps (``baseline:auction``).
    max_epochs:
        Cap on augmentation epochs (``baseline:mcgregor``).
    """

    reducer_memory_words: int | None = None
    clique_message_words: int | None = None
    max_rounds: int | None = None
    max_epochs: int | None = None


@dataclass
class Problem:
    """Declarative problem spec consumed by every backend.

    Attributes
    ----------
    graph:
        The weighted instance (``graph.b`` carries capacities).  The
        streaming backends treat it as an input-order edge stream.
    config:
        Solver tunables shared across backends: ``eps`` is every
        backend's approximation knob, ``p`` the space/round trade,
        ``seed`` the RNG seed.  Backend-irrelevant fields are ignored
        by backends that do not use them.
    task:
        ``"matching"`` (default) or ``"spanning_forest"``.
    budgets:
        Per-model resource budgets (:class:`ModelBudgets`).
    options:
        Escape hatch for backend-specific extras (documented per
        backend, e.g. ``gamma`` for ``baseline:one_pass``, ``base`` for
        ``baseline:lattanzi``, ``ledger`` to account into an external
        :class:`~repro.util.instrumentation.ResourceLedger`).
    """

    graph: Graph
    config: SolverConfig = field(default_factory=SolverConfig)
    task: str = "matching"
    budgets: ModelBudgets = field(default_factory=ModelBudgets)
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.graph, Graph):
            raise TypeError(
                f"Problem.graph must be a repro Graph, got {type(self.graph).__name__}"
            )
        if self.task not in TASKS:
            raise ProblemMismatch(
                f"unknown task {self.task!r}; available tasks: {', '.join(TASKS)}"
            )

    # Convenience accessors used by several backends -------------------
    @property
    def seed(self):
        """Effective seed: ``options['seed']`` (an int or a
        ``numpy.random.Generator``) falling back to ``config.seed``."""
        return self.options.get("seed", self.config.seed)

    def external_ledger(self) -> ResourceLedger | None:
        """Caller-supplied ledger to account into, if any."""
        ledger = self.options.get("ledger")
        if ledger is not None and not isinstance(ledger, ResourceLedger):
            raise TypeError("options['ledger'] must be a ResourceLedger")
        return ledger

    def fingerprint(self) -> str:
        """Canonical content hash of the whole problem (hex sha256).

        Combines :meth:`Graph.fingerprint` with the canonical JSON of
        the config, task, budgets and options, so two problems hash
        equal iff a backend cannot distinguish them.  The
        :mod:`repro.service` result cache and shard router key on this
        (prefixed with the backend name).

        Raises
        ------
        TypeError
            When ``options`` holds values without a canonical JSON form
            (an external ledger, a pre-built engine or stream).  Such
            problems are not content-addressable; the service bypasses
            its cache for them instead of mis-keying.
        """
        # config/budgets are flat scalar dataclasses (canonical by
        # construction); options are caller-controlled and must not be
        # silently coerced into a colliding address
        _require_canonical(self.options, "Problem.options")
        blob = _canonical_json(
            {
                "task": self.task,
                "config": asdict(self.config),
                "budgets": asdict(self.budgets),
                "options": self.options,
            }
        )
        h = hashlib.sha256()
        h.update(b"repro-problem-v1")
        h.update(self.graph.fingerprint().encode())
        h.update(blob.encode())
        return h.hexdigest()

    @classmethod
    def from_edge_file(
        cls,
        path,
        config: SolverConfig | None = None,
        task: str = "matching",
        budgets: "ModelBudgets | None" = None,
        options: dict[str, Any] | None = None,
        chunk_edges: int | None = None,
        materialize: bool = False,
        materialize_policy: str = "warn",
    ) -> "Problem":
        """Build a problem over an on-disk ``.edges`` file.

        The graph is a lazy
        :class:`~repro.ingest.filegraph.FileBackedGraph`: the matching
        backends and the ``semi_streaming`` spanning forest consume it
        in O(chunk)-memory passes straight from disk, never
        materializing the edge list.  Whole-column loads elsewhere are
        governed by ``materialize_policy`` ("allow" | "warn" |
        "forbid"; ``materialize=True`` forces an eager load under that
        policy).  The problem fingerprint streams from the file too --
        it equals the fingerprint of the identical in-RAM problem, so
        file-backed and RAM-backed submissions share one service-cache
        content address.  ``chunk_edges`` (default 65536) is the one
        chunk setting of every pass and scan over the file (a runtime
        knob, not part of the instance: it is deliberately *not* folded
        into ``options``).
        """
        from repro.ingest import DEFAULT_CHUNK_EDGES, FileBackedGraph

        graph = FileBackedGraph(
            path,
            chunk_edges=chunk_edges or DEFAULT_CHUNK_EDGES,
            materialize_policy=materialize_policy,
        )
        if materialize:
            graph.materialize()
        return cls(
            graph=graph,
            config=config if config is not None else SolverConfig(),
            task=task,
            budgets=budgets if budgets is not None else ModelBudgets(),
            options=dict(options or {}),
        )


# ======================================================================
# Unified result
# ======================================================================
@dataclass
class RunLedger:
    """Normalized resource ledger shared by every backend.

    The universal fields mirror
    :meth:`~repro.util.instrumentation.ResourceLedger.snapshot`; the
    model-specific fields are ``None`` when the model has no such
    resource (a ``passes`` entry only makes sense for streaming, a
    reducer high-water mark only for MapReduce, message words only for
    the congested clique).
    """

    model: str
    rounds: int = 0
    refinement_steps: int = 0
    oracle_calls: int = 0
    peak_central_space: int = 0
    shuffle_words: int = 0
    edges_streamed: int = 0
    passes: int | None = None
    reducer_peak_words: int | None = None
    clique_total_words: int | None = None
    clique_max_vertex_words: int | None = None

    @classmethod
    def from_snapshot(
        cls, model: str, snapshot: dict, **overrides: Any
    ) -> "RunLedger":
        """Normalize a :meth:`ResourceLedger.snapshot` dict."""
        return cls(
            model=model,
            rounds=snapshot["sampling_rounds"],
            refinement_steps=snapshot["refinement_steps"],
            oracle_calls=snapshot["oracle_calls"],
            peak_central_space=snapshot["peak_central_space"],
            shuffle_words=snapshot["shuffle_words"],
            edges_streamed=snapshot["edges_streamed"],
            **overrides,
        )

    @classmethod
    def from_resource_ledger(
        cls, model: str, ledger: ResourceLedger, **overrides: Any
    ) -> "RunLedger":
        """Normalize a raw :class:`ResourceLedger`."""
        return cls.from_snapshot(model, ledger.snapshot(), **overrides)

    def as_row(self) -> dict:
        """Flat dict for experiment tables (``None`` fields omitted)."""
        row = {
            "model": self.model,
            "rounds": self.rounds,
            "refinement_steps": self.refinement_steps,
            "oracle_calls": self.oracle_calls,
            "peak_central_space": self.peak_central_space,
            "shuffle_words": self.shuffle_words,
            "edges_streamed": self.edges_streamed,
        }
        for key in (
            "passes",
            "reducer_peak_words",
            "clique_total_words",
            "clique_max_vertex_words",
        ):
            value = getattr(self, key)
            if value is not None:
                row[key] = value
        return row


@dataclass
class RunResult:
    """What :func:`run` returns, for every backend and task.

    Attributes
    ----------
    backend, task:
        Which registry entry produced this result, for which task.
    matching:
        The integral :class:`~repro.matching.structures.BMatching`
        (``None`` for non-matching tasks).
    certificate:
        Verified dual upper bound -- only backends implementing the
        paper's dual-primal algorithm produce one; baselines return
        ``None`` ("certificate when available").
    forest:
        Spanning forest edge list for ``task="spanning_forest"``.
    ledger:
        Normalized per-model resources (:class:`RunLedger`).
    raw:
        The implementation's own result object (e.g.
        :class:`~repro.core.certificates.MatchingResult`) for callers
        that need per-round ``history``.
    extras:
        Backend-specific artifacts (the
        :class:`~repro.mapreduce.engine.MapReduceEngine`, the
        :class:`~repro.mapreduce.clique_sim.CongestedClique` simulator).
    """

    backend: str
    task: str
    ledger: RunLedger
    matching: BMatching | None = None
    certificate: Certificate | None = None
    forest: list[tuple[int, int]] | None = None
    raw: Any = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def weight(self) -> float:
        """Matched weight (0.0 for non-matching tasks)."""
        return float(self.matching.weight()) if self.matching is not None else 0.0

    @property
    def certified_ratio(self) -> float | None:
        """Verified approximation-ratio lower bound, when certified."""
        if self.certificate is None:
            return None
        return self.certificate.certified_ratio(self.weight)

    def summary(self) -> dict:
        """Flat dict row for tables (the :func:`compare` row shape)."""
        row = {
            "backend": self.backend,
            "task": self.task,
            "weight": self.weight,
            "certified_ratio": self.certified_ratio,
        }
        if self.forest is not None:
            row["forest_edges"] = len(self.forest)
        row.update(self.ledger.as_row())
        return row

    def convergence(self) -> dict | None:
        """Solver-convergence summary derived from the per-round history.

        ``None`` for backends whose ``raw`` carries no ``history``
        (baselines, non-matching tasks).  Otherwise a small dict:
        ``rounds`` (sampling rounds the solve took), ``final_gap``
        (``1 - certified_ratio`` at termination, clamped to 0 --
        falls back to the last round's primal/upper-bound when no
        certificate), ``final_lambda`` (the dual covering ratio the run
        ended on), ``witness_rounds`` (rounds that found an improving
        witness), and ``oracle_calls`` from the ledger.  Derived on
        demand, never stored, so result encoding and digests are
        unaffected.
        """
        history = getattr(self.raw, "history", None)
        if not history:
            return None
        last = history[-1]
        final_gap = None
        ratio = self.certified_ratio
        if ratio is not None:
            final_gap = max(0.0, 1.0 - float(ratio))
        else:
            primal = last.get("primal")
            upper = last.get("upper_bound")
            if primal is not None and upper:
                final_gap = max(0.0, 1.0 - float(primal) / float(upper))
        return {
            "rounds": int(getattr(self.raw, "rounds", len(history))),
            "final_gap": final_gap,
            "final_lambda": last.get("lambda"),
            "witness_rounds": sum(1 for rec in history if rec.get("witness")),
            "oracle_calls": self.ledger.oracle_calls,
        }


# ======================================================================
# Registry
# ======================================================================
class BackendNotFound(LookupError):
    """Requested backend name is not registered."""


class ProblemMismatch(ValueError):
    """The problem is outside the backend's model (task or structure)."""


class Backend:
    """Base class for execution backends.

    Subclasses set ``tasks`` (the tasks they support) and implement
    :meth:`run`.  :meth:`run_many` defaults to a loop; backends with a
    genuine batch engine (offline) override it -- the contract is that
    ``run_many(problems)`` equals ``[run(p) for p in problems]`` value
    for value.

    ``batchable`` declares whether the backend has a genuine batch
    engine at all; :meth:`batch_key` refines that per problem: two
    problems may share one engine batch iff their (non-``None``) keys
    are equal.  :func:`run_many` and the :mod:`repro.service`
    micro-batcher group requests by this key; everything else is
    dispatched per request through :meth:`run`.
    """

    name: str = "?"
    tasks: tuple[str, ...] = ("matching",)
    #: Whether the backend can execute same-key problems in one batch.
    batchable: bool = False

    def check(self, problem: Problem) -> None:
        """Raise :class:`ProblemMismatch` when the problem doesn't fit."""
        if problem.task not in self.tasks:
            raise ProblemMismatch(
                f"backend {self.name!r} supports task(s) "
                f"{', '.join(self.tasks)}; problem asks for {problem.task!r}"
            )

    def batch_key(self, problem: Problem) -> Hashable | None:
        """Grouping key for batched execution (``None`` = not batchable).

        Problems with equal keys may ride one engine batch with results
        pinned equal to per-problem :meth:`run`.  The default declares
        every problem unbatchable, matching ``batchable = False``.
        """
        return None

    def run(self, problem: Problem) -> RunResult:
        raise NotImplementedError

    def run_many(self, problems: list[Problem]) -> list[RunResult]:
        return [self.run(p) for p in problems]


_REGISTRY: dict[str, Backend] = {}


def register_backend(name: str) -> Callable[[type], type]:
    """Class decorator registering a :class:`Backend` under ``name``.

    The class is instantiated once and stored in the registry; the
    decorated class itself is returned unchanged, so backends remain
    importable and subclassable.  Registering a taken name raises
    ``ValueError`` (delete from :func:`get_backend`'s registry first if
    you really mean to shadow a built-in).
    """

    def decorator(cls: type) -> type:
        if name in _REGISTRY:
            raise ValueError(f"backend {name!r} is already registered")
        if not issubclass(cls, Backend):
            raise TypeError("register_backend expects a Backend subclass")
        instance = cls()
        # name the *instance*, not the class: one class registered under
        # two names must not relabel the earlier registration
        instance.name = name
        _REGISTRY[name] = instance
        return cls

    return decorator


def backend_names() -> list[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> Backend:
    """Resolve a backend by registry name (raises :class:`BackendNotFound`)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendNotFound(
            f"unknown backend {name!r}; available: {', '.join(backend_names())}"
        ) from None


# ======================================================================
# Top-level dispatch
# ======================================================================
def run(problem: Problem, backend: str = "offline") -> RunResult:
    """Execute one :class:`Problem` on one backend.

    Parameters
    ----------
    problem:
        The declarative spec (graph + config + budgets).
    backend:
        Registry name; see :func:`backend_names`.

    Returns
    -------
    RunResult
        Unified result; exact-equal to the corresponding legacy entry
        point with the same configuration (pinned by the parity battery
        in ``tests/test_api.py``).

    Examples
    --------
    >>> from repro.util.graph import Graph
    >>> g = Graph.from_edges(2, [(0, 1)], [7.0])
    >>> run(Problem(g, config=SolverConfig(eps=0.2, seed=0))).weight
    7.0
    """
    be = get_backend(backend)
    be.check(problem)
    return be.run(problem)


def run_many(
    problems: Iterable[Problem],
    backend: str | Sequence[str] = "offline",
) -> list[RunResult]:
    """Batched :func:`run`: results equal looped ``run`` value for value.

    Parameters
    ----------
    problems:
        The request list (any mix of sizes, configs, seeds).
    backend:
        One registry name for the whole list, or one name *per problem*
        (same length as ``problems``) for mixed-backend request lists.

    Each backend receives its requests grouped (input order preserved
    in the returned list), and batchable backends further split their
    group into homogeneous sub-batches by :meth:`Backend.batch_key`:
    every sub-batch of two or more same-key offline problems rides the
    PR-2 lockstep engine, so a heterogeneous list no longer degrades to
    a pure per-item loop -- only the genuinely unbatchable remainder
    is dispatched one by one.
    """
    problems = list(problems)
    if isinstance(backend, str):
        names = [backend] * len(problems)
    else:
        names = list(backend)
        if len(names) != len(problems):
            raise ValueError(
                f"backend list has {len(names)} entries for "
                f"{len(problems)} problems; pass one name per problem "
                "(or a single shared name)"
            )
    for p, name in zip(problems, names):
        get_backend(name).check(p)
    results: list[RunResult | None] = [None] * len(problems)
    for name in dict.fromkeys(names):  # unique, first-seen order
        be = get_backend(name)
        indices = [i for i, n in enumerate(names) if n == name]
        sub = be.run_many([problems[i] for i in indices])
        if len(sub) != len(indices):
            raise RuntimeError(
                f"backend {name!r} run_many returned {len(sub)} results "
                f"for {len(indices)} problems"
            )
        for i, res in zip(indices, sub):
            results[i] = res
    return results  # type: ignore[return-value]


def compare(
    problem: Problem, backends: list[str] | None = None
) -> list[dict]:
    """Run one problem across several backends; ranked comparison table.

    Parameters
    ----------
    problem:
        The shared problem spec (every backend sees the same config).
    backends:
        Registry names to sweep; default = every registered backend
        supporting ``problem.task``.

    Returns
    -------
    list[dict]
        One row per backend, sorted by weight descending (rank 1 =
        best).  Success rows carry ``backend``, ``task``, ``weight``,
        ``certified_ratio``, ``rank`` plus the normalized ledger
        fields.  A backend whose model rejects the problem (e.g.
        ``baseline:auction`` on a nonbipartite graph) contributes an
        ``error`` row ranked last instead of aborting the sweep; the
        same holds for a backend that blows its model budget
        (``ReducerMemoryExceeded`` / ``MessageBudgetExceeded``) --
        ``weight`` and ``certified_ratio`` are ``None`` there and no
        ledger fields are present, so filter with ``"error" in row``
        before reading resource columns.
    """
    from repro.mapreduce.clique_sim import MessageBudgetExceeded
    from repro.mapreduce.engine import ReducerMemoryExceeded

    if backends is None:
        backends = [
            name
            for name in backend_names()
            if problem.task in _REGISTRY[name].tasks
        ]
    rows: list[dict] = []
    failed: list[dict] = []
    for name in backends:
        try:
            # run() performs the backend's check; no separate pre-check
            # (AuctionBackend's bipartiteness scan is O(n + m) per call)
            rows.append(run(problem, backend=name).summary())
        except (ProblemMismatch, ReducerMemoryExceeded, MessageBudgetExceeded) as exc:
            failed.append(
                {
                    "backend": name,
                    "task": problem.task,
                    "weight": None,
                    "certified_ratio": None,
                    "error": str(exc),
                }
            )
    rows.sort(key=lambda r: -r["weight"])
    for rank, row in enumerate(rows + failed, start=1):
        row["rank"] = rank
    return rows + failed


# ======================================================================
# Model backends: the dual-primal solver in its execution bindings
# ======================================================================
def _matching_run_result(
    backend: str, result: MatchingResult, ledger: RunLedger
) -> RunResult:
    return RunResult(
        backend=backend,
        task="matching",
        matching=result.matching,
        certificate=result.certificate,
        ledger=ledger,
        raw=result,
    )


def _config_key(cfg: SolverConfig) -> SolverConfig:
    """Config with the seed field neutralized (batch-homogeneity key)."""
    return replace(cfg, seed=None)


@register_backend("offline")
class OfflineBackend(Backend):
    """Theorem 15 dual-primal solver under offline sampled access.

    ``run`` is :meth:`DualPrimalMatchingSolver.solve`.  ``run_many``
    groups its input by :meth:`batch_key` into homogeneous sub-batches
    (same config up to the per-problem seed, default budgets, no
    options) and hands each sub-batch to one call of the lockstep
    engine; the unbatchable remainder loops over ``run``.  Input order
    is preserved.
    """

    tasks = ("matching",)
    batchable = True

    def batch_key(self, problem: Problem) -> Hashable | None:
        if problem.budgets != ModelBudgets() or problem.options:
            return None
        if getattr(problem.graph, "is_materialized", True) is False:
            # unmaterialized file-backed problems run one at a time on
            # the streaming chain (see run): the offline chain would
            # materialize them
            return None
        # SolverConfig is flat scalars, so the seed-neutralized field
        # tuple is a hashable stand-in for the config itself
        return astuple(_config_key(problem.config))

    def run(self, problem: Problem) -> RunResult:
        if getattr(problem.graph, "is_materialized", True) is False:
            # The offline chain needs NI indices over the *full* edge
            # topology up front (connectivity_sampling_probs), which
            # would silently materialize the columns.  The streaming
            # chain collects the same kind of deferred samples in
            # O(chunk)-resident passes, so file-backed problems are
            # routed there -- same solver, different (and disk-safe)
            # chain construction.
            from repro.streaming.streaming_matching import (
                SemiStreamingMatchingSolver,
            )

            solver = SemiStreamingMatchingSolver(problem.config)
            result = solver.solve(problem.graph)
            ledger = RunLedger.from_snapshot("offline", result.resources)
            return _matching_run_result("offline", result, ledger)
        result = DualPrimalMatchingSolver(problem.config).solve(problem.graph)
        ledger = RunLedger.from_snapshot("offline", result.resources)
        return _matching_run_result("offline", result, ledger)

    def run_many(self, problems: list[Problem]) -> list[RunResult]:
        groups: dict[Hashable, list[int]] = {}
        singles: list[int] = []
        for i, p in enumerate(problems):
            key = self.batch_key(p)
            if key is None:
                singles.append(i)
            else:
                groups.setdefault(key, []).append(i)
        results: list[RunResult | None] = [None] * len(problems)
        for indices in groups.values():
            solver = DualPrimalMatchingSolver(
                _config_key(problems[indices[0]].config)
            )
            batch = solver.solve_many(
                [problems[i].graph for i in indices],
                seeds=[problems[i].config.seed for i in indices],
            )
            for i, res in zip(indices, batch):
                results[i] = _matching_run_result(
                    "offline", res, RunLedger.from_snapshot("offline", res.resources)
                )
        for i in singles:
            results[i] = self.run(problems[i])
        return results  # type: ignore[return-value]


@register_backend("semi_streaming")
class SemiStreamingBackend(Backend):
    """The same solver with chain construction bound to stream passes.

    The normalized ledger's ``passes`` field counts actual passes over the edge stream
    (audited by the stream itself).

    ``task="spanning_forest"`` runs the sketch-Boruvka forest as a
    genuine streaming computation over an
    :class:`~repro.streaming.stream.EdgeStream`: a file-backed problem
    (:meth:`Problem.from_edge_file`) is consumed in O(chunk)-memory
    passes straight from disk, never materializing the edge list.  The
    graph decides the chunking (the file's ``chunk_edges``, 65536
    edges in RAM).  Options: ``rows_per_pass`` (sketch rows built per
    pass -- trades extra passes for an
    ``O(n * rows_per_pass * log n)``-word resident sketch instead of
    the full tensor), ``repetitions`` (ℓ0 repetitions, default 8, at
    least 1).  The decoded forest is bit-identical for any
    chunking/pass split (linearity; pinned by ``tests/test_ingest.py``).
    """

    tasks = ("matching", "spanning_forest")

    def run(self, problem: Problem) -> RunResult:
        if problem.task == "spanning_forest":
            return self._run_forest(problem)
        from repro.streaming.streaming_matching import SemiStreamingMatchingSolver

        solver = SemiStreamingMatchingSolver(problem.config)
        result = solver.solve(problem.graph)
        ledger = RunLedger.from_snapshot(
            "semi_streaming", result.resources, passes=solver.passes
        )
        return _matching_run_result("semi_streaming", result, ledger)

    def _run_forest(self, problem: Problem) -> RunResult:
        from repro.streaming.semi_streaming import stream_spanning_forest
        from repro.streaming.stream import EdgeStream

        ledger = problem.external_ledger() or ResourceLedger()
        opts = problem.options
        stream = EdgeStream(problem.graph, ledger=ledger)
        forest = stream_spanning_forest(
            stream,
            seed=problem.seed,
            ledger=ledger,
            repetitions=opts.get("repetitions", 8),
            rows_per_pass=opts.get("rows_per_pass"),
        )
        run_ledger = RunLedger.from_resource_ledger(
            "semi_streaming", ledger, passes=stream.passes
        )
        return RunResult(
            backend="semi_streaming",
            task="spanning_forest",
            forest=forest,
            ledger=run_ledger,
            raw=forest,
        )


@register_backend("mapreduce")
class MapReduceBackend(Backend):
    """Section 4.2 two-round sketch pipeline + central Boruvka.

    Runs :func:`~repro.mapreduce.jobs.mapreduce_spanning_forest_impl`
    on a :class:`~repro.mapreduce.engine.MapReduceEngine` constructed
    from ``budgets.reducer_memory_words`` (or passed pre-built via
    ``options['engine']``) and returned in ``extras['engine']``.
    """

    tasks = ("spanning_forest",)

    def run(self, problem: Problem) -> RunResult:
        from repro.mapreduce.engine import MapReduceEngine
        from repro.mapreduce.jobs import mapreduce_spanning_forest_impl

        engine = problem.options.get("engine")
        if engine is None:
            engine = MapReduceEngine(
                reducer_memory_budget=problem.budgets.reducer_memory_words
            )
        forest = mapreduce_spanning_forest_impl(
            engine, problem.graph, seed=problem.seed
        )
        ledger = RunLedger.from_resource_ledger(
            "mapreduce",
            engine.ledger,
            reducer_peak_words=engine.ledger.central_space.peak,
        )
        return RunResult(
            backend="mapreduce",
            task="spanning_forest",
            forest=forest,
            ledger=ledger,
            raw=forest,
            extras={"engine": engine},
        )


@register_backend("congested_clique")
class CongestedCliqueBackend(Backend):
    """Sketch-shipping spanning forest on the congested-clique simulator.

    The per-vertex outgoing budget comes from ``budgets.clique_message_words``; the
    simulator (rounds / word counters) is returned in
    ``extras['clique']``.  ``options['leader']`` overrides the
    collecting vertex (default 0).
    """

    tasks = ("spanning_forest",)

    def run(self, problem: Problem) -> RunResult:
        from repro.mapreduce.clique_sim import clique_spanning_forest_impl

        forest, clique = clique_spanning_forest_impl(
            problem.graph,
            message_budget=problem.budgets.clique_message_words,
            seed=problem.seed,
            leader=problem.options.get("leader", 0),
        )
        ledger = RunLedger(
            model="congested_clique",
            rounds=clique.rounds,
            clique_total_words=clique.total_words,
            clique_max_vertex_words=clique.max_vertex_words,
        )
        return RunResult(
            backend="congested_clique",
            task="spanning_forest",
            forest=forest,
            ledger=ledger,
            raw=(forest, clique),
            extras={"clique": clique},
        )


# ======================================================================
# Baseline backends: the algorithms the paper compares against
# ======================================================================
class _BaselineBackend(Backend):
    """Shared shape: run the baseline impl, normalize its ledger."""

    tasks = ("matching",)

    def _ledger(self, problem: Problem) -> ResourceLedger:
        return problem.external_ledger() or ResourceLedger()

    def _result(
        self, matching: BMatching, ledger: ResourceLedger
    ) -> RunResult:
        run_ledger = RunLedger.from_resource_ledger(
            self.name, ledger, passes=ledger.sampling_rounds
        )
        return RunResult(
            backend=self.name,
            task="matching",
            matching=matching,
            certificate=None,
            ledger=run_ledger,
            raw=matching,
        )


@register_backend("baseline:auction")
class AuctionBackend(_BaselineBackend):
    """Bertsekas auction for bipartite maximum-weight matching.

    Pass-based baseline: one bid sweep = one pass; ``config.eps`` (or
    ``options['eps']``) sets the bid increment, ``budgets.max_rounds``
    caps sweeps.  Bipartite graphs only -- a nonbipartite problem is a
    :class:`ProblemMismatch`.
    """

    def run(self, problem: Problem) -> RunResult:
        # one O(n + m) bipartiteness scan per run: the 2-coloring doubles
        # as the model check and the impl's side masks
        sides = bipartite_sides(problem.graph)
        if sides is None:
            raise ProblemMismatch(
                "backend 'baseline:auction' requires a bipartite graph "
                "(an odd cycle was found)"
            )
        ledger = self._ledger(problem)
        matching = auction_backend_run(
            problem.graph,
            eps=problem.options.get("eps", problem.config.eps),
            ledger=ledger,
            max_rounds=problem.budgets.max_rounds,
            sides=sides,
        )
        return self._result(matching, ledger)


@register_backend("baseline:mcgregor")
class McGregorBackend(_BaselineBackend):
    """McGregor-style augmentation-epoch streaming matching ([29])."""

    def run(self, problem: Problem) -> RunResult:
        ledger = self._ledger(problem)
        matching = mcgregor_backend_run(
            problem.graph,
            eps=problem.options.get("eps", problem.config.eps),
            seed=problem.seed,
            ledger=ledger,
            max_epochs=problem.budgets.max_epochs,
        )
        return self._result(matching, ledger)


@register_backend("baseline:lattanzi")
class LattanziBackend(_BaselineBackend):
    """Lattanzi et al. filtering ([25]): O(1)-approximation, O(p) rounds.

    ``config.p`` sets the space/round trade (``options['p']`` overrides
    it without ``SolverConfig``'s ``p > 1`` solver-domain validation);
    ``options['base']`` the weight-class base (default 2.0);
    ``options['weighted']=False`` selects the unweighted
    maximal-matching core.
    """

    def run(self, problem: Problem) -> RunResult:
        ledger = self._ledger(problem)
        matching = lattanzi_backend_run(
            problem.graph,
            p=problem.options.get("p", problem.config.p),
            seed=problem.seed,
            ledger=ledger,
            base=problem.options.get("base", 2.0),
            weighted=problem.options.get("weighted", True),
        )
        return self._result(matching, ledger)


@register_backend("baseline:one_pass")
class OnePassBackend(_BaselineBackend):
    """One-pass gamma-charging weighted matching ([16]/[29]).

    ``options['gamma']`` overrides the charging threshold (default
    ``1/sqrt(2)``, McGregor's tuning).  Ledger precedence: an explicit
    ``options['ledger']`` always receives this run's charges (borrowed
    onto the stream for the duration, then detached); otherwise a
    pre-built ``options['stream']``'s own ledger is used -- note that
    one keeps EdgeStream semantics and *accumulates* across runs of the
    same stream; otherwise a fresh per-run ledger.
    """

    def run(self, problem: Problem) -> RunResult:
        stream = problem.options.get("stream")
        ledger = problem.external_ledger()
        if ledger is None and stream is not None and stream.ledger is not None:
            # caller-owned accounting sink (cumulative by EdgeStream
            # semantics); normalize from it so passes/space stay visible
            ledger = stream.ledger
        if ledger is None:
            ledger = ResourceLedger()
        matching = one_pass_backend_run(
            stream if stream is not None else problem.graph,
            gamma=problem.options.get("gamma", 2.0**-0.5),
            ledger=ledger,
        )
        return self._result(matching, ledger)


# ======================================================================
# Dynamic (turnstile update-log) backend
# ======================================================================
# Imported last: repro.dynamic builds on the registry machinery above
# (Backend, register_backend, RunResult), so the registration import
# must run after this module body is complete.
from repro.dynamic.backend import DynamicBackend  # noqa: E402,F401  (registers "dynamic")
