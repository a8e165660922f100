"""repro: dual-primal algorithms for maximum matching under resource constraints.

A full reproduction of Ahn & Guha (SPAA 2015): a (1-eps)-approximation
scheme for weighted nonbipartite b-matching using O(p/eps) rounds of
adaptive sketching and O(n^{1+1/p}) central space, together with every
substrate it stands on -- linear sketches, deferred cut-sparsifiers, a
simulated MapReduce/semi-streaming execution layer, penalty LP
relaxations, and the baselines it is compared against.

Public entry points
-------------------
``run(Problem(graph, config=SolverConfig(...)), backend=...)``
    The unified facade: one call dispatches any model of computation --
    ``"offline"``, ``"semi_streaming"``, ``"mapreduce"``,
    ``"congested_clique"`` -- or any baseline (``"baseline:auction"``,
    ``"baseline:mcgregor"``, ``"baseline:lattanzi"``,
    ``"baseline:one_pass"``) and returns a unified ``RunResult``.
``run_many(problems, backend=...)``
    Batched facade; homogeneous offline batches ride the lockstep batch
    engine (identical results, several-fold per-instance throughput).
``compare(problem, backends=[...])``
    One problem across many backends; ranked
    weight/certified-ratio/resources table.
``MatchingService`` (``repro.service``)
    In-process serving layer: concurrent submissions coalesced into
    lockstep batches, content-addressed result caching, sharded
    workers, latency/occupancy/cache metrics (docs/service.md).
``DynamicGraphSession`` (``repro.dynamic``)
    Dynamic turnstile workload: interleave edge inserts/deletes with
    matching/forest queries at any time -- linear sketch state is
    maintained incrementally and solves can be warm-started from the
    previous query's verified duals (docs/dynamic.md).  The ``dynamic``
    backend runs update-log problems through the facade.
``DualPrimalMatchingSolver`` / ``SolverConfig``
    The configurable solver (rounds/space/offline-oracle knobs);
    ``solve`` and the batched ``solve_many`` run the same lockstep
    engine.
``Graph``
    The numpy edge-array graph type everything operates on.
``Problem.from_edge_file`` / ``FileBackedGraph`` (``repro.ingest``)
    Out-of-core ingestion: graphs live on disk in the binary
    ``.edges`` format and the semi-streaming forest pipeline runs
    against them in O(chunk + sketch-block) memory, bit-identical to
    the in-RAM path (docs/ingest.md).

The pre-facade entry points (``solve_matching``, ``solve_many``, the
baseline and forest-protocol functions) were removed in 1.5.0; see the
removal note in docs/api.md.

See README.md for a guided tour and docs/architecture.md for the map
from paper sections to modules.
"""

from repro.core import DualPrimalMatchingSolver, MatchingResult, SolverConfig
from repro.matching import BMatching
from repro.util import Graph
from repro.api import (
    Backend,
    BackendNotFound,
    ModelBudgets,
    Problem,
    ProblemMismatch,
    RunLedger,
    RunResult,
    backend_names,
    compare,
    config_fingerprint,
    get_backend,
    register_backend,
    run,
    run_many,
)
from repro.dynamic import DynamicGraphSession
from repro.ingest import FileBackedGraph
from repro.service import MatchingService, ServiceStats

__version__ = "1.21.0"

__all__ = [
    "Graph",
    "BMatching",
    "Problem",
    "ModelBudgets",
    "RunLedger",
    "RunResult",
    "Backend",
    "BackendNotFound",
    "ProblemMismatch",
    "run",
    "run_many",
    "compare",
    "config_fingerprint",
    "register_backend",
    "backend_names",
    "get_backend",
    "MatchingService",
    "ServiceStats",
    "DynamicGraphSession",
    "FileBackedGraph",
    "DualPrimalMatchingSolver",
    "SolverConfig",
    "MatchingResult",
    "__version__",
]
