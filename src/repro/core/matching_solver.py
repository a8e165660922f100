"""The headline solver: Algorithms 1 and 2 for weighted nonbipartite
b-matching under resource constraints (Theorem 15).

One outer round = one *adaptive sampling round* (the O(p/eps) resource):

1. Evaluate the exponential multipliers ``u`` of the covering framework
   on the current dual (Corollary 6's formula).
2. Build a chain of ``O(eps^-1 log gamma)`` deferred u-sparsifiers with
   promise slack ``gamma = n^{1/(2p)}`` -- a single access to the data.
3. Harvest the primal: run the offline (1 - a3)-approximate b-matching
   on the union of stored edges (Algorithm 2, step 5); ratchet ``beta``
   when the sample's matching beats the current budget.
4. Spend the chain: refine each deferred sparsifier with the *current*
   multipliers (valid while the drift stays within gamma), and for each
   refinement run inner dual steps -- packing multipliers ``zeta`` over
   the Po box, Lemma 10's Lagrangian search around the MicroOracle, and
   the covering blend ``x <- (1-sigma) x + sigma x̃``.  A witness from
   the oracle aborts the inner loop (the sample provably holds a large
   matching; the primal side of this round already captured it).
5. Stop when the verified certificate shows the matching is within the
   target, when ``lambda >= 1 - 3 eps`` (dual converged), or at the
   O(p/eps) round cap.

Execution: every solve runs on one lockstep engine (:class:`_BatchEngine`).
Each instance is a small state machine stepping through the rounds
above; what the engine batches is the elementwise array math of
concurrent inner steps (see :mod:`repro.core.batch` for the parity
rules).  :meth:`DualPrimalMatchingSolver.solve` is the engine at batch
size one, so ``solve_many`` results equal looped ``solve`` value for
value.

Fidelity note: the width/step constants (``alpha``, ``sigma``) follow
Theorem 5/Corollary 6; ``step_scale`` (default > 1) accelerates the
blend beyond the worst-case-safe constant, which DESIGN.md records as a
tuning substitution -- with ``faithful=True`` the exact constants are
used.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.core.batch import DualBatch, GraphBatch, StoredBatchLayout
from repro.core.certificates import Certificate, MatchingResult, certify
from repro.core.initial import build_initial_solution
from repro.core.lagrangian import LagrangianState
from repro.core.levels import LevelDecomposition, discretize
from repro.core.micro_oracle import (
    BatchMicroContext,
    OracleDualStep,
    OracleWitness,
    # unused here: perfbench's LayerTracer wraps micro_oracle under
    # this module's name and needs it importable
    micro_oracle,
)
from repro.core.relaxations import (
    PENALTY_WIDTH_BOUND,
    LayeredDual,
    blend_z_dicts,
    z_cover_add,
)
from repro.kernels import OracleCells, OracleScratch
from repro.kernels import blend as _k_blend
from repro.kernels import gather_add2 as _k_gather_add2
from repro.kernels import tick_pack_arg as _k_tick_pack_arg
from repro.kernels import tick_pack_post as _k_tick_pack_post
from repro.kernels import tick_stored_post as _k_tick_stored_post
from repro.kernels import tick_stored_shift as _k_tick_stored_shift
from repro.kernels import width_box as _k_width_box
from repro.core.witness import _rescaled_weight, extract_witness_matching
from repro.matching.augmenting import local_search_matching
from repro.matching.exact import max_weight_bmatching_exact
from repro.matching.maximal import saturating_scan, summed_bmatching
from repro.matching.structures import BMatching
from repro.sparsify.deferred import DeferredSparsifierChain
from repro.util.graph import Graph, edge_key
from repro.util.instrumentation import ResourceLedger
from repro.util.rng import make_rng
from repro.util.validation import check_epsilon

__all__ = [
    "SolverConfig",
    "WarmStart",
    "DualPrimalMatchingSolver",
]


def _empty_result(graph: Graph, ledger: ResourceLedger) -> MatchingResult:
    """Trivial result for an edgeless instance (shared by solve/solve_many)."""
    empty = BMatching.empty(graph)
    cert = Certificate(
        upper_bound=0.0,
        lambda_min=1.0,
        dual_objective_rescaled=0.0,
        scale_factor=1.0,
        x=np.zeros(graph.n),
        z={},
    )
    return MatchingResult(
        matching=empty,
        certificate=cert,
        rounds=0,
        lambda_min=1.0,
        beta_final=0.0,
        resources=ledger.snapshot(),
    )


def _combine_steps(
    a: OracleDualStep, b: OracleDualStep, s1: float, s2: float
) -> OracleDualStep:
    """Convex combination ``s1 a + s2 b`` of two oracle steps (Lemma 10)."""
    mixed = a.dual.copy()
    mixed.x *= s1
    for key in list(mixed.z):
        mixed.z[key] *= s1
    other = b.dual
    mixed.x += s2 * other.x
    for key, v in other.z.items():
        mixed.z[key] = mixed.z.get(key, 0.0) + s2 * v
    return OracleDualStep(
        dual=mixed, route=a.route if s1 >= s2 else b.route, gamma=a.gamma
    )


class _RoundPromise:
    """The promise vector of one sampling round, evaluated on request.

    ``promise[edge_ids]`` is Corollary 6's multiplier of each requested
    edge under the round-start dual: ``exp(-alpha (r_e - lambda)) /
    ŵ_k`` with the exponent clipped to ``[0, 60]``, where ``r_e`` is the
    edge's coverage ratio and ``lambda`` the round-start minimum ratio;
    dropped edges get 0.  Values are computed per request from the level
    array and the dual, so a chain that asks one stream chunk at a time
    holds O(chunk) promise values and the promise costs no extra pass
    over the data.  The dual must not change while the chain is built.
    """

    def __init__(
        self, levels: LevelDecomposition, dual: LayeredDual, alpha: float, lam: float
    ):
        self._levels = levels
        self._dual = dual
        self._alpha = float(alpha)
        self._lam = float(lam)
        self._wk = np.asarray(
            levels.level_weight(np.arange(levels.num_levels, dtype=np.int64))
        )

    def __getitem__(self, edge_ids: np.ndarray) -> np.ndarray:
        lv = self._levels
        g = lv.graph
        ids = np.asarray(edge_ids, dtype=np.int64)
        k = lv.level[ids]
        livemask = k >= 0
        out = np.zeros(len(ids), dtype=np.float64)
        if not livemask.any():
            return out
        idl = ids[livemask]
        kl = k[livemask]
        x = self._dual.x
        src, dst = np.asarray(g.src[idl]), np.asarray(g.dst[idl])
        cov = x[src, kl] + x[dst, kl]
        if self._dual.z:
            cov = z_cover_add(g.n, src, dst, kl, self._dual.z, cov)
        ratios = cov / self._wk[kl]
        shifted = self._alpha * (ratios - self._lam)
        np.clip(shifted, 0.0, 60.0, out=shifted)
        out[livemask] = np.exp(-shifted) / self._wk[kl]
        return out


@dataclass
class SolverConfig:
    """Tunables of the dual-primal solver.

    Attributes
    ----------
    eps:
        Target approximation parameter (Theorem 15 gives 1 - O(eps)).
    p:
        Space/round tradeoff: central space ~ n^{1+1/p}, rounds ~ p/eps.
    chain_count:
        Deferred sparsifiers per round (defaults to ceil(ln gamma) with
        gamma = n^{1/(2p)}, floored at 2).
    inner_steps:
        Total dual (covering) steps per outer round, spread across the
        refined chain.  This is the *use-time* adaptivity the deferral
        buys: the paper allows O(eps^-2 log n) of these per sampling
        round.  ``None`` = auto budget ``ceil(2 ln(m/eps) / eps^2)``
        capped at ``inner_step_cap``.
    inner_step_cap:
        Hard cap on the auto inner budget (runtime guard).
    offline:
        "exact" (blossom / vertex-splitting) or "local" (greedy + 2-opt)
        offline subroutine for the sampled union.
    odd_sets:
        Enable the odd-set route of the MicroOracle ("auto" enables it
        whenever n >= 3; the bipartite instantiation can switch it off).
    step_scale:
        Multiplier on the covering step sigma (1.0 = faithful constants).
    faithful:
        Force all Theorem 5/7 constants (slower; used by fidelity tests).
    round_cap_factor:
        Outer rounds are capped at ``ceil(factor * p / eps)``.
    """

    eps: float = 0.1
    p: float = 2.0
    chain_count: int | None = None
    inner_steps: int | None = None
    inner_step_cap: int = 3000
    offline: str = "exact"
    odd_sets: str | bool = "auto"
    step_scale: float = 8.0
    faithful: bool = False
    round_cap_factor: float = 3.0
    seed: int | None = None
    target_gap: float | None = None  # stop when certified ratio >= 1 - gap

    def __post_init__(self) -> None:
        check_epsilon(self.eps)
        if self.p <= 1.0:
            raise ValueError("p must exceed 1 (space n^{1+1/p})")
        if self.offline not in ("exact", "local"):
            raise ValueError("offline must be 'exact' or 'local'")
        if self.faithful:
            self.step_scale = 1.0


@dataclass
class WarmStart:
    """Dual/primal carry-over from a previous solve on a *nearby* graph.

    The dynamic-session workload solves a slowly drifting instance over
    and over; restarting the covering framework from zero wastes the
    information the previous solve already paid for.  A ``WarmStart``
    carries the two reusable artifacts:

    Attributes
    ----------
    x:
        Per-vertex dual costs in *original* weight units -- a verified
        LP2-feasible point on the previous graph (the certificate's
        ``x`` vector).  Lifted into the new level decomposition it
        covers every surviving edge, so only edges touched by the edit
        burst can pull ``lambda`` below 1.
    pairs:
        The previous matching as ``(u, v, multiplicity)`` triples;
        surviving pairs are folded back in as the primal incumbent.

    Semantics: a warm start never changes *what* the solver guarantees
    -- the certificate of the returned result is re-verified edge by
    edge against the new graph -- but a warm-started solve is not
    bit-identical to a cold one (it may terminate with ``rounds=0``
    when the lifted dual already certifies the folded matching within
    ``target_gap``).  Callers that need bit-parity with the offline
    backend must solve cold (see ``docs/dynamic.md``).
    """

    x: np.ndarray
    pairs: list[tuple[int, int, int]]

    @classmethod
    def from_result(cls, result: MatchingResult) -> "WarmStart":
        """Extract the carry-over from a previous :class:`MatchingResult`.

        Uses the certificate's *raw* collapsed dual (``dual_x``), not
        the verified/rescaled vector: the rescale factor and dropped-
        edge padding would compound generation over generation and sink
        the certified ratio of every warm descendant.
        """
        m = result.matching
        g = m.graph
        pairs = [
            (int(g.src[e]), int(g.dst[e]), int(mult))
            for e, mult in zip(m.edge_ids, m.multiplicity)
        ]
        cert = result.certificate
        x = cert.dual_x if cert.dual_x is not None else cert.x
        return cls(x=np.asarray(x, dtype=np.float64).copy(), pairs=pairs)

    def fold_matching(self, graph: Graph) -> BMatching:
        """Surviving previous-matching edges as a b-matching on ``graph``.

        Pairs whose edge no longer exists are dropped; multiplicities
        are clipped to the remaining vertex capacities in deterministic
        (canonical edge key) order, so the result is always feasible.
        """
        if graph.m == 0:
            return BMatching.empty(graph)
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 3)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        ok = (lo >= 0) & (lo < hi) & (hi < graph.n)
        want = edge_key(lo[ok], hi[ok], graph.n)
        first = np.argsort(want, kind="stable")
        want, cap = want[first], pairs[ok, 2][first]
        keys = graph.edge_keys()
        by_key = np.argsort(keys, kind="stable")
        at = by_key[np.minimum(np.searchsorted(keys[by_key], want), graph.m - 1)]
        hit = keys[at] == want
        ids = at[hit]
        left = graph.b.tolist()
        pos, takes = saturating_scan(graph.src[ids], graph.dst[ids], left, cap[hit])
        return summed_bmatching(graph, ids[pos], takes)


class DualPrimalMatchingSolver:
    """Resource-constrained (1 - O(eps))-approximate b-matching solver."""

    def __init__(self, config: SolverConfig | None = None, **kwargs):
        if config is None:
            config = SolverConfig(**kwargs)
        elif kwargs:
            raise ValueError("pass either a config or keyword overrides, not both")
        self.config = config

    # ------------------------------------------------------------------
    def solve(
        self, graph: Graph, warm_start: WarmStart | None = None
    ) -> MatchingResult:
        """Solve one instance with Algorithms 1-2 (Theorem 15).

        Runs ``O(p / eps)`` adaptive sampling rounds; each round builds
        one deferred-sparsifier chain (a single access to the data),
        harvests the primal from the sampled union, and spends the chain
        on packing-guided dual steps around the MicroOracle.

        Parameters
        ----------
        graph:
            Weighted undirected instance; ``graph.b`` carries the
            per-vertex capacities (all ones = plain matching).  An
            edgeless graph short-circuits to an empty result.
        warm_start:
            Optional :class:`WarmStart` from a previous solve on a
            nearby graph.  The carried dual is lifted into this graph's
            level decomposition (capped at the penalty box, so it is
            always admissible) and joined with the Lemma-12 initial
            dual; surviving matched pairs seed the primal incumbent.
            If the lifted dual already *certifies* the incumbent within
            ``target_gap``, the solve returns immediately with
            ``rounds=0``.  With ``warm_start=None`` (the default) the
            trajectory is bit-identical to earlier releases.

        Returns
        -------
        MatchingResult
            The best integral b-matching found, a *verified* dual
            certificate (``certificate.upper_bound`` is checked edge by
            edge, so ``result.certified_ratio`` is a rigorous lower
            bound on the approximation ratio), per-round ``history``,
            and the resource-ledger snapshot (sampling rounds,
            refinements, oracle calls, space).

        Notes
        -----
        Deterministic given ``config.seed``.  Runs the lockstep engine
        at batch size one, so :meth:`solve_many` results equal looped
        ``solve`` value for value (``tests/test_solver_batch.py``).
        """
        engine = _BatchEngine(self, [graph], None, warm_starts=[warm_start])
        return engine.run()[0]

    # ------------------------------------------------------------------
    def _build_chain(
        self,
        graph: Graph,
        promise: _RoundPromise,
        gamma: float,
        xi: float,
        count: int,
        rng: np.random.Generator,
        ledger: ResourceLedger,
    ):
        """One sampling round's deferred chain.

        The solver's one overridable execution binding.  ``promise`` is
        the round's :class:`_RoundPromise`: ``promise[edge_ids]`` returns
        those edges' Corollary 6 multipliers.  The default evaluates it
        on every edge and samples from the in-memory edge arrays; the
        semi-streaming subclass (:class:`repro.streaming.
        streaming_matching.SemiStreamingMatchingSolver`) builds the same
        object from a single pass over an edge stream, asking for the
        promise one stream chunk at a time.  Any replacement must expose
        ``__len__``, ``__getitem__ -> {stored_edge_ids, stored_probs}``
        and ``union_edge_ids()``.
        """
        return DeferredSparsifierChain(
            graph,
            promise[np.arange(graph.m)],
            gamma=gamma,
            xi=xi,
            count=count,
            seed=rng,
            ledger=ledger,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _apply_warm_start(
        levels: LevelDecomposition, dual: LayeredDual, warm: WarmStart
    ) -> None:
        """Join the lifted previous dual into the initial dual, in place.

        The carried per-vertex costs (original units) are rescaled into
        every level and capped at ``1.5 ŵ_k`` -- the largest per-vertex
        value the penalty box ``2 x_i(k) + z-load <= 3 ŵ_k`` admits with
        ``z = 0`` -- then joined with the Lemma-12 initial dual by
        elementwise max.  Both points are box-feasible, the box is a
        per-(vertex, level) cap on ``x`` alone when ``z = 0``, and edge
        coverage is monotone in ``x``, so the join is box-feasible and
        covers at least as well as either input: every edge both graphs
        share stays covered to >= its old ratio.
        """
        x = np.asarray(warm.x, dtype=np.float64)
        n = levels.graph.n
        if x.shape != (n,):
            raise ValueError(f"warm-start x must have shape ({n},)")
        L = levels.num_levels
        wk = levels.level_weight(np.arange(L))
        lift = np.minimum(
            np.maximum(x, 0.0)[:, None] / levels.scale, 1.5 * wk[None, :]
        )
        np.maximum(dual.x, lift, out=dual.x)

    @staticmethod
    def _greedy_complete(graph: Graph, matching: BMatching) -> BMatching:
        """Extend a feasible b-matching greedily (heaviest edge first).

        The warm path's folded incumbent loses whatever the edit burst
        deleted and knows nothing about what it inserted; one O(m log m)
        greedy sweep over the remaining capacity recovers most of that
        weight before the fast-path certificate is checked.  Only adds
        edges, so feasibility and weight are monotone.
        """
        order = np.argsort(-graph.weight, kind="stable")
        left = (graph.b - matching.vertex_loads()).tolist()
        pos, takes = saturating_scan(graph.src[order], graph.dst[order], left)
        return summed_bmatching(
            graph,
            np.concatenate([matching.edge_ids, order[pos]]),
            np.concatenate([matching.multiplicity, takes]),
        )

    @staticmethod
    def _cover_patch(levels: LevelDecomposition, dual: LayeredDual) -> None:
        """Raise both endpoints of every live edge to ``0.5 ŵ_k`` at its
        level, in place.

        After the patch every live edge is covered (``lambda >= 1``)
        and every entry still respects the ``x <= 1.5 ŵ_k`` box.  Used
        on a *copy* for the warm-start fast path only: it buys an
        immediately-verifiable certificate whose cost is the objective
        increase at the touched vertices, but it is a dead end for the
        covering dynamics (coverage is already saturated), so the
        iterated solve keeps the unpatched dual.
        """
        ids = levels.live_edges()
        if len(ids) == 0:
            return
        g = levels.graph
        k = levels.level[ids]
        half = 0.5 * levels.level_weight(k)
        np.maximum.at(dual.x, (g.src[ids], k), half)
        np.maximum.at(dual.x, (g.dst[ids], k), half)

    @staticmethod
    def _incidence_mask(levels: LevelDecomposition) -> np.ndarray:
        """Boolean (n, L) mask of the (vertex, level) rows with a live edge.

        Built one edge range at a time (a boolean scatter is
        order-insensitive), so file-backed graphs never materialize and
        no O(m) live-id array is allocated.
        """
        g = levels.graph
        level = levels.level
        mask = np.zeros((g.n, levels.num_levels), dtype=bool)
        for start, stop in g.edge_ranges():
            k = level[start:stop]
            livemask = k >= 0
            if not livemask.any():
                continue
            kl = k[livemask]
            mask[np.asarray(g.src[start:stop])[livemask], kl] = True
            mask[np.asarray(g.dst[start:stop])[livemask], kl] = True
        return mask

    def _offline_match(
        self, graph: Graph, pool: np.ndarray, incumbent: BMatching
    ) -> tuple[BMatching, float, float]:
        """Offline subroutine on the sampled union (Algorithm 2, step 5).

        Returns the matching, its weight and the weight of ``incumbent``,
        whose edges are in ``pool``.  Both weights are read from the
        pool's in-RAM subgraph, in the order ``BMatching.weight`` sums
        them, so they are its bits; out of core it would gather them
        from the file.
        """
        sub = graph.edge_subgraph(pool)
        if self.config.offline == "exact":
            sub_match = max_weight_bmatching_exact(sub)
        else:
            sub_match = local_search_matching(sub)
        held = BMatching(
            sub, np.searchsorted(pool, incumbent.edge_ids), incumbent.multiplicity
        )
        return (
            BMatching(graph, pool[sub_match.edge_ids], sub_match.multiplicity),
            sub_match.weight(),
            held.weight(),
        )

    # ------------------------------------------------------------------
    # Batched solving
    # ------------------------------------------------------------------
    def solve_many(
        self,
        graphs: list[Graph],
        seeds: list[int | None] | None = None,
    ) -> list[MatchingResult]:
        """Solve a batch of instances in lockstep (see :mod:`repro.core.batch`).

        The same engine as :meth:`solve`, with every instance on its own
        RNG stream and control flow; the elementwise array math of
        concurrent inner steps executes on concatenated buffers,
        amortizing numpy dispatch overhead across the batch (measured
        per-instance speedup: ``benchmarks/BENCH_solver.json``).

        Parameters
        ----------
        graphs:
            Instances to solve.  They may be heterogeneous in size,
            weights and capacities.
        seeds:
            Optional per-instance seed overrides; entry ``i`` replaces
            ``config.seed`` for instance ``i``.

        Returns
        -------
        list[MatchingResult]
            ``results[i]`` equals ``solve(graphs[i])`` (with the same
            seed) value for value.
        """
        if seeds is not None and len(seeds) != len(graphs):
            raise ValueError("seeds must have one entry per graph")
        engine = _BatchEngine(self, graphs, seeds)
        return engine.run()


# ======================================================================
# The lockstep engine
# ======================================================================
_PHASE_ROUND_START = "round_start"
_PHASE_INNER = "inner"
_PHASE_ROUND_END = "round_end"
_PHASE_DONE = "done"

#: Relative float-safety margin of the width bound's test against
#: ``PENALTY_WIDTH_BOUND`` (the bound and the scan round differently).
_BOUND_MARGIN = 1e-9


class _InstanceState:
    """Everything one instance carries between lockstep ticks."""

    __slots__ = (
        "pos",
        "slot",
        "graph",
        "levels",
        "rng",
        "ledger",
        "m_live",
        "gamma_chain",
        "chain_count",
        "round_cap",
        "use_odd",
        "target_gap",
        "inner_budget",
        "alpha_p",
        "hik_local",
        "dual",
        "best",
        "best_w",
        "beta",
        "history",
        "rounds",
        "lam",
        "lam_edge",
        "lam_t",
        "alpha",
        "phase",
        "chain",
        "q",
        "step_in_q",
        "per_sparsifier",
        "witness_seen",
        "routes",
        "stored",
        "probs",
        "lag",
        "inner_outcome",
        "cert",
        "low_cert",
        "result",
    )


class _BatchEngine:
    """The solver's round loop, run in lockstep over one or more instances.

    Every instance is an independent little state machine stepping
    through the loop of the module docstring (round setup, offline
    harvest and certification stay per-instance -- they carry the RNG
    stream and the networkx subroutines); what is batched is the hot
    inner path: stored-edge multipliers, packing multipliers, Algorithm
    5 evaluations (via :class:`~repro.core.micro_oracle.
    BatchMicroContext`), the covering blend and the bounds below.

    Every graph, in RAM or file-backed, takes one code path, and the
    engine keeps no edge-length array.  Per-edge passes read the graph
    one edge range at a time, and an inner step makes none: the step
    width and ``lambda`` are bounded from the O(n L) tables, and the
    exact ranged scan (:meth:`LayeredDual.live_ratio_max`,
    :meth:`LayeredDual.lambda_witness`) runs only on a step whose bound
    cannot decide what the scan would (:meth:`_width_bounds`,
    :meth:`_lambda_bounds`).
    """

    def __init__(
        self,
        solver: DualPrimalMatchingSolver,
        graphs: list[Graph],
        seeds: list[int | None] | None,
        warm_starts: list[WarmStart | None] | None = None,
    ):
        self.solver = solver
        cfg = solver.config
        self.eps = cfg.eps
        self.results: list[MatchingResult | None] = [None] * len(graphs)
        self.states: list[_InstanceState] = []
        for pos, g in enumerate(graphs):
            if g.m == 0:
                self.results[pos] = _empty_result(g, ResourceLedger())
                continue
            # a None entry (or no seeds list) falls back to config.seed
            seed = seeds[pos] if seeds is not None and seeds[pos] is not None else cfg.seed
            warm = warm_starts[pos] if warm_starts is not None else None
            self.states.append(self._init_state(pos, g, seed, warm))
        self.batch = None  # the *active* sub-batch, rebuilt on membership change
        self.dualb = None
        self.members: list[_InstanceState] = []
        self.layout = None
        self._members_stale = True
        self._layout_stale = True

    # ------------------------------------------------------------------
    def _rebuild_members(self) -> None:
        """Compact the batch to the instances that are still running.

        Finished instances would otherwise keep contributing dead
        segments to every elementwise buffer: a single straggler in a
        batch of 32 would pay the whole batch's array sizes per step.
        Membership changes are rare (one per finished instance), so the
        rebuild -- reassembling the concatenated layout and re-homing the
        per-instance dual planes into a fresh compact buffer -- amortizes
        to noise.  Values are untouched: the plane contents are copied
        verbatim and every view keeps its (n_i, L_i) contiguous layout.
        """
        self.members = [st for st in self.states if st.phase != _PHASE_DONE]
        self._members_stale = False
        self._layout_stale = True
        if not self.members:
            self.batch = None
            self.dualb = None
            return
        b = GraphBatch(
            graphs=[st.graph for st in self.members],
            levels=[st.levels for st in self.members],
        )
        self.batch = b
        dualb = DualBatch(b)
        for slot, st in enumerate(self.members):
            st.slot = slot
            view = b.vl_view(dualb.x, slot)
            view[:] = st.dual.x
            dual = dualb.duals[slot]
            dual.z = st.dual.z
            st.dual = dual
            if dual.z:
                dualb.refresh_zload(slot)
        self.dualb = dualb
        # the has_ik cells of the active members (self.members is
        # non-empty here, the early return above), which are the oracle
        # kernel's candidate cells: every stored edge is live, so both
        # of its cells are has_ik cells and s lives on them too; s is
        # written only there, and zeta is zmul there and zero elsewhere
        self.cells = OracleCells(
            b, np.concatenate([b.vl_off[st.slot] + st.hik_local for st in self.members])
        )
        self.scratch = OracleScratch(b, self.cells)
        self.alpha_p = np.array([st.alpha_p for st in self.members])
        # the blend's cells: the has_ik cells, where every step lives,
        # and every cell where x is nonzero now (a vertex with b = 0 is
        # saturated at every nonempty level, so its initial dual reaches
        # levels where it has no live edge).  Only blends write x until
        # the next rebuild, so x stays zero off this list.
        self.blend_cells = OracleCells(b, self.cells.hik_idx, np.flatnonzero(dualb.x))
        self._active_flags = np.zeros(b.size, dtype=np.uint8)

    # ------------------------------------------------------------------
    def _init_state(
        self, pos: int, graph: Graph, seed, warm: WarmStart | None
    ) -> _InstanceState:
        """The pre-loop section of a solve for the instance at ``pos``."""
        cfg = self.solver.config
        eps = self.eps
        st = _InstanceState()
        st.pos = pos
        st.slot = -1
        st.graph = graph
        st.levels = levels = discretize(graph, eps)
        st.rng = make_rng(seed)
        st.ledger = ResourceLedger()

        st.gamma_chain = max(np.e, graph.n ** (1.0 / (2.0 * cfg.p)))
        chain_count = cfg.chain_count
        if chain_count is None:
            chain_count = max(2, int(np.ceil(np.log(st.gamma_chain))))
        st.chain_count = chain_count
        st.round_cap = max(2, int(np.ceil(cfg.round_cap_factor * cfg.p / eps)))
        st.use_odd = (
            graph.n >= 3 if cfg.odd_sets == "auto" else bool(cfg.odd_sets)
        )
        st.target_gap = cfg.target_gap if cfg.target_gap is not None else eps

        # --- initial solution (Lemmas 12/20/21): one O(p)-round block ---
        init = build_initial_solution(
            levels, p=cfg.p, seed=st.rng, ledger=st.ledger, sampled=False
        )
        st.ledger.tick_sampling_round("initial per-level maximal matchings")
        st.dual = init.dual
        st.best = init.merged
        # read at the first harvest, from the pool's in-RAM copy
        st.best_w = None
        st.beta = max(
            init.beta0,
            _rescaled_weight(levels, st.best),
            1e-12,
        )
        st.history = []
        st.rounds = 0
        st.low_cert = None
        st.chain = None
        st.result = None
        st.phase = _PHASE_ROUND_START
        if warm is not None and self._warm_fast_path(st, warm):
            return st

        # Po rows that exist: (i, k) with a live level-k edge at i
        has_ik = DualPrimalMatchingSolver._incidence_mask(levels)
        st.hik_local = np.flatnonzero(has_ik.ravel())
        delta = eps / 6.0
        st.alpha_p = 2.0 * np.log(max(st.hik_local.size, 2) / delta) / delta

        st.m_live = max(2, int(np.count_nonzero(levels.level >= 0)))
        # the one lambda scan outside certify: each _round_end then sets
        # st.lam from its certificate, on a dual nothing moves before
        # the next _round_start reads it; the edge attaining it bounds
        # lambda in the inner steps (_lambda_bounds)
        st.lam, st.lam_edge = st.dual.lambda_witness()
        st.lam_t = 0.0
        st.alpha = 0.0
        inner_budget = cfg.inner_steps
        if inner_budget is None:
            inner_budget = min(
                cfg.inner_step_cap,
                int(np.ceil(2.0 * np.log(st.m_live / eps) / eps**2)),
            )
        st.inner_budget = inner_budget
        return st

    def _warm_fast_path(self, st: _InstanceState, warm: WarmStart) -> bool:
        """Fold a :class:`WarmStart` into the instance; finish it if it certifies.

        Lifts the previous duals into a *copy* of the initial dual and
        certifies -- as-is and with the cover patch (edges the edit burst
        left uncovered get both endpoints raised to 0.5 ŵ_k;
        box-feasible, so the patched point is admissible and its
        verified bound only pays the handful of touched vertices).  If
        either certificate proves the folded-and-greedily-completed
        incumbent within the target, the burst was absorbed with zero
        sampling rounds: the instance is finished and True returned.  On
        a miss the solve proceeds from the *cold* initial dual (the
        saturated warm point is a dead end for the covering dynamics)
        keeping only the stronger primal incumbent.
        """
        solver = DualPrimalMatchingSolver
        graph, levels = st.graph, st.levels
        folded = solver._greedy_complete(graph, warm.fold_matching(graph))
        # 2-opt repair (b = 1 only -- for general b the local search
        # ignores its seed and would just redo the greedy sweep): an
        # edit burst's heavy inserts land on saturated vertices, where
        # completion cannot reach them but a swap can -- exactly the
        # weight the patched bound charges
        folded_w = folded.weight()
        if bool(np.all(graph.b == 1)):
            swapped = local_search_matching(graph, rounds=2, seed_matching=folded)
            swapped_w = swapped.weight()
            if swapped_w > folded_w:
                folded, folded_w = swapped, swapped_w
        st.best_w = st.best.weight()
        if folded_w > st.best_w:
            st.best, st.best_w = folded, folded_w
        st.beta = max(st.beta, _rescaled_weight(levels, st.best))
        warm_dual = st.dual.copy()
        solver._apply_warm_start(levels, warm_dual, warm)
        cert0 = certify(warm_dual)
        patched = warm_dual.copy()
        solver._cover_patch(levels, patched)
        cert1 = certify(patched)
        cert = cert1 if cert1.upper_bound < cert0.upper_bound else cert0
        if cert.certified_ratio(st.best_w) < 1.0 - st.target_gap:
            return False
        # carry the UNPATCHED point forward (certify(warm_dual) already
        # collapsed it into cert0): the patch is a per-query shim for
        # whatever is currently uncovered; folding it into the next
        # generation's warm state would accrete residue for long-deleted
        # edges and sink every descendant's certified ratio
        st.result = MatchingResult(
            matching=st.best,
            certificate=replace(cert, dual_x=cert0.dual_x, dual_z=cert0.dual_z),
            rounds=0,
            lambda_min=cert.lambda_min,
            beta_final=st.beta,
            history=[],
            resources=st.ledger.snapshot(),
        )
        st.phase = _PHASE_DONE
        return True

    # ------------------------------------------------------------------
    def run(self) -> list[MatchingResult]:
        while True:
            progressed = True
            while progressed:
                progressed = False
                for st in self.states:
                    if st.phase == _PHASE_ROUND_START:
                        self._round_start(st)
                        progressed = True
                    elif st.phase == _PHASE_ROUND_END:
                        self._round_end(st)
                        progressed = True
            active = [st for st in self.states if st.phase == _PHASE_INNER]
            if not active:
                break
            if self._members_stale:
                self._rebuild_members()
            self._inner_tick(active)
        for st in self.states:
            self.results[st.pos] = st.result
        return self.results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _round_start(self, st: _InstanceState) -> None:
        eps = self.eps
        if st.rounds >= st.round_cap:
            self._finalize(st)
            return
        st.rounds += 1
        # ---- multipliers u on all live edges (Corollary 6) ----
        st.lam_t = max(st.lam, eps / 512.0)
        st.alpha = 2.0 * np.log(st.m_live / eps) / (st.lam_t * eps)
        promise = _RoundPromise(st.levels, st.dual, st.alpha, st.lam)
        st.ledger.tick_sampling_round("deferred sparsifier chain")

        # ---- deferred chain: one data access ----
        st.chain = self.solver._build_chain(
            st.graph,
            promise,
            gamma=st.gamma_chain,
            xi=max(eps, 0.2),
            count=st.chain_count,
            rng=st.rng,
            ledger=st.ledger,
        )

        # ---- primal harvest (Algorithm 2, step 5) ----
        pool = np.union1d(st.chain.union_edge_ids(), st.best.edge_ids)
        candidate, cand_w, st.best_w = self.solver._offline_match(
            st.graph, pool, st.best
        )
        if cand_w > st.best_w:
            st.best, st.best_w = candidate, cand_w
        beta_prime = _rescaled_weight(st.levels, st.best)
        if beta_prime > st.beta / (1.0 + eps):
            st.beta = beta_prime * (1.0 + eps)

        st.witness_seen = False
        st.routes = {"vertex": 0, "oddset": 0, "zero": 0}
        st.per_sparsifier = max(1, st.inner_budget // max(1, len(st.chain)))
        st.q = -1
        self._layout_stale = True
        if self._advance_sparsifier(st):
            st.phase = _PHASE_INNER
        else:
            st.phase = _PHASE_ROUND_END

    def _advance_sparsifier(self, st: _InstanceState) -> bool:
        """Move to the next sparsifier that stores edges, if any (all live:
        a dropped edge's round promise is 0)."""
        self._layout_stale = True
        while st.q + 1 < len(st.chain):
            st.q += 1
            sp = st.chain[st.q]
            if len(sp.stored_edge_ids) == 0:
                continue
            st.stored = sp.stored_edge_ids
            st.probs = sp.stored_probs
            st.step_in_q = 0
            return True
        return False

    def _round_end(self, st: _InstanceState) -> None:
        eps = self.eps
        # the round's one certificate: _finalize reuses it, since no exit
        # (target gap, lambda or the next round's cap check) moves the dual
        st.cert = cert = certify(st.dual)
        # every round's bound is verified, so the result may report the
        # lowest; the exits below still read this round's own
        if st.low_cert is None or cert.upper_bound < st.low_cert.upper_bound:
            st.low_cert = cert
        st.lam = cert.lambda_min
        st.history.append(
            {
                "round": st.rounds,
                "primal": st.best_w,
                "beta_rescaled": st.beta,
                "lambda": st.lam,
                "upper_bound": cert.upper_bound,
                "witness": st.witness_seen,
                **st.routes,
            }
        )
        ratio = cert.certified_ratio(st.best_w)
        # guarded: field evaluation costs nothing when no trace is active
        if obs.current_span() is not None:
            obs.span_event(
                "solver.round",
                slot=st.slot,
                round=st.rounds,
                gap=max(0.0, 1.0 - ratio),
                lam=st.lam,
                primal=st.best_w,
                oracle_calls=st.ledger.oracle_calls,
                witness=st.witness_seen,
            )
        if ratio >= 1.0 - st.target_gap:
            self._finalize(st)
            return
        if st.lam >= 1.0 - 3.0 * eps:
            self._finalize(st)
            return
        st.phase = _PHASE_ROUND_START

    def _finalize(self, st: _InstanceState) -> None:
        # the lowest verified bound, carrying the last round's raw point
        # for warm starts (as _warm_fast_path does)
        cert = replace(st.low_cert, dual_x=st.cert.dual_x, dual_z=st.cert.dual_z)
        st.result = MatchingResult(
            matching=st.best,
            certificate=cert,
            rounds=st.rounds,
            lambda_min=st.lam,
            beta_final=st.beta,
            history=st.history,
            resources=st.ledger.snapshot(),
        )
        st.phase = _PHASE_DONE
        self._members_stale = True

    # ------------------------------------------------------------------
    def _inner_tick(self, active: list[_InstanceState]) -> None:
        """One lockstep inner step for every active instance.

        Mirrors one iteration of the reference ``for _ in
        range(per_sparsifier)`` loop for each instance, with the array
        math batched (see :mod:`repro.core.batch` for the parity rules).
        """
        cfg = self.solver.config
        eps = self.eps
        b = self.batch
        B = b.size

        # hot loop: one contextvar read when untraced, one bounded
        # event (ring-capped per span) when a trace is active
        _sp = obs.current_span()
        if _sp is not None:
            _sp.event("solver.tick", active=len(active), batch=B)

        if self._layout_stale or self.layout is None:
            self.layout = StoredBatchLayout.build(
                b, {st.slot: (st.stored, st.probs) for st in active}
            )
            self._layout_stale = False
        lay = self.layout
        soff = lay.off_list

        # ---- Corollary 6 multipliers over the stored edges ----
        # The elementwise chains run in the dispatched kernels; ``exp``
        # itself stays a shared numpy call between the pre/post halves so
        # both backends produce the same bits (libm exp differs).
        alphas = np.zeros(B)
        act = self._active_flags
        act.fill(0)
        for st in active:
            alphas[st.slot] = st.alpha
            act[st.slot] = 1
            st.ledger.tick_refinement()
        x = self.dualb.x
        cov = _k_gather_add2(x, lay)
        zload = None
        for st in active:
            if st.dual.z:
                zload = self.dualb.zload
                sl = slice(soff[st.slot], soff[st.slot + 1])
                cov[sl] = z_cover_add(
                    st.graph.n, lay.src[st.slot], lay.dst[st.slot],
                    lay.lvl[st.slot], st.dual.z, cov[sl],
                )
        shifted = _k_tick_stored_shift(cov, alphas, lay)
        support_vals, usc_arr = _k_tick_stored_post(np.exp(-shifted), lay)

        # ---- packing multipliers zeta over the Po box ----
        # gather-first: the Po ratios are only ever read at the has_ik
        # cells, so evaluate 2 x + zload there instead of over the plane;
        # zeta is zmul there and zero elsewhere
        arg = _k_tick_pack_arg(x, zload, self.alpha_p, act, self.cells)
        zmul, qo_arr, zsum = _k_tick_pack_post(np.exp(arg), self.cells)

        searchers: list[_InstanceState] = []
        for st in active:
            s = st.slot
            st.inner_outcome = None
            st.lag = None
            usc = float(usc_arr[s])
            qo = float(qo_arr[s])
            if usc <= 0 or qo <= 0:
                st.inner_outcome = OracleDualStep(
                    dual=LayeredDual(st.levels), route="zero", gamma=0.0
                )
            else:
                st.lag = LagrangianState(_combine_steps, qo, usc, eps)
                searchers.append(st)

        # ---- Lemma 10 searches in lockstep, batched Algorithm 5 ----
        if searchers:
            ctx = BatchMicroContext(
                self.scratch,
                [st.slot for st in searchers],
                lay,
                support_vals,
                zmul,
                zsum,
                beta={st.slot: st.beta for st in searchers},
                use_odd={st.slot: st.use_odd for st in searchers},
                eps=eps,
            )
            pending = {st.slot: st for st in searchers}
            while pending:
                sub = list(pending)
                rho = {s: pending[s].lag.pending_rho for s in sub}
                for s in sub:
                    pending[s].ledger.tick_oracle()
                results, po = ctx.evaluate(sub, rho)
                nxt: dict[int, _InstanceState] = {}
                for s in sub:
                    st = pending[s]
                    out = results[s]
                    if isinstance(out, OracleWitness):
                        st.inner_outcome = out
                        continue
                    st.lag.advance(out, po[s])
                    if st.lag.outcome is not None:
                        st.inner_outcome = st.lag.outcome
                    else:
                        nxt[s] = st
                pending = nxt

        # ---- apply the outcomes ----
        blended: list[tuple[_InstanceState, OracleDualStep]] = []
        for st in active:
            out = st.inner_outcome
            if isinstance(out, OracleWitness):
                st.witness_seen = True
                harvested, _report = extract_witness_matching(
                    st.levels,
                    out,
                    st.beta,
                    eps=eps,
                    offline=cfg.offline,
                    strict=False,
                )
                harvested_w = harvested.weight()
                if harvested_w > st.best_w:
                    st.best, st.best_w = harvested, harvested_w
                st.phase = _PHASE_ROUND_END
                self._layout_stale = True
                continue
            st.routes[out.route] += 1
            if out.route == "zero":
                if not self._advance_sparsifier(st):
                    st.phase = _PHASE_ROUND_END
                continue
            blended.append((st, out))
        if not blended:
            return

        # ---- effective width, covering blend, lambda (batched) ----
        # each step is read where it lies: a vertex-route step in the
        # oracle kernel's plane, unless a later evaluation made it move
        steps: list = [None] * B
        for st, step in blended:
            steps[st.slot] = step.dual.x
        # Theorem 5 only needs 0 <= A x̃ <= rho c for the step taken, so
        # each step's own live-ratio max sets its width; sigma reads only
        # max(PENALTY_WIDTH_BOUND, width), which a box bound of at most
        # PENALTY_WIDTH_BOUND settles without the scan
        sigmas = np.zeros(B)
        for (st, step), box in zip(blended, self._width_bounds(blended, steps)):
            if box * (1.0 + _BOUND_MARGIN) <= PENALTY_WIDTH_BOUND:
                rho_step = PENALTY_WIDTH_BOUND
            else:
                rho_step = max(PENALTY_WIDTH_BOUND, step.dual.live_ratio_max())
            sigmas[st.slot] = min(
                0.5, cfg.step_scale * eps / (4.0 * st.alpha * rho_step)
            )
        _k_blend(x, steps, sigmas, self.blend_cells)
        for st, step in blended:
            if st.dual.z or step.dual.z:
                self._blend_z(st, step.dual.z, float(sigmas[st.slot]))

        # lambda is read only by the phase refresh and the 1 - 3 eps
        # exit; while an upper bound stays below both thresholds neither
        # can fire, and st.lam is next read after _round_end resets it
        exit_at = 1.0 - 3.0 * eps
        for (st, _), bound in zip(blended, self._lambda_bounds(blended)):
            if not bound < min(2.0 * st.lam_t, exit_at):
                st.lam, st.lam_edge = st.dual.lambda_witness()
                if st.lam >= 2.0 * st.lam_t and st.lam < exit_at:
                    # phase boundary (Theorem 5): refresh alpha
                    st.lam_t = max(st.lam, eps / 512.0)
                    st.alpha = 2.0 * np.log(st.m_live / eps) / (st.lam_t * eps)
                if st.lam >= exit_at:
                    st.phase = _PHASE_ROUND_END
                    self._layout_stale = True
                    continue
            st.step_in_q += 1
            if st.step_in_q >= st.per_sparsifier:
                if not self._advance_sparsifier(st):
                    st.phase = _PHASE_ROUND_END

    def _width_bounds(self, blended, steps: list) -> np.ndarray:
        """An upper bound on each blended step's width, one pass over all.

        A live level-``k`` edge ``(i, j)`` is covered by at most
        ``max(2 x̃_i(k) + zload_i(k), 2 x̃_j(k) + zload_j(k))``: its odd-set
        term is at most either endpoint's z-load.  So the largest ``(2 x̃
        + zload) / ŵ_k`` over the cells ``(i, k)`` with a live level-``k``
        edge at ``i`` (the ``has_ik`` cells) bounds the width at
        O(|has_ik|) cost: one kernel pass reads each step's has_ik cells
        from the step's own plane, ``steps[slot]`` (the blend's list).
        """
        zloads: list | None = None
        for st, step in blended:
            if step.dual.z:
                if zloads is None:
                    zloads = [None] * len(steps)
                zloads[st.slot] = step.dual.z_load()
        box = _k_width_box(steps, zloads, self.cells)
        return box[[st.slot for st, _ in blended]]

    def _lambda_bounds(self, blended) -> np.ndarray:
        """Each blended instance's witness-edge ratio: an upper bound on
        its ``lambda``, one gather over all.

        The witness is the edge the last exact scan found at the minimum
        (:meth:`LayeredDual.lambda_witness`); any live edge bounds
        ``lambda`` from above, so it stays valid across steps and
        rounds.  The ratio takes the scan's float operations in the
        scan's order -- the two ``x`` terms, the odd-set terms in ``z``'s
        order (:func:`z_cover_add`), then the division by ``ŵ_k`` from
        the same per-level table -- so it equals that edge's scanned
        ratio bit for bit and is never below the scanned minimum.
        """
        b = self.batch
        slots = np.array([st.slot for st, _ in blended], dtype=np.int64)
        i, j, k = np.array([st.lam_edge for st, _ in blended], dtype=np.int64).T
        base = b.vl_off[slots]
        Ls = b.L[slots]
        x = self.dualb.x
        cov = x[base + i * Ls + k] + x[base + j * Ls + k]
        for pos, (st, _) in enumerate(blended):
            if st.dual.z:
                one = slice(pos, pos + 1)
                cov[one] = z_cover_add(
                    st.graph.n, i[one], j[one], k[one], st.dual.z, cov[one]
                )
        return cov / b.wk_l[b.l_off[slots] + k]

    def _blend_z(self, st: _InstanceState, other_z: dict, sigma: float) -> None:
        """The z-half of ``LayeredDual.blend`` (x was blended batched)."""
        st.dual.z = blend_z_dicts(st.dual.z, other_z, sigma)
        self.dualb.refresh_zload(st.slot)
