"""The MicroOracle for matching (Algorithm 5, Lemmas 13-14, Section 3.1).

Given a *sparsified* support (edge ids with multiplier values ``us``),
per-(vertex, level) packing multipliers ``zeta``, the current budget
``beta`` and a Lagrange multiplier ``rho``, the oracle returns one of:

* **A dual step** (part ii): a sparse layered-dual vector ``x̃``
  (``x_i(k)`` mass from the *violated-vertex route*, or ``z_{U,l}`` mass
  from the *odd-set route*) satisfying the Lagrangian inequality of
  LP8/LagInner and the sparsifier-consistency property ``G(us, x)``.
* **A witness** (part i): a feasible solution of LP7 on the support,
  certifying (through Lemma 13 / Theorem 23) that the support already
  contains an integral b-matching of weight ``(1 - 2 eps) beta`` -- the
  signal that the *primal* side should harvest the sample.

The three branches follow Algorithm 5 literally:

1. ``Γ(V) >= eps γ / 24`` -- violated vertices absorb the mass: return
   ``x`` supported on ``Viol(V)`` (step 6-7).
2. else lift ``ζ̄`` and hunt dense odd sets per level (Lemma 16);
   ``Γ(Os) >= eps γ' / 24`` -- odd sets absorb the mass: return ``z``
   supported on the disjoint families ``K(l)`` (steps 16-18).
3. else both contributions are small: the remaining multiplier mass
   *is* an LP7 feasible point after the ``ζ̂`` bump -- return the witness
   ``y = (1-eps/4) beta / ((1+eps/2) γ) us`` (step 21).

:class:`BatchMicroContext` is the one implementation: the solver runs
it over its whole batch, and :func:`micro_oracle` runs it on a batch of
one instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import GraphBatch, StoredBatchLayout
from repro.core.levels import LevelDecomposition
from repro.core.odd_sets import find_dense_odd_sets
from repro.core.relaxations import LayeredDual
from repro.kernels import OracleCells, OracleScratch
from repro.kernels import dual_scatter as _k_dual_scatter
from repro.kernels import index_scatter as _k_index_scatter
from repro.kernels import oracle_eval as _k_oracle_eval
from repro.util.validation import check_epsilon

__all__ = [
    "OracleDualStep",
    "OracleWitness",
    "micro_oracle",
    "SupportVector",
    "BatchMicroContext",
]


@dataclass
class SupportVector:
    """Sparse multiplier vector over a sampled edge set.

    ``edge_ids`` index the source graph; every edge carries its single
    level (Lemma 14's "at most one k such that us_ijk != 0" -- our levels
    partition the edges, so this holds by construction).
    """

    edge_ids: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.edge_ids = np.asarray(self.edge_ids, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)


@dataclass
class OracleDualStep:
    """Part (ii): a sparse dual direction x̃ plus diagnostics."""

    dual: LayeredDual
    route: str  # "zero" | "vertex" | "oddset"
    gamma: float
    gamma_prime: float | None = None


@dataclass
class OracleWitness:
    """Part (i): LP7 feasible point on the support.

    ``y`` maps edge id -> fractional value; ``mu`` is the (n, L) penalty
    matrix; Lemma 13 turns this into an integral matching of weight
    ``(1 - 2 eps) beta`` using only support edges.
    """

    y: dict[int, float]
    mu: np.ndarray
    gamma: float
    lp7_value: float


def micro_oracle(
    levels: LevelDecomposition,
    support: SupportVector,
    zeta: np.ndarray,
    beta: float,
    rho: float,
    eps: float | None = None,
    odd_sets: bool = True,
) -> OracleDualStep | OracleWitness:
    """Run Algorithm 5 on one instance.

    Builds a one-instance :class:`~repro.core.batch.GraphBatch` and
    returns :meth:`BatchMicroContext.evaluate`'s result for it.

    Parameters
    ----------
    support:
        Sampled edges and their multipliers.  Every edge must sit at a
        kept level (``levels.level[e] >= 0``).
    zeta:
        Packing multipliers, shape ``(n, L)`` (zeros where unused).
    beta:
        Current dual budget (rescaled units).
    rho:
        Lagrange multiplier ``% > 0`` from Lemma 10's search.
    odd_sets:
        Disable to run the bipartite-only oracle (no z mass; the paper
        notes the proof "for bipartite graphs" ends before the odd-set
        stage).
    """
    eps = check_epsilon(eps if eps is not None else levels.eps)
    g = levels.graph
    n, L = g.n, levels.num_levels

    zeta = np.asarray(zeta, dtype=np.float64)
    if zeta.shape != (n, L):
        raise ValueError(f"zeta must be shape {(n, L)}")
    ids = support.edge_ids
    if (levels.level[ids] < 0).any():
        raise ValueError("support has an edge at a dropped level (level -1)")

    batch = GraphBatch(graphs=[g], levels=[levels])
    # the oracle reads no sampling probabilities: unit placeholders
    stored = StoredBatchLayout.build(batch, {0: (ids, np.ones(ids.size))})
    flat_zeta = zeta.ravel()
    hik_idx = np.flatnonzero(flat_zeta != 0.0)
    # the kernel's candidate cells: where zeta or the support scatter s
    # may be nonzero
    cells = OracleCells(batch, hik_idx, np.concatenate([stored.src_vl, stored.dst_vl]))
    ctx = BatchMicroContext(
        OracleScratch(batch, cells), [0], stored,
        np.ascontiguousarray(support.values), flat_zeta[hik_idx],
        beta={0: beta}, use_odd={0: odd_sets}, eps=eps,
    )
    results, _po = ctx.evaluate([0], {0: rho})
    return results[0]


def _oddset_witness_stage(
    levels: LevelDecomposition,
    support: SupportVector,
    lvl_of_edge: np.ndarray,
    src_of_edge: np.ndarray,
    dst_of_edge: np.ndarray,
    us_mass_per_level: np.ndarray,
    zeta_bar: np.ndarray,
    gamma: float,
    gamma_p: float,
    beta: float,
    rho: float,
    eps: float,
    odd_sets: bool,
    wk: np.ndarray,
) -> OracleDualStep | OracleWitness:
    """Steps 11-21 of Algorithm 5: odd-set route, else LP7 witness.

    The tail of :meth:`BatchMicroContext.evaluate`.  Evaluations reach
    it rarely (most resolve through the vertex or zero route), so it
    runs per instance on views of the batch buffers.  The support
    edges' levels and endpoints come from the stored layout, so the
    stage reads no edge data.
    """
    g = levels.graph
    n = g.n

    # Steps 11-15: per-level dense odd sets
    families: dict[int, list[tuple[tuple[int, ...], float]]] = {}
    gamma_os = 0.0
    if odd_sets and n >= 3:
        vals = support.values
        # cumulative edge mass over levels >= l is just "edges with
        # level >= l" since each edge lives at exactly one level
        active_levels = sorted(set(int(k) for k in np.unique(lvl_of_edge)), reverse=True)
        scale = (1.0 - eps / 4.0) * beta / gamma
        zeta_bar_cum_rev = np.cumsum(zeta_bar[:, ::-1], axis=1)[:, ::-1]
        taken_vertices: set[int] = set()
        for ell in active_levels:
            sel = lvl_of_edge >= ell
            if not sel.any():
                continue
            e_src = src_of_edge[sel]
            e_dst = dst_of_edge[sel]
            e_val = vals[sel]
            q = scale * e_val
            q_hat = g.b.astype(np.float64) + 2.0 * scale * rho * zeta_bar_cum_rev[:, ell]
            fam = find_dense_odd_sets(
                n,
                g.b,
                e_src,
                e_dst,
                q,
                q_hat,
                eps,
                max_size_b=4.0 / eps,
            )
            kept: list[tuple[tuple[int, ...], float]] = []
            for U in fam.sets:
                if any(v in taken_vertices for v in U):
                    continue
                # verify Equation (4): Delta(U, l) >= gamma floor(.)/((1-eps/4) beta)
                members = np.zeros(n, dtype=bool)
                members[list(U)] = True
                inside = members[e_src] & members[e_dst]
                delta_u = float(e_val[inside].sum()) - rho * float(
                    zeta_bar_cum_rev[list(U), ell].sum()
                )
                need = (gamma / ((1.0 - eps / 4.0) * beta)) * (
                    int(g.b[list(U)].sum()) // 2
                )
                if delta_u >= need:
                    kept.append((U, delta_u))
                    taken_vertices.update(U)
            if kept:
                families[ell] = kept
                gamma_os += wk[ell] * sum(d for _, d in kept)

    # Steps 16-18: odd-set route
    if odd_sets and gamma_os >= eps * gamma_p / 24.0 and gamma_os > 0:
        step = LayeredDual(levels)
        for ell, kept in families.items():
            for U, _d in kept:
                step.z[(U, int(ell))] = gamma_p * float(wk[ell]) / gamma_os
        return OracleDualStep(
            dual=step, route="oddset", gamma=gamma, gamma_prime=gamma_p
        )

    # Steps 20-21: witness -- bump zeta-hat and emit LP7 point
    zeta_hat = zeta_bar.copy()
    for ell, kept in families.items():
        for U, _d in kept:
            zeta_hat[list(U), ell] += g.b[list(U)] * gamma / (2.0 * rho * beta)
    y_scale = (1.0 - eps / 4.0) * beta / ((1.0 + eps / 2.0) * gamma)
    y = {
        int(e): y_scale * float(v)
        for e, v in zip(support.edge_ids, support.values)
        if v > 0
    }
    mu = y_scale * rho * zeta_hat
    lp7_value = float(
        (
            wk
            * (
                us_mass_per_level * y_scale
                - 3.0 * (y_scale * rho * zeta_hat).sum(axis=0)
            )
        ).sum()
    )
    return OracleWitness(y=y, mu=mu, gamma=gamma, lp7_value=lp7_value)


# ----------------------------------------------------------------------
# Batched evaluation (Algorithm 5 over a batch of instances)
# ----------------------------------------------------------------------
class BatchMicroContext:
    """Per-inner-step context for batched Algorithm 5 evaluations.

    One context is built per lockstep inner step of the solver engine
    (every ``solve`` and ``solve_many``): the quantities that are constant across a Lagrangian
    search -- the support scatter ``s``, the per-level support mass and
    ``zeta``'s column sums -- are computed once, and each
    :meth:`evaluate` call runs the per-``rho`` remainder of Algorithm 5
    for a subset of instances on concatenated buffers.  The packing
    load ``z^T Po x`` of every returned dual step is computed here too
    (one batched gather), so the caller's Lagrangian search needs no
    further array work.

    An instance's results do not depend on what else shares its batch,
    by the discipline documented in :mod:`repro.core.batch`:
    elementwise math is batched, ordered scatters keep per-instance
    order, reductions and scans run on contiguous per-instance views --
    or, for the per-row scans (``cumsum``) and row sums, on *runs* of
    consecutive same-``L`` instances, whose stacked ``(rows, L)`` views
    scan each row independently and identically.  The odd-set and
    witness stages (rarely reached) run per instance on views of the
    batch buffers.  :func:`micro_oracle` is this class at batch size
    one; the ``oracle`` group of ``tests/golden/digests.json`` pins its
    output on every route.

    ``scratch`` is the batch's :class:`~repro.kernels.OracleScratch`,
    built once per batch for a cell list that holds every cell where
    the support scatter ``s`` or ``zeta`` may be nonzero.  ``zeta`` is
    ``zmul`` at the list's has_ik cells (``scratch.cells.hik_idx``) and
    zero elsewhere; the plane itself is built only where it is read,
    in the odd-set/witness tail and for instances with a single level.
    The solver engine's list is its has_ik cells alone: every stored
    edge is live, so its cells are has_ik cells already.
    :func:`micro_oracle` adds both cells of every support edge.
    """

    def __init__(
        self,
        scratch: OracleScratch,
        active: list[int],
        stored,
        support_vals: np.ndarray,
        zmul: np.ndarray,
        beta: dict[int, float],
        use_odd: dict[int, bool],
        eps: float,
    ):
        batch = scratch.batch
        self.scratch = scratch
        self.batch = batch
        self.active = list(active)
        self.stored = stored
        self.support_vals = support_vals
        self.zmul = zmul
        self.beta = beta
        self.use_odd = use_odd
        self.eps = eps

        # s[i, k] scatter into the scratch's buffer: the dispatched
        # kernel adds all src contributions first, then all dst.  The
        # previous tick's context, the only other reader of the buffer,
        # is done with it by the time the next one is built.
        _k_dual_scatter(support_vals, scratch.s, stored, scratch.cells)
        self.us_mass = _k_index_scatter(stored.l_idx, support_vals, stored.nl)

        # zeta's per-level column sums.  For L >= 2 numpy reduces an
        # (n, L) plane over axis 0 by sequential row accumulation, which
        # is bit-identical to index_scatter's data-order adds; zeta is
        # zero off the has_ik cells (increasing, so in data order) and
        # adding a zero leaves a sum's bits alone, so one kernel call
        # over those cells covers the whole batch (cells of
        # non-evaluated instances land in segments the oracle never
        # reads).  L == 1 planes would take numpy's pairwise contiguous
        # reduction instead, so that (unused in practice) shape keeps
        # the per-instance loop.
        if scratch.cells.l_idx is not None:
            zsum = _k_index_scatter(scratch.cells.l_idx, zmul, stored.nl)
        else:
            zsum = np.zeros(stored.nl, dtype=np.float64)
            zeta = self._zeta()
            for i in self.active:
                batch.l_view(zsum, i)[:] = batch.vl_view(zeta, i).sum(axis=0)
        self.zsum = zsum
        self._in_scratch: list[LayeredDual] = []

    # ------------------------------------------------------------------
    def evaluate(self, sub: list[int], rho: dict[int, float]):
        """Run Algorithm 5 at multiplier ``rho[i]`` for each ``i`` in ``sub``.

        Returns ``(results, po)``: ``results[i]`` is the
        ``OracleDualStep | OracleWitness`` and ``po[i]`` the packing
        load of the step (absent for witnesses).  Buffers are sized by
        the compact batch; segments of instances outside ``sub`` hold
        stale values and are never read.  A vertex-route step's ``x`` is
        a view of the scratch's step plane, where the kernel wrote it;
        the next call on this context copies it out before the plane is
        overwritten.  The plane is shared by every context of the
        batch, so a step lasts until a newer context evaluates: the
        solver engine builds one context per tick and is done with its
        steps by the next.
        """
        b = self.batch
        B = b.size
        out: dict[int, OracleDualStep | OracleWitness] = {}
        po: dict[int, float] = {}

        # Steps 1-8 run in the dispatched fused kernel; this method only
        # fills the per-call multiplier buffers, assembles the results by
        # route, and runs the rare odd-set/witness tail.
        sc = self.scratch
        for d in self._in_scratch:
            d.x = d.x.copy()
        self._in_scratch = []
        rho_b = sc.rho
        rho_b.fill(0.0)
        for i in sub:
            rho_b[i] = rho[i]
        beta_b = sc.beta
        beta_b.fill(1.0)
        for i in sub:
            beta_b[i] = self.beta[i]

        _k_oracle_eval(self.us_mass, self.zsum, self.zmul, sub, self.eps, sc)

        rest: list[int] = []
        for i in sub:
            r = int(sc.route[i])
            if r == 0:
                out[i] = OracleDualStep(
                    dual=LayeredDual(b.levels[i]),
                    route="zero",
                    gamma=float(sc.gamma[i]),
                )
                # reference: (zeta[has_ik] * (2*0 + 0)[has_ik]).sum() == 0.0
                po[i] = 0.0
            elif r == 1:
                d = LayeredDual._wrap(b.levels[i], b.vl_view(sc.step_x, i))
                self._in_scratch.append(d)
                out[i] = OracleDualStep(
                    dual=d, route="vertex", gamma=float(sc.gamma[i])
                )
                po[i] = float(sc.po[i])
            else:
                rest.append(i)
        if not rest:
            return out, po

        # Step 9: lift zeta for violated vertices of the remaining instances
        pos_mask = sc.net > 0.0
        ks_vl = np.repeat(sc.k_star_row, b.row_len)
        viol_vl = ks_vl >= 0
        inst_rest = np.zeros(B, dtype=bool)
        inst_rest[rest] = True
        rest_vl = np.repeat(inst_rest, b.vl_count)
        cond = (b.col_vl <= ks_vl) & viol_vl & rest_vl & pos_mask
        with np.errstate(divide="ignore", invalid="ignore"):
            lifted = sc.s / np.repeat(2.0 * rho_b, b.vl_count)
        zeta_bar = np.where(cond, lifted, self._zeta())

        # Steps 10-21 per instance (rare)
        for i in rest:
            lv = b.levels[i]
            zb = b.vl_view(zeta_bar, i)
            wk_i = b.l_view(b.wk_l, i)
            us_i = b.l_view(self.us_mass, i)
            rho_i = float(rho_b[i])
            gamma_p = float((wk_i * (us_i - 3.0 * rho_i * zb.sum(axis=0))).sum())
            sl = slice(int(self.stored.off[i]), int(self.stored.off[i + 1]))
            support_i = SupportVector(self.stored.ids[i], self.support_vals[sl])
            tail = _oddset_witness_stage(
                lv,
                support_i,
                self.stored.lvl[i],
                self.stored.src[i],
                self.stored.dst[i],
                us_i,
                zb,
                float(sc.gamma[i]),
                gamma_p,
                self.beta[i],
                rho_i,
                self.eps,
                self.use_odd[i],
                wk_i,
            )
            out[i] = tail
            if isinstance(tail, OracleDualStep):
                po[i] = self._po_single(i, tail)
        return out, po

    def _zeta(self) -> np.ndarray:
        """The packing multipliers as a VL plane: ``zmul`` at the has_ik
        cells, zero elsewhere."""
        zeta = self.batch.zeros_vl()
        zeta[self.scratch.cells.hik_idx] = self.zmul
        return zeta

    # ------------------------------------------------------------------
    def _po_single(self, i: int, step: OracleDualStep) -> float:
        """Packing load ``z^T Po x`` of one (possibly z-carrying) step."""
        b = self.batch
        if step.dual.z:
            sload = step.dual.z_load()
            lhs = 2.0 * step.dual.x + sload
        else:
            lhs = 2.0 * step.dual.x
        cells = self.scratch.cells
        lo, hi = cells.hik_off[i], cells.hik_off[i + 1]
        hik_local = cells.hik_idx[lo:hi] - b.vl_off[i]
        zmul_seg = self.zmul[lo:hi]
        return float((zmul_seg * lhs.ravel()[hik_local]).sum())
