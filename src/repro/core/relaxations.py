"""LP relaxations of matching as first-class objects (LP1 -- LP11).

Two roles:

1. **Dual state of the solver.**  :class:`LayeredDual` holds the
   variables of the layered penalty dual LP5/LP10 -- per-(vertex, level)
   costs ``x_i(k)`` and per-(odd set, level) penalties ``z_{U,l}`` --
   with vectorized evaluation of edge coverage, the minimum coverage
   ratio ``lambda``, the dual objective, and the Po/Pi width boxes.

2. **Width measurement (experiment E6).**  :func:`covering_width_lp2`
   and :func:`covering_width_lp4` *measure* the width parameter of the
   standard dual (LP2) versus the penalty dual (LP4) on a concrete
   graph by solving the per-edge maximization with an LP.  The paper's
   point -- the penalty box ``2 x_i + sum_U z_U <= 3`` caps the width at
   an absolute constant 6, while LP2's width grows with the instance --
   becomes a measurable table.

All quantities here are in *rescaled* units (weights ``ŵ_k = (1+eps)^k``
of the level decomposition); conversion to original units multiplies by
``levels.scale``.
"""

from __future__ import annotations

import numpy as np

from repro.core.levels import LevelDecomposition
from repro.util.graph import Graph

__all__ = [
    "LayeredDual",
    "z_cover_add",
    "blend_z_dicts",
    "covering_width_lp2",
    "covering_width_lp4",
    "PENALTY_WIDTH_BOUND",
]


def z_cover_add(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    k: np.ndarray,
    z: dict,
    cov_seg: np.ndarray,
) -> np.ndarray:
    """Odd-set contribution to the coverage of the edges ``(src, dst)``
    at levels ``k`` (``n`` vertices).

    The z-half of :meth:`LayeredDual.edge_cover`, shared with the
    batched engine (which applies it per instance on segments of its
    concatenated buffers); one implementation keeps the bit-parity
    contract in one place.  Callers pass the endpoints and levels they
    already hold, so a file-backed graph is not read again.
    """
    out = cov_seg
    for (U, ell), val in z.items():
        if val == 0.0:
            continue
        members = np.zeros(n, dtype=bool)
        members[list(U)] = True
        inside = members[src] & members[dst] & (k >= ell)
        if inside.any():
            out = out + np.where(inside, val, 0.0)
    return out


def blend_z_dicts(self_z: dict, other_z: dict, sigma: float) -> dict:
    """The z-half of :meth:`LayeredDual.blend` (shared with the engine)."""
    keys = set(self_z) | set(other_z)
    newz: dict = {}
    for key in keys:
        v = (1.0 - sigma) * self_z.get(key, 0.0) + sigma * other_z.get(key, 0.0)
        if v > 1e-15:
            newz[key] = v
    return newz

#: Analytic width bound of the penalty dual LP4/LP5: the box constraint
#: ``2 x_i(k) + sum_{l<=k} z <= 3 ŵ_k`` forces every edge's coverage to be
#: at most ``6 ŵ_k`` -- independent of every problem parameter.
PENALTY_WIDTH_BOUND = 6.0


class LayeredDual:
    """Variables of the layered penalty dual (LP5 / LP10).

    ``x`` is a dense ``(n, L)`` float64 table (rows = vertices, cols =
    levels); ``z`` maps ``(U, l)`` -- ``U`` a sorted vertex tuple, ``l``
    a level -- to a nonnegative penalty.  A float64 ``x`` passed in is
    kept, not copied: inside the solver it is the instance's plane of
    the shared :class:`~repro.core.batch.DualBatch` buffer, so writes
    into ``dual.x`` update the batch state.
    """

    def __init__(
        self,
        levels: LevelDecomposition,
        x: np.ndarray | None = None,
        z: dict[tuple[tuple[int, ...], int], float] | None = None,
    ) -> None:
        self.levels = levels
        shape = (levels.graph.n, levels.num_levels)
        if x is None:
            x = np.zeros(shape, dtype=np.float64)
        else:
            x = np.asarray(x, dtype=np.float64)
            if x.shape != shape:
                raise ValueError(f"x must be shape {shape}")
        self.x = x
        self.z: dict[tuple[tuple[int, ...], int], float] = {} if z is None else z

    @classmethod
    def _wrap(cls, levels: LevelDecomposition, x: np.ndarray) -> "LayeredDual":
        """Wrap a known-good ``(n, L)`` float64 array without re-validation.

        Hot-path constructor for the batched engine, which mints one
        dual per oracle step; semantics identical to ``LayeredDual(
        levels, x)`` for conforming ``x``.
        """
        d = cls.__new__(cls)
        d.levels = levels
        d.x = x
        d.z = {}
        return d

    # ------------------------------------------------------------------
    # Coverage of the edge constraints {Ax >= c}
    # ------------------------------------------------------------------
    def edge_cover(self, edge_ids: np.ndarray | None = None) -> np.ndarray:
        """LHS of the edge constraint for each (live) edge:

        ``x_i(k) + x_j(k) + sum_{l <= k} sum_{U ∋ i,j} z_{U,l}``.
        """
        lv = self.levels
        g = lv.graph
        ids = lv.live_edges() if edge_ids is None else np.asarray(edge_ids)
        k = lv.level[ids]
        src, dst = g.src[ids], g.dst[ids]
        cov = self.x[src, k] + self.x[dst, k]
        if self.z:
            cov = z_cover_add(g.n, src, dst, k, self.z, cov)
        return cov

    def edge_ratios(self, edge_ids: np.ndarray | None = None) -> np.ndarray:
        """Coverage divided by the constraint RHS ``ŵ_k``."""
        lv = self.levels
        ids = lv.live_edges() if edge_ids is None else np.asarray(edge_ids)
        k = lv.level[ids]
        return self.edge_cover(ids) / lv.level_weight(k)

    def _live_ratio_chunks(self):
        """Yield the live-edge coverage ratios, one edge range at a time.

        Each item is ``(start, stop, live, src, dst, kl, ratios)``: the
        range, its live-edge mask, and the live edges' endpoints, levels
        and ratios (ranges without a live edge are skipped).  The
        endpoints let a caller measure another point on the same edges
        in the same pass (:func:`~repro.core.certificates.certify` does).

        Reads :meth:`~repro.util.graph.Graph.edge_ranges` slices instead
        of gathering every live edge, so file-backed graphs are never
        materialized and no ``O(m)`` id array is allocated.  Per-edge
        floats equal :meth:`edge_ratios`: the cover is the same
        elementwise gather-add, and ``ŵ_k = (1+eps)^k`` is the same
        elementwise power, read from a per-level table.
        """
        lv = self.levels
        g = lv.graph
        level = lv.level
        wk = np.asarray(lv.level_weight(np.arange(lv.num_levels, dtype=np.int64)))
        x = self.x
        for start, stop in g.edge_ranges():
            k = level[start:stop]
            live = k >= 0
            if not live.any():
                continue
            kl = k[live]
            src = np.asarray(g.src[start:stop])[live]
            dst = np.asarray(g.dst[start:stop])[live]
            cov = x[src, kl] + x[dst, kl]
            if self.z:
                cov = z_cover_add(g.n, src, dst, kl, self.z, cov)
            yield start, stop, live, src, dst, kl, cov / wk[kl]

    def lambda_min(self) -> float:
        """``lambda = min_e (Ax)_e / c_e`` over live edges (1.0 if none)."""
        return self.lambda_witness()[0]

    def lambda_witness(self) -> tuple[float, tuple[int, int, int] | None]:
        """``lambda`` and a live edge ``(i, j, k)`` whose ratio attains it.

        Any live edge's ratio bounds ``lambda`` from above at any point,
        so the solver engine keeps this edge and rescans only when its
        ratio cannot rule out what a scan would decide.  ``(1.0, None)``
        without live edges.
        """
        lam, edge = 1.0, None
        for *_, src, dst, kl, ratios in self._live_ratio_chunks():
            pos = int(ratios.argmin())
            if edge is None or ratios[pos] < lam:
                lam = float(ratios[pos])
                edge = (int(src[pos]), int(dst[pos]), int(kl[pos]))
        return lam, edge

    def live_ratio_max(self) -> float:
        """``max_e (Ax)_e / c_e`` over live edges (0.0 if none)."""
        best = -np.inf
        found = False
        for *_, ratios in self._live_ratio_chunks():
            found = True
            best = max(best, float(ratios.max()))
        return float(best) if found else 0.0

    # ------------------------------------------------------------------
    # Objective and width boxes
    # ------------------------------------------------------------------
    def vertex_costs(self) -> np.ndarray:
        """``x_i = max_k x_i(k)`` -- each vertex pays its worst level."""
        return self.x.max(axis=1)

    def objective(self) -> float:
        """Rescaled dual objective ``sum b_i x_i + sum_U,l floor(.)z_{U,l}``."""
        g = self.levels.graph
        val = float((g.b * self.vertex_costs()).sum())
        for (U, _ell), zv in self.z.items():
            val += zv * (int(g.b[list(U)].sum()) // 2)
        return val

    def z_load(self) -> np.ndarray:
        """Per-(vertex, level) odd-set load ``sum_{l <= k} sum_{U ∋ i} z_{U,l}``.

        Shape (n, L); entry (i, k) is the penalty mass covering vertex i
        at level k.  This is the quantity the Po/Pi boxes cap.
        """
        n = self.levels.graph.n
        L = self.levels.num_levels
        load = np.zeros((n, L), dtype=np.float64)
        for (U, ell), val in self.z.items():
            if val == 0.0 or ell >= L:
                continue
            load[list(U), ell:] += val
        return load

    def _box_ratio(self, cap: np.ndarray) -> float:
        """Max of ``(2 x_i(k) + z-load) / cap_k`` over the table."""
        if self.x.size == 0:
            return 0.0
        return float(((2.0 * self.x + self.z_load()) / cap).max())

    def po_ratio(self) -> float:
        """Max of ``(2 x_i(k) + z-load) / (3 ŵ_k)`` -- the outer box Po.

        Values <= 1 mean ``Po x <= qo``; the solver keeps iterates within
        ``Po x <= 2 qo`` (ratio <= 2).
        """
        L = self.levels.num_levels
        wk = self.levels.level_weight(np.arange(L))
        return self._box_ratio(3.0 * wk)

    def pi_ratio(self) -> float:
        """Max of the same LHS against the inner box ``(24/eps + 24/eps^2) ŵ_k``."""
        L = self.levels.num_levels
        eps = self.levels.eps
        wk = self.levels.level_weight(np.arange(L))
        return self._box_ratio((24.0 / eps + 24.0 / eps**2) * wk)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def blend(self, other: "LayeredDual", sigma: float) -> None:
        """In-place convex step ``self <- (1-sigma) self + sigma other``.

        This is the covering framework's ``x <- (1-sigma)x + sigma x̃``.
        """
        self.x *= 1.0 - sigma
        self.x += sigma * other.x
        self.z = blend_z_dicts(self.z, other.z, sigma)

    def copy(self) -> "LayeredDual":
        return LayeredDual(self.levels, self.x.copy(), dict(self.z))

    # ------------------------------------------------------------------
    # LP2-style certificate extraction
    # ------------------------------------------------------------------
    def lp2_certificate(self) -> tuple[np.ndarray, dict[tuple[int, ...], float]]:
        """Collapse layers to LP2 variables in *original* weight units.

        ``x_i = scale * max_k x_i(k)``; ``z_U = scale * sum_l z_{U,l}``.
        The result may be infeasible (dropped edges, an uncovered live
        edge, rounding); :func:`~repro.core.certificates.certify`
        rescales it by the worst live-edge ratio, pads it and audits it
        to obtain a rigorous upper bound.
        """
        scale = self.levels.scale
        xs = scale * self.vertex_costs()
        zs: dict[tuple[int, ...], float] = {}
        for (U, _ell), val in self.z.items():
            zs[U] = zs.get(U, 0.0) + scale * val
        return xs, zs


# ----------------------------------------------------------------------
# Width measurement (experiment E6)
# ----------------------------------------------------------------------
def covering_width_lp2(graph: Graph, beta: float, odd_sets: list[tuple[int, ...]] | None = None) -> float:
    """Measured width of the standard dual LP2 as a covering system.

    The decision system is ``{x_i + x_j + sum_{U ∋ i,j} z_U >= w_ij}``
    over the polytope ``P = {b^T x + sum floor(||U||_b/2) z_U <= beta,
    x, z >= 0}``.  The width is
    ``rho = max_e max_{(x,z) in P} cover_e / w_e`` -- computed exactly:
    put the whole budget on the cheapest variable covering ``e``.
    """
    odd_sets = odd_sets or []
    rho = 0.0
    for e in range(graph.m):
        i, j, w = int(graph.src[e]), int(graph.dst[e]), float(graph.weight[e])
        # cheapest objective cost per unit of coverage of edge e
        best = max(1.0 / graph.b[i], 1.0 / graph.b[j])  # x_i or x_j
        for U in odd_sets:
            if i in U and j in U:
                cost = float(int(graph.b[list(U)].sum()) // 2)
                if cost > 0:
                    best = max(best, 1.0 / cost)
        rho = max(rho, beta * best / w)
    return rho


def covering_width_lp4(graph: Graph, box_slack: float = 2.0) -> float:
    """Measured width of the penalty dual on a concrete graph.

    The decision system covers edge ``e`` by ``x_i + x_j + sum z_U``
    subject to the per-vertex penalty boxes
    ``2 x_i + sum_{U ∋ i} z_U <= box_slack * 3 w`` (the solver operates
    within ``Po x <= 2 qo``, hence ``box_slack = 2``).

    The per-edge maximum of ``x_i + x_j + z`` under
    ``2 x_i + z <= 3sw`` and ``2 x_j + z <= 3sw`` is exactly ``3sw``
    (any unit of ``z`` displaces half a unit of each ``x``), so the
    width is the *constant* ``3 * box_slack`` for every edge of every
    graph -- the paper's "independent of any problem parameters".
    Returns 0 for edgeless graphs so tables stay honest.
    """
    return 3.0 * box_slack if graph.m else 0.0
