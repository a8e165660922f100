"""Ragged batch representation for the lockstep dual-primal solver engine.

The solver's round loop runs the inner multiplicative-weights steps of
:class:`~repro.core.matching_solver.DualPrimalMatchingSolver` in
*lockstep* over a batch of independent instances (``solve`` is a batch
of one): each instance keeps its own control flow (rounds, Lagrangian
searches, witness aborts), but the elementwise array math of every
concurrent inner step executes on concatenated buffers, amortizing
numpy dispatch overhead across the batch.  This module holds the shared
layout those buffers use; the discipline below keeps every instance's
results *bit-identical* whatever else shares its batch -- and identical
to the standalone-array semantics of
:class:`~repro.core.relaxations.LayeredDual`, whose ``x`` is one
instance's ``(n, L)`` plane of the VL space.
:func:`~repro.core.micro_oracle.micro_oracle` evaluates Algorithm 5 on
a batch of one.

Layout: three concatenated index spaces
---------------------------------------

Instances are ragged (different ``n``, ``m``, level count ``L``), so
nothing is padded; instead every per-instance array is a contiguous
*segment* of one flat buffer, addressed by an offset table:

* **vertex space** (``v_off``): per-vertex arrays, ``sum n_i`` long;
* **level space** (``l_off``): per-level arrays (``ŵ_k`` etc.),
  ``sum L_i`` long;
* **vertex-level (VL) space** (``vl_off``): the ``(n_i, L_i)`` dual
  planes flattened C-order, ``sum n_i * L_i`` long.  Row ``v`` of
  instance ``i`` starts at ``vl_off[i] + v * L_i`` (``row_off``
  tabulates every row start, enabling per-row ``reduceat``).

Bit-parity discipline
---------------------

The acceptance contract of the engine is *exact* equality with the
standalone single-instance computation, so every operation falls into
one of three classes:

1. **Elementwise ops** (``exp``, ``clip``, multiply, compare, ...) act
   on concatenated buffers in one call -- elementwise results do not
   depend on neighboring segments.
2. **Ordered scatters** (``np.add.at``) keep per-instance element order
   inside the concatenation, so accumulation order (hence rounding)
   matches the reference.
3. **Reductions and scans** (``sum``, ``cumsum`` along an axis) are
   executed per instance on *contiguous reshaped views* of the segment
   -- identical memory layout to the standalone array, hence identical
   pairwise-summation trees.  Order-independent reductions (``min``,
   ``max``, integer ``maximum``) may use ``reduceat`` across segments.

See ``docs/performance.md`` for the measured effect and
``docs/architecture.md`` for where this sits in the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.levels import LevelDecomposition, discretize
from repro.core.relaxations import LayeredDual
from repro.util.graph import Graph

__all__ = [
    "GraphBatch",
    "DualBatch",
    "StoredBatchLayout",
    "expand",
]


def expand(per_instance: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Broadcast one value per instance across its segment (``np.repeat``)."""
    return np.repeat(per_instance, counts)


def _offsets(counts: np.ndarray) -> np.ndarray:
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return off


# ----------------------------------------------------------------------
# The batch
# ----------------------------------------------------------------------
@dataclass
class GraphBatch:
    """Concatenated layout of a batch of (graph, level decomposition) pairs.

    Built by the solver's lockstep engine whenever its set of running
    instances changes; every buffer the engine touches is addressed
    through the offset tables here.  The batch holds no per-edge array:
    the only edge arrays in the engine are the stored edges of the
    current sparsifiers (:class:`StoredBatchLayout`).
    """

    graphs: list[Graph]
    levels: list[LevelDecomposition]

    # counts and offset tables (see module docstring)
    n: np.ndarray = field(init=False)
    L: np.ndarray = field(init=False)
    v_off: np.ndarray = field(init=False)
    l_off: np.ndarray = field(init=False)
    vl_off: np.ndarray = field(init=False)
    vl_count: np.ndarray = field(init=False)

    # VL-space row structure: one row per (instance, vertex)
    row_off: np.ndarray = field(init=False)  # start of each row, + sentinel
    row_inst: np.ndarray = field(init=False)  # instance id per row
    row_len: np.ndarray = field(init=False)  # = L[row_inst]

    # constant per-entry gathers
    wk_l: np.ndarray = field(init=False)  # ŵ_k per level-space entry
    wk_vl: np.ndarray = field(init=False)  # ŵ_k per VL entry
    po3_vl: np.ndarray = field(init=False)  # 3 ŵ_k per VL entry (Po RHS)
    b_vl: np.ndarray = field(init=False)  # float b_i per VL entry
    col_vl: np.ndarray = field(init=False)  # level index per VL entry

    @property
    def size(self) -> int:
        return len(self.graphs)

    def __post_init__(self) -> None:
        B = len(self.graphs)
        self.n = np.array([g.n for g in self.graphs], dtype=np.int64)
        self.L = np.array([lv.num_levels for lv in self.levels], dtype=np.int64)
        self.v_off = _offsets(self.n)
        self.l_off = _offsets(self.L)
        self.vl_count = self.n * self.L
        self.vl_off = _offsets(self.vl_count)

        self.row_inst = np.repeat(np.arange(B, dtype=np.int64), self.n)
        self.row_len = self.L[self.row_inst]
        self.row_off = np.zeros(len(self.row_inst) + 1, dtype=np.int64)
        np.cumsum(self.row_len, out=self.row_off[1:])

        # ŵ_k per level entry: computed exactly as the reference does,
        # (1+eps) ** arange(L), one instance at a time
        self.wk_l = np.concatenate(
            [lv.level_weight(np.arange(lv.num_levels)) for lv in self.levels]
        )
        # int32: level indices are tiny (all integer-exact)
        self.col_vl = np.concatenate(
            [np.tile(np.arange(lv.num_levels), g.n) for g, lv in zip(self.graphs, self.levels)]
        ).astype(np.int32)
        self.wk_vl = np.concatenate(
            [np.tile(self.wk_l[self.l_off[i] : self.l_off[i + 1]], self.graphs[i].n) for i in range(B)]
        )
        self.po3_vl = 3.0 * self.wk_vl
        self.b_vl = np.concatenate(
            [np.repeat(g.b.astype(np.float64), lv.num_levels) for g, lv in zip(self.graphs, self.levels)]
        )

        # Level offsets as python ints: the oracle's per-instance gamma
        # loop indexes these once per evaluation; numpy scalar indexing
        # costs ~10x a list access.
        self.l_off_list = self.l_off.tolist()

        # Runs of consecutive same-L instances: their stacked VL segments
        # reshape to one (rows, L) block, so per-row scans/sums cover a
        # whole run in one call with unchanged per-row rounding.
        self.vl_runs: list[tuple[int, int, int, int, int]] = []
        i = 0
        while i < B:
            j = i
            while j + 1 < B and self.L[j + 1] == self.L[i]:
                j += 1
            self.vl_runs.append(
                (
                    int(self.vl_off[i]),
                    int(self.vl_off[j + 1]),
                    int(self.v_off[i]),
                    int(self.v_off[j + 1]),
                    int(self.L[i]),
                )
            )
            i = j + 1

    # ------------------------------------------------------------------
    @classmethod
    def from_graphs(cls, graphs: list[Graph], eps: float) -> "GraphBatch":
        """Discretize every instance and assemble the batch layout."""
        levels = [discretize(g, eps) for g in graphs]
        return cls(graphs=graphs, levels=levels)

    # ------------------------------------------------------------------
    def zeros_vl(self) -> np.ndarray:
        """Fresh float64 buffer over the VL space."""
        return np.zeros(int(self.vl_off[-1]), dtype=np.float64)

    def vl_view(self, buf: np.ndarray, i: int) -> np.ndarray:
        """Instance ``i``'s ``(n_i, L_i)`` plane as a contiguous view.

        The view has exactly the memory layout of a standalone array, so
        reductions/scans on it round identically to the reference path.
        """
        seg = buf[self.vl_off[i] : self.vl_off[i + 1]]
        return seg.reshape(int(self.n[i]), int(self.L[i]))

    def l_view(self, buf: np.ndarray, i: int) -> np.ndarray:
        """Instance ``i``'s per-level segment of a level-space buffer."""
        return buf[self.l_off[i] : self.l_off[i + 1]]


def _concat_i64(parts: list[np.ndarray]) -> np.ndarray:
    return (
        np.concatenate(parts).astype(np.int64)
        if parts
        else np.empty(0, dtype=np.int64)
    )


# ----------------------------------------------------------------------
# Batched dual state
# ----------------------------------------------------------------------
class DualBatch:
    """The batch's layered-dual state, sharing one flat ``x`` buffer.

    Each instance also owns a :class:`~repro.core.relaxations.
    LayeredDual` whose ``x`` is a *contiguous view* into the buffer, so
    per-instance code (``certify``, round-start multipliers) operates
    on the live state; the odd-set penalties ``z`` stay per-instance
    dicts on those objects (they are sparse and rarely populated).
    ``zload`` caches :meth:`~repro.core.relaxations.LayeredDual.z_load`
    per instance and is refreshed only when a blend actually touches
    ``z``.
    """

    def __init__(self, batch: GraphBatch):
        self.batch = batch
        self.x = batch.zeros_vl()
        self.duals: list[LayeredDual] = [
            LayeredDual(batch.levels[i], batch.vl_view(self.x, i))
            for i in range(batch.size)
        ]
        self.zload = batch.zeros_vl()

    def refresh_zload(self, i: int) -> None:
        """Recompute the cached z-load plane of instance ``i``."""
        view = self.batch.vl_view(self.zload, i)
        view[:] = self.duals[i].z_load()


# ----------------------------------------------------------------------
# Stored-edge layout of the current sparsifiers
# ----------------------------------------------------------------------
@dataclass
class StoredBatchLayout:
    """Concatenated layout of every active instance's current stored edges.

    Rebuilt by the lockstep engine whenever an instance advances to a
    different deferred sparsifier (or enters/leaves the inner phase);
    between rebuilds every inner step reuses the same gather arrays.
    Inactive instances contribute empty segments.  The build reads each
    stored edge's endpoints once and keeps them (``src``/``dst``), so the
    odd-set stages of the inner steps read no edge data.
    """

    off: np.ndarray  # (B+1,) offsets into the concatenated arrays
    ids: list[np.ndarray | None]  # local stored edge ids per instance
    lvl: list[np.ndarray | None]  # local levels of those edges
    src: list[np.ndarray | None]  # local endpoints of those edges
    dst: list[np.ndarray | None]
    src_vl: np.ndarray  # VL gather index of the src endpoint
    dst_vl: np.ndarray
    wk: np.ndarray  # ŵ_{level_e} per stored edge
    probs: np.ndarray  # inflated sampling probabilities
    l_idx: np.ndarray  # level-space scatter index
    counts: np.ndarray  # per-instance stored-edge counts (= diff(off))
    off_list: list[int]  # off as python ints (hot-loop indexing)

    @classmethod
    def build(cls, batch: GraphBatch, per_instance: dict[int, tuple[np.ndarray, np.ndarray]]) -> "StoredBatchLayout":
        """Assemble from ``{instance: (stored_local_ids, probs)}``."""
        B = batch.size
        counts = np.zeros(B, dtype=np.int64)
        ids: list[np.ndarray | None] = [None] * B
        lvl: list[np.ndarray | None] = [None] * B
        src: list[np.ndarray | None] = [None] * B
        dst: list[np.ndarray | None] = [None] * B
        src_parts, dst_parts, wk_parts, p_parts, l_parts = [], [], [], [], []
        for i in range(B):
            if i not in per_instance:
                continue
            stored, probs = per_instance[i]
            g = batch.graphs[i]
            counts[i] = len(stored)
            ids[i] = stored
            lvl[i] = k = batch.levels[i].level[stored]
            src[i] = np.asarray(g.src[stored])
            dst[i] = np.asarray(g.dst[stored])
            base = batch.vl_off[i]
            Li = int(batch.L[i])
            src_parts.append(base + src[i] * Li + k)
            dst_parts.append(base + dst[i] * Li + k)
            wk_parts.append(batch.wk_l[batch.l_off[i] + k])
            p_parts.append(probs)
            l_parts.append(batch.l_off[i] + k)
        off = _offsets(counts)
        # guarded: layout rebuilds are per-phase, not per-tick, but the
        # field sums still must cost nothing when no trace is active
        _sp = obs.current_span()
        if _sp is not None:
            _sp.event(
                "solver.batch_layout",
                instances=B,
                active=len(per_instance),
                stored=int(counts.sum()),
            )
        cat_f = lambda parts: (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
        )
        return cls(
            off=off,
            ids=ids,
            lvl=lvl,
            src=src,
            dst=dst,
            src_vl=_concat_i64(src_parts),
            dst_vl=_concat_i64(dst_parts),
            wk=cat_f(wk_parts),
            probs=cat_f(p_parts),
            l_idx=_concat_i64(l_parts),
            counts=counts,
            off_list=off.tolist(),
        )
