"""Backend-neutral types shared by both kernel implementations.

The fused Algorithm 5 kernel reads and writes the buffers of one
:class:`OracleScratch`, built once per batch layout beside the
:class:`OracleCells` list its native form visits, and shared by the
:class:`~repro.core.micro_oracle.BatchMicroContext` of every inner step
on that layout.  Each evaluation overwrites the scratch's outputs, so
callers copy what they keep past the next one (``BatchMicroContext.
evaluate`` hands out each step as a view of ``step_x`` and copies it
out before evaluating again).  The inner tick's other kernels read
their indices, offsets and per-cell constants from the cell list and
from the stored-edge layout
(:class:`~repro.core.batch.StoredBatchLayout`), which check them when
they are built.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MERSENNE_P",
    "OracleCells",
    "OracleScratch",
    "blossom_input",
    "forest_input",
    "scatter_input",
]

# canonical definition lives in repro.sketch.hashing; repeated here so
# the kernel layer has no repro-internal imports (hashing imports us)
MERSENNE_P = (1 << 61) - 1


class OracleCells:
    """A cell list of a batch layout: the cells a native kernel visits.

    Built once per batch layout from its has_ik cells ``hik_idx`` (the
    VL ids where ``zeta`` may be nonzero; strictly increasing, as the
    solver builds them) plus optional ``extra`` VL ids.  For the native
    ``oracle_eval`` they must cover every cell where the support scatter
    ``s`` may be nonzero; for ``blend``, every cell where ``x`` or a step
    may be nonzero.  Holds the sorted, distinct VL ids ``idx``, each
    vertex row's first cell ``row_ptr`` (row ``r``'s cells are
    ``idx[row_ptr[r]:row_ptr[r + 1]]``, so instance ``i``'s start at
    ``row_ptr[v_off[i]]``), each cell's position in ``hik_idx``
    (``hik``, ``-1`` off has_ik), and ``hik_idx`` itself with each
    instance's first position in it (``hik_off``).  Each has_ik cell
    also gets its ``ŵ_k`` (``wk``) and its level-space id (``l_idx``;
    None when an instance has fewer than two levels).  The C kernels
    index through these arrays, so they are checked here, once: sorted,
    in range, pointers consistent with the layout's rows.  The layout's
    offset tables (``row_off``, ``v_off``, ``vl_off``) stay with the
    list; the native wrappers read them from here.
    """

    def __init__(self, batch, hik_idx, extra=None):
        hik_idx = np.ascontiguousarray(hik_idx, dtype=np.int64)
        if hik_idx.ndim != 1 or not bool((hik_idx[1:] > hik_idx[:-1]).all()):
            raise ValueError("hik_idx must be a strictly increasing 1-d array")
        if extra is None:
            idx = hik_idx.copy()
        else:
            extra = np.ascontiguousarray(extra, dtype=np.int64).ravel()
            idx = np.union1d(hik_idx, extra).astype(np.int64)
        # sorted and distinct by construction; the range bounds every row
        if idx.size and not (idx[0] >= 0 and idx[-1] < batch.vl_off[-1]):
            raise ValueError("cells must be VL ids of the layout")
        self.idx = idx
        self.row_ptr = np.searchsorted(idx, batch.row_off).astype(np.int64)
        self.hik = np.full(idx.size, -1, dtype=np.int64)
        self.hik[np.searchsorted(idx, hik_idx)] = np.arange(hik_idx.size)
        self.hik_idx = hik_idx
        # strictly increasing and in range: the per-instance counts
        self.hik_off = np.searchsorted(hik_idx, batch.vl_off).astype(np.int64)
        self.wk = batch.wk_vl[hik_idx]
        self.l_idx = None
        if batch.size and int(batch.L.min()) >= 2:
            inst_l_off = np.repeat(batch.l_off[:-1], np.diff(self.hik_off))
            self.l_idx = inst_l_off + batch.col_vl[hik_idx]
        self.row_off = batch.row_off
        self.v_off = batch.v_off
        self.vl_off = batch.vl_off
        self.vl_count = batch.vl_count.tolist()
        self.ptrs: tuple | None = None  # the native wrappers' raw pointers


class OracleScratch:
    """The fused Algorithm 5 kernel's per-batch state.

    Built once per batch layout for one cell list of that layout, and
    reused by every evaluation on it.  Holds the support scatter ``s``
    (zero off the cells, where ``dual_scatter`` clears and writes it),
    the per-call multipliers ``rho`` and ``beta``, the kernel's outputs
    (``gamma``, ``gamma_v``, ``route``, ``k_star_row``, ``net`` -- the
    positive net -- ``step_x`` and ``po``) and its work buffers:
    ``prefix``, ``cs`` and ``row_tot`` serve the numpy reference,
    ``row``, ``pc``, ``tmp_l``, ``gath``, ``pobuf``, ``active`` and
    ``goflag`` the native kernel.
    The native kernel writes ``net`` and ``step_x`` only at the cells,
    so both start zeroed.  Segments of instances outside an
    evaluation's subset hold stale values and are never read.
    """

    def __init__(self, batch, cells: OracleCells):
        if cells.row_off is not batch.row_off:
            raise ValueError("cells were built for another batch")
        self.batch = batch
        self.cells = cells
        B, nv, nvl = batch.size, int(batch.v_off[-1]), int(batch.vl_off[-1])
        max_L = int(batch.L.max(initial=1))
        self.s = np.zeros(nvl)
        self.rho = np.zeros(B)
        self.beta = np.ones(B)
        self.gamma = np.zeros(B)
        self.gamma_v = np.zeros(B)
        self.route = np.zeros(B, dtype=np.uint8)
        self.k_star_row = np.empty(nv, dtype=np.int64)
        self.net = np.zeros(nvl)
        self.step_x = np.zeros(nvl)
        self.po = np.zeros(B)
        self.prefix = np.empty(nvl)
        self.cs = np.empty(nvl)
        self.row_tot = np.zeros(nv)
        self.row = np.zeros(max_L)  # kept zero between rows
        self.pc = np.empty(2 * max_L)
        self.tmp_l = np.empty(max_L)
        self.gath = np.empty(int(batch.n.max(initial=1)))
        self.pobuf = np.empty(int(np.diff(cells.hik_off).max(initial=1)))
        self.active = np.zeros(B, dtype=np.uint8)
        self.goflag = np.zeros(B, dtype=np.uint8)
        self.ptrs: tuple | None = None  # the native wrapper's raw pointers


def blossom_input(nv, src, dst, weight) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Normalize and check ``blossom_mates`` arguments (both backends).

    The native kernel indexes its arrays by endpoint, so an endpoint
    outside ``0..nv-1`` must fail here, the same way on both sides.
    """
    nv = int(nv)
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    weight = np.ascontiguousarray(weight, dtype=np.float64)
    if nv < 0:
        raise ValueError(f"vertex count must be >= 0, got {nv}")
    if not (src.ndim == dst.ndim == weight.ndim == 1 and len(src) == len(dst) == len(weight)):
        raise ValueError("src, dst and weight must be 1-d arrays of equal length")
    if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= nv):
        raise ValueError("edge endpoint out of range")
    return nv, src, dst, weight


def scatter_input(idx, vals, size) -> tuple[np.ndarray, np.ndarray, int]:
    """Normalize and check ``index_scatter`` arguments (both backends).

    The result has ``size`` entries and the native kernel adds into it
    at ``idx``, so an id outside ``0..size-1`` must fail here, the same
    way on both sides.
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    size = int(size)
    if not (idx.ndim == vals.ndim == 1 and len(idx) == len(vals)) or size < 0:
        raise ValueError("idx and vals must be 1-d arrays of equal length, size >= 0")
    # as uint64 a negative id is huge, so one max checks both ends
    if len(idx) and idx.view(np.uint64).max() >= size:
        raise ValueError(f"scatter id out of range for size {size}")
    return idx, vals, size


def forest_input(table, count, k, src, dst, out) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Normalize and check ``forest_place`` arguments (both backends).

    The table and ``out`` are written in place, so they must already
    have the kernel's layout; endpoints index the table's rows, so one
    outside ``0..n-1`` must fail here, the same way on both sides.
    """
    count, k = int(count), int(k)
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    if not (
        isinstance(table, np.ndarray) and table.ndim == 2
        and table.dtype == np.int32 and table.flags.c_contiguous
    ):
        raise ValueError("table must be a C-contiguous 2-d int32 array")
    if not (
        isinstance(out, np.ndarray) and out.ndim == 1
        and out.dtype == np.int64 and out.flags.c_contiguous
    ):
        raise ValueError("out must be a C-contiguous 1-d int64 array")
    if not (src.ndim == dst.ndim == 1 and len(src) == len(dst) <= len(out)):
        raise ValueError("src and dst must be 1-d arrays of equal length, "
                         "no longer than out")
    if not 0 <= count <= len(table) or k < 1:
        raise ValueError(f"need 0 <= count <= capacity and k >= 1, got {count}, {k}")
    # as uint64 a negative endpoint is huge, so one max checks both ends
    u64 = np.uint64
    if len(src) and np.maximum(src.view(u64), dst.view(u64)).max() >= table.shape[1]:
        raise ValueError("edge endpoint out of range")
    return count, k, src, dst
