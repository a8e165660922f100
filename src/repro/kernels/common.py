"""Backend-neutral types shared by both kernel implementations.

The fused Algorithm 5 kernel writes into preallocated scratch buffers
(:class:`OracleScratch`) owned by the caller -- one allocation per
batch layout, shared by the
:class:`~repro.core.micro_oracle.BatchMicroContext` of every inner step
on that layout and reused across every Lagrangian evaluation -- and
returns an :class:`OracleEvalResult` of views into them.  Callers must
copy anything they keep (``BatchMicroContext.evaluate`` copies each
step's plane into its ``LayeredDual``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MERSENNE_P",
    "OracleScratch",
    "OracleEvalResult",
    "blossom_input",
    "forest_input",
]

# canonical definition lives in repro.sketch.hashing; repeated here so
# the kernel layer has no repro-internal imports (hashing imports us)
MERSENNE_P = (1 << 61) - 1


class OracleScratch:
    """Reusable buffers for the fused Algorithm 5 kernel.

    Sized once from the batch layout; every array is overwritten
    wholesale by each evaluation (stale segments of instances outside
    the evaluated subset are never read).
    """

    def __init__(self, nvl: int, nv: int, nl: int, B: int, max_L: int,
                 max_rows: int, max_hik: int):
        self.net = np.empty(nvl)
        self.prefix = np.empty(nvl)
        self.cs = np.empty(nvl)
        self.row_tot = np.zeros(nv)
        self.step_x = np.empty(nvl)
        self.k_star_row = np.empty(nv, dtype=np.int64)
        self.gamma = np.zeros(B)
        self.gamma_v = np.zeros(B)
        self.po = np.zeros(B)
        self.rho = np.zeros(B)
        self.beta = np.ones(B)
        self.route = np.zeros(B, dtype=np.uint8)
        self.active = np.zeros(B, dtype=np.uint8)
        self.goflag = np.zeros(B, dtype=np.uint8)
        self.tmp_l = np.empty(max(1, max_L))
        self.gath = np.empty(max(1, max_rows))
        self.pobuf = np.empty(max(1, max_hik))

    @classmethod
    def for_batch(cls, batch, hik_off: np.ndarray) -> "OracleScratch":
        B = batch.size
        return cls(
            nvl=int(batch.vl_off[-1]),
            nv=int(batch.v_off[-1]),
            nl=int(batch.l_off[-1]),
            B=B,
            max_L=int(batch.L.max()) if B else 0,
            max_rows=int(batch.n.max()) if B else 0,
            max_hik=int(np.diff(hik_off).max()) if B else 0,
        )


@dataclass
class OracleEvalResult:
    """Outputs of one fused Algorithm 5 evaluation (views into scratch).

    ``route[i]`` for evaluated instances: 0 = zero route, 1 = vertex
    route, 2 = needs the odd-set/witness tail (steps 9-21, run by the
    caller in Python).  ``step_x``/``po`` are populated only when some
    instance took the vertex route (``step_x is None`` otherwise);
    ``k_star_row``/``pos_net`` follow the reference's full-buffer
    semantics and are valid whenever ``any_go`` is True.
    """

    any_go: bool
    gamma: np.ndarray
    gamma_v: np.ndarray
    route: np.ndarray
    k_star_row: np.ndarray
    pos_net: np.ndarray
    step_x: np.ndarray | None
    po: np.ndarray


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
