"""ctypes wrappers around the compiled C kernels.

Each public function here mirrors the signature and semantics of its
counterpart in :mod:`repro.kernels.numpy_impl` exactly -- same argument
conventions, same scalar/array behavior, same error behavior -- so the
dispatch layer can swap the two freely.  Parity is enforced by
``tests/test_kernels.py``.

Importing this module compiles (or loads from cache) the shared
library; any failure surfaces as :class:`~repro.kernels.build.
NativeBuildError`, which ``repro.kernels`` turns into a numpy fallback
under ``REPRO_KERNELS=auto``.
"""

from __future__ import annotations

import ctypes
from ctypes import byref, c_double, c_int64, c_void_p

import numpy as np

from repro.kernels.build import load_library
from repro.kernels.common import (
    OracleCells,
    OracleScratch,
    blossom_input,
    forest_input,
)

_lib = load_library()

_F64 = np.float64
_I64 = np.int64
_U64 = np.uint64


def _sig(name: str, restype, *argtypes) -> None:
    fn = getattr(_lib, name)
    fn.restype = restype
    fn.argtypes = list(argtypes)


# pointers are passed as raw addresses (c_void_p): every wrapper owns
# the contiguity/dtype normalization, so no per-call ctypes inspection
_sig("rk_mod_mersenne", None, c_void_p, c_void_p, c_int64)
_sig("rk_mulmod", None, c_void_p, c_void_p, c_void_p, c_int64)
_sig("rk_sum_mod_p_axis0", None, c_void_p, c_int64, c_int64, c_void_p)
_sig(
    "rk_sketch_ingest", None,
    c_void_p, c_void_p, c_void_p,
    c_int64, c_int64, c_int64, c_int64,
    c_void_p, c_int64, c_void_p, c_int64,
    c_void_p, c_int64,
    c_void_p, c_void_p, c_void_p, c_void_p, c_int64,
)
_sig(
    "rk_decode_planes", None,
    c_void_p, c_void_p, c_void_p, c_void_p,
    c_int64, c_int64, c_int64, c_int64, c_void_p, c_void_p,
)
_sig("rk_gather_add2", None, c_void_p, c_void_p, c_void_p, c_void_p, c_int64)
_sig("rk_dual_scatter", None, c_void_p, c_void_p, c_int64, c_void_p, c_void_p, c_void_p, c_int64)
_sig("rk_index_scatter", None, c_void_p, c_void_p, c_void_p, c_int64)
_sig(
    "rk_blend", None,
    c_void_p, c_void_p, c_void_p, c_void_p, c_void_p, c_void_p, c_void_p, c_int64,
)
_sig(
    "rk_width_box", None,
    c_void_p, c_void_p, c_void_p, c_void_p, c_void_p, c_void_p, c_void_p, c_void_p,
    c_int64, c_void_p,
)
_sig("rk_tick_stored_shift", None, c_void_p, c_void_p, c_void_p, c_int64, c_void_p, c_void_p)
_sig(
    "rk_tick_stored_post", None,
    c_void_p, c_void_p, c_void_p, c_void_p, c_int64, c_void_p, c_void_p, c_void_p,
)
_sig(
    "rk_tick_pack_arg", None,
    c_void_p, c_void_p, c_int64, c_void_p, c_void_p, c_void_p, c_void_p, c_int64,
    c_void_p, c_void_p,
)
_sig(
    "rk_tick_pack_post", None,
    c_void_p, c_void_p, c_void_p, c_void_p, c_int64, c_void_p,
    c_void_p, c_void_p, c_void_p,
)
_sig(
    "rk_oracle_eval", c_int64,
    c_int64, c_void_p, c_void_p, c_void_p, c_void_p,
    c_void_p, c_void_p,
    c_void_p, c_void_p, c_void_p,
    c_void_p, c_void_p, c_void_p,
    c_void_p, c_void_p, c_void_p,
    c_void_p, c_void_p, c_void_p, c_double,
    c_void_p, c_void_p, c_void_p, c_void_p, c_void_p,
    c_void_p,
    c_void_p, c_void_p, c_void_p, c_void_p,
    c_void_p, c_void_p, c_void_p,
)
_sig("rk_blossom_mates", c_int64, c_int64, c_int64, c_void_p, c_void_p, c_void_p, c_void_p)
_sig(
    "rk_forest_place", c_int64,
    c_void_p, c_int64, c_int64, c_int64, c_void_p, c_void_p, c_void_p, c_int64, c_void_p,
)


def _p(a: np.ndarray) -> int:
    """Raw data pointer of a (known C-contiguous, right-dtype) array.

    The address of a ctypes view of the buffer costs a third of
    ``ndarray.ctypes.data``, which builds a ctypes helper object on
    every access.  A read-only, empty or non-contiguous array cannot
    lend a writable buffer and takes the slow path.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError, BufferError):
        return a.ctypes.data


def _c(a, dtype) -> np.ndarray:
    """Normalize to a C-contiguous array of the given dtype."""
    return np.ascontiguousarray(a, dtype=dtype)


def _cell_ptrs(cells: OracleCells) -> tuple:
    """Raw pointers of a cell list (checked and fixed once it is built),
    cached on it: ``idx``, ``row_ptr``, ``hik``, then the layout's
    ``v_off`` and ``vl_off``.  An ndarray's buffer address is fixed for
    its lifetime, and the list keeps its arrays alive."""
    if cells.ptrs is None:
        cells.ptrs = tuple(
            _p(a) for a in (cells.idx, cells.row_ptr, cells.hik, cells.v_off, cells.vl_off)
        )
    return cells.ptrs


def _plane_ptrs(planes, cells: OracleCells) -> np.ndarray:
    """Addresses of per-instance ``(n_i, L_i)`` float64 planes (0 for
    None), each checked to span exactly its instance's VL segment, so a
    kernel that reads a plane at its cells stays inside it."""
    count = cells.vl_count
    if len(planes) != len(count):
        raise ValueError(f"need one plane (or None) per instance, got {len(planes)}")
    ptrs = np.zeros(len(count), dtype=_I64)
    for i, p in enumerate(planes):
        if p is None:
            continue
        if not (
            isinstance(p, np.ndarray) and p.dtype == _F64
            and p.flags.c_contiguous and p.size == count[i]
        ):
            raise ValueError(
                f"plane {i} must be a C-contiguous float64 array of {count[i]} entries"
            )
        ptrs[i] = _p(p)
    return ptrs


# ----------------------------------------------------------------------
# Mersenne-prime arithmetic
# ----------------------------------------------------------------------
def mod_mersenne(x) -> np.ndarray:
    a = np.asarray(x, dtype=_U64)
    ac = _c(a, _U64)  # note: promotes 0-d to 1-d, hence the reshape
    out = np.empty(a.shape, dtype=_U64)
    _lib.rk_mod_mersenne(_p(ac), _p(out), a.size)
    return out


def mulmod(a, b) -> np.ndarray:
    aa, bb = np.broadcast_arrays(np.asarray(a, dtype=_U64), np.asarray(b, dtype=_U64))
    shape = aa.shape
    aa, bb = _c(aa, _U64), _c(bb, _U64)
    out = np.empty(shape, dtype=_U64)
    _lib.rk_mulmod(_p(aa), _p(bb), _p(out), aa.size)
    return out


def sum_mod_p(values, axis: int = 0) -> np.ndarray:
    v = np.asarray(values, dtype=_U64)
    v0 = _c(np.moveaxis(v, axis, 0), _U64)
    k = v0.shape[0] if v0.ndim else 1
    rest_shape = v0.shape[1:]
    rest = int(np.prod(rest_shape)) if rest_shape else 1
    out = np.empty(rest, dtype=_U64)
    _lib.rk_sum_mod_p_axis0(_p(v0), k, rest, _p(out))
    return out.reshape(rest_shape)


# ----------------------------------------------------------------------
# Fused sketch ingestion / decode
# ----------------------------------------------------------------------
def sketch_ingest(s0, s1, fp, coeffs, ztab, rowsel, slot_arr, indices, deltas, dmod) -> None:
    slots, rows, reps, levels = s0.shape
    rs = _c(rowsel, _I64)
    sa = _c(slot_arr, _I64)
    ix = _c(indices, _I64)
    dl = _c(deltas, _I64)
    dm = _c(dmod, _U64)
    _lib.rk_sketch_ingest(
        _p(s0), _p(s1), _p(fp),
        slots, rows, reps, levels,
        _p(coeffs), coeffs.shape[-1], _p(ztab), ztab.shape[-1],
        _p(rs), rs.size,
        _p(sa), _p(ix), _p(dl), _p(dm), ix.size,
    )


def decode_planes(s0, s1, fp, z, universe: int) -> list[tuple[int, int] | None]:
    groups, reps, levels = s0.shape
    s0c, s1c = _c(s0, _I64), _c(s1, _I64)
    fpc, zc = _c(fp, _U64), _c(z, _U64)
    out_idx = np.empty(groups, dtype=_I64)
    out_val = np.empty(groups, dtype=_I64)
    _lib.rk_decode_planes(
        _p(s0c), _p(s1c), _p(fpc), _p(zc),
        groups, reps, levels, universe, _p(out_idx), _p(out_val),
    )
    return [
        (int(q), int(v)) if q >= 0 else None
        for q, v in zip(out_idx.tolist(), out_val.tolist())
    ]


# ----------------------------------------------------------------------
# Segment / scatter / gather primitives
# ----------------------------------------------------------------------
def gather_add2(buf, idx_a, idx_b) -> np.ndarray:
    out = np.empty(len(idx_a), dtype=_F64)
    _lib.rk_gather_add2(_p(buf), _p(idx_a), _p(idx_b), _p(out), len(idx_a))
    return out


def dual_scatter(src, dst, vals, out, cells) -> None:
    sc, dc, vc = _c(src, _I64), _c(dst, _I64), _c(vals, _F64)
    if not (
        isinstance(out, np.ndarray) and out.dtype == _F64 and out.flags.c_contiguous
        and out.size == cells.vl_off[-1]
    ):
        raise ValueError("out must be a C-contiguous float64 array of the cell list's layout")
    _lib.rk_dual_scatter(
        _p(out), _cell_ptrs(cells)[0], len(cells.idx), _p(sc), _p(dc), _p(vc), len(vc)
    )


def index_scatter(idx, vals, size: int) -> np.ndarray:
    ic, vc = _c(idx, _I64), _c(vals, _F64)
    out = np.zeros(size, dtype=_F64)
    _lib.rk_index_scatter(_p(out), _p(ic), _p(vc), len(vc))
    return out


def blend(x, steps, sigmas, cells) -> None:
    planes = _plane_ptrs(steps, cells)
    sig = _c(sigmas, _F64)
    if not (
        x.dtype == _F64 and x.flags.c_contiguous and x.size == cells.vl_off[-1]
        and len(sig) == len(planes)
    ):
        raise ValueError("x and sigmas must match the cell list's layout")
    idx, row_ptr, _hik, v_off, vl_off = _cell_ptrs(cells)
    _lib.rk_blend(_p(x), _p(planes), _p(sig), idx, row_ptr, v_off, vl_off, len(planes))


def width_box(steps, zloads, cells, wk_hik) -> np.ndarray:
    planes = _plane_ptrs(steps, cells)
    zplanes = None if zloads is None else _plane_ptrs(zloads, cells)
    wk = _c(wk_hik, _F64)
    if len(wk) != len(cells.hik_idx):
        raise ValueError("wk_hik must have one entry per has_ik cell of the list")
    box = np.empty(len(planes), dtype=_F64)
    idx, row_ptr, hik, v_off, vl_off = _cell_ptrs(cells)
    _lib.rk_width_box(
        _p(planes), None if zplanes is None else _p(zplanes),
        idx, row_ptr, hik, v_off, vl_off, _p(wk), len(planes), _p(box),
    )
    return box


# ----------------------------------------------------------------------
# Inner-tick fused stages
# ----------------------------------------------------------------------
def tick_stored_shift(cov, wk, off, alphas) -> np.ndarray:
    shifted = np.empty(len(cov), dtype=_F64)
    _lib.rk_tick_stored_shift(_p(cov), _p(wk), _p(off), len(off) - 1, _p(alphas), _p(shifted))
    return shifted


def tick_stored_post(e, wk, probs, off):
    B = len(off) - 1
    support_vals = np.empty(len(e), dtype=_F64)
    scratch = np.empty(len(e), dtype=_F64)
    usc = np.zeros(B, dtype=_F64)
    _lib.rk_tick_stored_post(
        _p(e), _p(wk), _p(probs), _p(off), B, _p(support_vals), _p(scratch), _p(usc)
    )
    return support_vals, usc


def tick_pack_arg(x, zload, hik_idx, po3_hik, alpha_p_hik, off, active):
    arg = np.empty(len(hik_idx), dtype=_F64)
    any_z = 0 if zload is None else 1
    z = x if zload is None else zload  # dummy pointer when unused
    _lib.rk_tick_pack_arg(
        _p(x), _p(z), any_z, _p(hik_idx), _p(po3_hik), _p(alpha_p_hik),
        _p(off), len(off) - 1, _p(active), _p(arg),
    )
    return arg


def tick_pack_post(e, po3_hik, hik_idx, off, zeta):
    B = len(off) - 1
    zmul = np.empty(len(e), dtype=_F64)
    scratch = np.empty(len(e), dtype=_F64)
    qo = np.zeros(B, dtype=_F64)
    _lib.rk_tick_pack_post(
        _p(e), _p(po3_hik), _p(hik_idx), _p(off), B, _p(zeta),
        _p(zmul), _p(scratch), _p(qo),
    )
    return zmul, qo


# ----------------------------------------------------------------------
# Fused Algorithm 5
# ----------------------------------------------------------------------
def _scratch_ptrs(sc: OracleScratch) -> tuple:
    """``rk_oracle_eval``'s fixed arguments, in four runs around the
    per-call ones: the layout and its cells, then ``s`` and the has_ik
    tables, then ``active``, ``rho`` and ``beta``, then the outputs and
    work buffers.  The scratch keeps every array alive."""
    b, c = sc.batch, sc.cells
    return (
        (b.size, *map(_p, (b.l_off, b.v_off, b.row_off, b.row_len, b.wk_l, b.b_vl)),
         *_cell_ptrs(c)[:3]),
        tuple(map(_p, (sc.s, c.hik_idx, c.hik_off))),
        tuple(map(_p, (sc.active, sc.rho, sc.beta))),
        tuple(map(_p, (
            sc.tmp_l, sc.row, sc.pc, sc.gath, sc.pobuf, sc.goflag,
            sc.gamma, sc.gamma_v, sc.k_star_row, sc.net, sc.route, sc.step_x, sc.po,
        ))),
    )


def oracle_eval(us_mass, zsum, zmul, sub, eps: float, scratch: OracleScratch) -> int:
    # the kernel reads zmul at the has_ik positions of the scratch's list
    if len(zmul) != len(scratch.cells.hik_idx):
        raise ValueError("zmul must have one entry per has_ik cell of the scratch's list")
    active = scratch.active
    active.fill(0)
    for i in sub:
        active[i] = 1
    if scratch.ptrs is None:
        scratch.ptrs = _scratch_ptrs(scratch)
    layout, s_hik, state, outs = scratch.ptrs
    return _lib.rk_oracle_eval(
        *layout, _p(us_mass), _p(zsum), *s_hik, _p(zmul), *state, eps, *outs
    )


# ----------------------------------------------------------------------
# Maximum-weight matching (port of networkx's blossom)
# ----------------------------------------------------------------------
def blossom_mates(nv, src, dst, weight) -> np.ndarray:
    nv, s, d, w = blossom_input(nv, src, dst, weight)
    mate = np.empty(nv, dtype=_I64)
    if _lib.rk_blossom_mates(nv, len(s), _p(s), _p(d), _p(w), _p(mate)) != 0:
        raise MemoryError(f"blossom_mates: out of memory (nv={nv}, m={len(s)})")
    return mate


# ----------------------------------------------------------------------
# Nagamochi-Ibaraki forest placement
# ----------------------------------------------------------------------
def forest_place(table, count, k, src, dst, out) -> tuple[int, int]:
    nf, k, s, d = forest_input(table, count, k, src, dst, out)
    cap, n = table.shape
    nfc = c_int64(nf)
    placed = _lib.rk_forest_place(
        _p(table), n, cap, k, byref(nfc), _p(s), _p(d), len(s), _p(out)
    )
    return placed, nfc.value
