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
_sig(
    "rk_dual_scatter", None,
    c_void_p, c_void_p, c_int64, c_void_p, c_void_p, c_void_p, c_void_p, c_int64, c_void_p,
)
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
    c_void_p, c_void_p, c_void_p, c_void_p, c_int64, c_void_p, c_void_p, c_void_p, c_void_p,
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
    cached on it: ``idx``, ``row_ptr``, ``hik``, the layout's ``v_off``
    and ``vl_off``, then ``hik_idx``, ``hik_off``, ``wk`` and ``l_idx``
    (None without level ids).  An ndarray's buffer address is fixed for
    its lifetime, and the list keeps its arrays alive."""
    if cells.ptrs is None:
        cells.ptrs = tuple(None if a is None else _p(a) for a in (
            cells.idx, cells.row_ptr, cells.hik, cells.v_off, cells.vl_off,
            cells.hik_idx, cells.hik_off, cells.wk, cells.l_idx,
        ))
    return cells.ptrs


def _layout_ptrs(lay) -> tuple:
    """Raw pointers of a stored-edge layout (checked when it is built),
    cached on it: ``src_vl``, ``dst_vl``, ``off``, ``wk``, ``probs`` and
    ``l_idx``."""
    if lay.ptrs is None:
        lay.ptrs = tuple(map(_p, (lay.src_vl, lay.dst_vl, lay.off, lay.wk, lay.probs, lay.l_idx)))
    return lay.ptrs


def _buffer(a, size: int, name: str) -> np.ndarray:
    """``a`` if it is a C-contiguous float64 array of ``size`` entries,
    which a kernel may read or write through its address."""
    if not (
        isinstance(a, np.ndarray) and a.dtype == _F64
        and a.flags.c_contiguous and a.size == size
    ):
        raise ValueError(f"{name} must be a C-contiguous float64 array of {size} entries")
    return a


def _values(a, size: int, name: str, dtype=_F64) -> np.ndarray:
    """``a`` as a C-contiguous array of ``dtype``, refused unless it has
    ``size`` entries."""
    v = _c(a, dtype)
    if v.size != size:
        raise ValueError(f"{name} must have {size} entries, got {v.size}")
    return v


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
def gather_add2(buf, lay) -> np.ndarray:
    _buffer(buf, lay.nvl, "buf")
    src, dst, *_ = _layout_ptrs(lay)
    out = np.empty(lay.off_list[-1], dtype=_F64)
    _lib.rk_gather_add2(_p(buf), src, dst, _p(out), len(out))
    return out


def dual_scatter(vals, out, lay, cells) -> np.ndarray:
    n = lay.off_list[-1]
    vc = _values(vals, n, "vals")
    if cells.vl_off[-1] != lay.nvl:
        raise ValueError("the cell list and the stored-edge layout are of different batches")
    _buffer(out, lay.nvl, "out")
    src, dst, *_, l_idx = _layout_ptrs(lay)
    us_mass = np.zeros(lay.nl, dtype=_F64)
    _lib.rk_dual_scatter(
        _p(out), _cell_ptrs(cells)[0], len(cells.idx), src, dst, l_idx, _p(vc), n, _p(us_mass),
    )
    return us_mass


def blend(x, steps, sigmas, cells) -> None:
    planes = _plane_ptrs(steps, cells)
    sig = _c(sigmas, _F64)
    if not (
        x.dtype == _F64 and x.flags.c_contiguous and x.size == cells.vl_off[-1]
        and len(sig) == len(planes)
    ):
        raise ValueError("x and sigmas must match the cell list's layout")
    idx, row_ptr, _hik, v_off, vl_off, *_ = _cell_ptrs(cells)
    _lib.rk_blend(_p(x), _p(planes), _p(sig), idx, row_ptr, v_off, vl_off, len(planes))


def width_box(steps, zloads, cells) -> np.ndarray:
    planes = _plane_ptrs(steps, cells)
    zplanes = None if zloads is None else _plane_ptrs(zloads, cells)
    box = np.empty(len(planes), dtype=_F64)
    idx, row_ptr, hik, v_off, vl_off, _hik_idx, _hik_off, wk, _l_idx = _cell_ptrs(cells)
    _lib.rk_width_box(
        _p(planes), None if zplanes is None else _p(zplanes),
        idx, row_ptr, hik, v_off, vl_off, wk, len(planes), _p(box),
    )
    return box


# ----------------------------------------------------------------------
# Inner-tick fused stages
# ----------------------------------------------------------------------
def tick_stored_shift(cov, alphas, lay) -> np.ndarray:
    B = len(lay.off_list) - 1
    cov = _values(cov, lay.off_list[-1], "cov")
    alphas = _values(alphas, B, "alphas")
    _src, _dst, off, wk, *_ = _layout_ptrs(lay)
    shifted = np.empty(len(cov), dtype=_F64)
    _lib.rk_tick_stored_shift(_p(cov), wk, off, B, _p(alphas), _p(shifted))
    return shifted


def tick_stored_post(e, lay):
    B = len(lay.off_list) - 1
    e = _values(e, lay.off_list[-1], "e")
    _src, _dst, off, wk, probs, _ = _layout_ptrs(lay)
    support_vals = np.empty(len(e), dtype=_F64)
    scratch = np.empty(len(e), dtype=_F64)
    usc = np.zeros(B, dtype=_F64)
    _lib.rk_tick_stored_post(_p(e), wk, probs, off, B, _p(support_vals), _p(scratch), _p(usc))
    return support_vals, usc


def tick_pack_arg(x, zload, alpha_p, active, cells):
    nvl, B = int(cells.vl_off[-1]), len(cells.vl_count)
    _buffer(x, nvl, "x")
    z = x if zload is None else _buffer(zload, nvl, "zload")  # dummy pointer when unused
    alpha_p = _values(alpha_p, B, "alpha_p")
    act = _values(active, B, "active", np.uint8)
    *_, hik_idx, hik_off, wk, _l_idx = _cell_ptrs(cells)
    arg = np.empty(len(cells.hik_idx), dtype=_F64)
    _lib.rk_tick_pack_arg(
        _p(x), _p(z), int(zload is not None), hik_idx, wk, _p(alpha_p),
        hik_off, B, _p(act), _p(arg),
    )
    return arg


def tick_pack_post(e, cells):
    B = len(cells.vl_count)
    e = _values(e, len(cells.hik_idx), "e")
    *_, hik_off, wk, l_idx = _cell_ptrs(cells)
    zmul = np.empty(len(e), dtype=_F64)
    scratch = np.empty(len(e), dtype=_F64)
    qo = np.zeros(B, dtype=_F64)
    zsum = np.zeros(cells.nl, dtype=_F64)
    _lib.rk_tick_pack_post(_p(e), wk, hik_off, l_idx, B, _p(zmul), _p(scratch), _p(qo), _p(zsum))
    return zmul, qo, None if l_idx is None else zsum


# ----------------------------------------------------------------------
# Fused Algorithm 5
# ----------------------------------------------------------------------
def _scratch_ptrs(sc: OracleScratch) -> tuple:
    """``rk_oracle_eval``'s fixed arguments, in four runs around the
    per-call ones: the layout and its cells, then ``s`` and the has_ik
    tables, then ``active``, ``rho`` and ``beta``, then the outputs and
    work buffers.  The scratch keeps every array alive."""
    b = sc.batch
    idx, row_ptr, hik, _v_off, _vl_off, hik_idx, hik_off, *_ = _cell_ptrs(sc.cells)
    return (
        (b.size, *map(_p, (b.l_off, b.v_off, b.row_off, b.row_len, b.wk_l, b.b_vl)),
         idx, row_ptr, hik),
        (_p(sc.s), hik_idx, hik_off),
        tuple(map(_p, (sc.active, sc.rho, sc.beta))),
        tuple(map(_p, (
            sc.tmp_l, sc.row, sc.pc, sc.gath, sc.pobuf, sc.goflag,
            sc.gamma, sc.gamma_v, sc.k_star_row, sc.net, sc.route, sc.step_x, sc.po,
        ))),
    )


def oracle_eval(us_mass, zsum, zmul, sub, eps: float, scratch: OracleScratch) -> int:
    # the kernel reads us_mass and zsum over the level space, and zmul
    # at the has_ik positions of the scratch's list
    nl = scratch.batch.l_off_list[-1]
    us_mass, zsum = _values(us_mass, nl, "us_mass"), _values(zsum, nl, "zsum")
    zmul = _values(zmul, len(scratch.cells.hik_idx), "zmul")
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
