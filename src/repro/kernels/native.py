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
import weakref
from ctypes import byref, c_double, c_int64, c_void_p

import numpy as np

from repro.kernels.build import load_library
from repro.kernels.common import (
    OracleCells,
    OracleEvalResult,
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
_sig("rk_powmod", None, c_void_p, c_void_p, c_void_p, c_int64)
_sig("rk_pow_from_table", None, c_void_p, c_int64, c_void_p, c_void_p, c_int64)
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


# Pointer memo for the solver-hot wrappers: each inner tick passes the
# same long-lived layout/scratch arrays dozens of times, and even
# ``_p`` costs about 1us per access.  Entries are keyed by ``id`` and
# validated by a weakref identity check, so id reuse after an array is
# freed can never serve a stale pointer; the weakref's callback drops
# the entry when its array dies, so the memo holds live arrays only.
# (An ndarray's buffer address is fixed for its lifetime; nothing in
# this repo calls ``ndarray.resize``.)
_ptr_memo: dict[int, tuple] = {}


def _pm(a: np.ndarray) -> int:
    key = id(a)
    ent = _ptr_memo.get(key)
    if ent is not None and ent[0]() is a:
        return ent[1]
    ptr = _p(a)

    def drop(ref, key=key, memo=_ptr_memo):
        # a newer array may have taken the id since: keep its entry
        if memo.get(key, (None,))[0] is ref:
            del memo[key]

    _ptr_memo[key] = (weakref.ref(a, drop), ptr)
    return ptr


def _c(a, dtype) -> np.ndarray:
    """Normalize to a C-contiguous array of the given dtype."""
    return np.ascontiguousarray(a, dtype=dtype)


def _cell_ptrs(cells: OracleCells) -> tuple:
    """Raw pointers of a cell list (checked and fixed once it is built):
    ``idx``, ``row_ptr``, ``hik``, then the layout's ``v_off`` and
    ``vl_off``."""
    try:
        return cells._nat_ptrs
    except AttributeError:
        cells._nat_ptrs = tuple(
            _p(a) for a in (cells.idx, cells.row_ptr, cells.hik, cells.v_off, cells.vl_off)
        )
        return cells._nat_ptrs


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


def powmod(base, exp):
    scalar = np.isscalar(base) and np.isscalar(exp)
    b = np.atleast_1d(np.asarray(base, dtype=_U64))
    e = np.atleast_1d(np.asarray(exp, dtype=_U64))
    b, e = np.broadcast_arrays(b, e)
    b, e = _c(b, _U64), _c(e, _U64)
    out = np.empty(b.shape, dtype=_U64)
    _lib.rk_powmod(_p(b), _p(e), _p(out), b.size)
    return int(out.flat[0]) if scalar else out


def pow_from_table(table, exps) -> np.ndarray:
    t = _c(table, _U64)
    e = np.asarray(exps, dtype=_U64)
    ec = _c(e, _U64)
    if e.size and int(e.max()).bit_length() > t.size:
        # the numpy reference indexes past the table and raises
        raise IndexError(
            f"exponent needs {int(e.max()).bit_length()} squarings, table has {t.size}"
        )
    out = np.empty(e.shape, dtype=_U64)
    _lib.rk_pow_from_table(_p(t), t.size, _p(ec), _p(out), e.size)
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
    _lib.rk_gather_add2(_pm(buf), _pm(idx_a), _pm(idx_b), _p(out), len(idx_a))
    return out


def dual_scatter(src, dst, vals, size: int, out=None, cells=None) -> np.ndarray:
    sc, dc, vc = _c(src, _I64), _c(dst, _I64), _c(vals, _F64)
    clear, nclear = None, 0
    if out is not None and out.size == size and out.dtype == _F64 and out.flags.c_contiguous:
        if cells is None:
            out.fill(0.0)
        elif cells.vl_off[-1] != size:
            raise ValueError("cells were built for a layout of another size")
        else:
            clear, nclear = _cell_ptrs(cells)[0], len(cells.idx)
    else:
        out = np.zeros(size, dtype=_F64)
    _lib.rk_dual_scatter(_pm(out), clear, nclear, _pm(sc), _pm(dc), _pm(vc), len(vc))
    return out


def index_scatter(idx, vals, size: int) -> np.ndarray:
    ic, vc = _c(idx, _I64), _c(vals, _F64)
    out = np.zeros(size, dtype=_F64)
    _lib.rk_index_scatter(_p(out), _pm(ic), _pm(vc), len(vc))
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
    _lib.rk_blend(_pm(x), _p(planes), _pm(sig), idx, row_ptr, v_off, vl_off, len(planes))


def width_box(steps, zloads, cells, wk_hik) -> np.ndarray:
    planes = _plane_ptrs(steps, cells)
    zplanes = None if zloads is None else _plane_ptrs(zloads, cells)
    wk = _c(wk_hik, _F64)
    if len(wk) != cells.n_hik:
        raise ValueError("wk_hik must have one entry per has_ik cell of the list")
    box = np.empty(len(planes), dtype=_F64)
    idx, row_ptr, hik, v_off, vl_off = _cell_ptrs(cells)
    _lib.rk_width_box(
        _p(planes), None if zplanes is None else _p(zplanes),
        idx, row_ptr, hik, v_off, vl_off, _pm(wk), len(planes), _p(box),
    )
    return box


# ----------------------------------------------------------------------
# Inner-tick fused stages
# ----------------------------------------------------------------------
def tick_stored_shift(cov, wk, off, off_list, counts, alphas) -> np.ndarray:
    del off_list
    shifted = np.empty(len(cov), dtype=_F64)
    _lib.rk_tick_stored_shift(_pm(cov), _pm(wk), _pm(off), len(counts), _pm(alphas), _p(shifted))
    return shifted


def tick_stored_post(e, wk, probs, off, off_list):
    B = len(off_list) - 1
    support_vals = np.empty(len(e), dtype=_F64)
    scratch = np.empty(len(e), dtype=_F64)
    usc = np.zeros(B, dtype=_F64)
    _lib.rk_tick_stored_post(
        _pm(e), _pm(wk), _pm(probs), _pm(off), B, _p(support_vals), _p(scratch), _p(usc)
    )
    return support_vals, usc


def tick_pack_arg(x, zload, hik_idx, po3_hik, alpha_p_hik, off, off_list, counts, active):
    del off_list
    arg = np.empty(len(hik_idx), dtype=_F64)
    any_z = 0 if zload is None else 1
    z = x if zload is None else zload  # dummy pointer when unused
    _lib.rk_tick_pack_arg(
        _pm(x), _pm(z), any_z, _pm(hik_idx), _pm(po3_hik), _pm(alpha_p_hik),
        _pm(off), len(counts), _pm(active), _p(arg),
    )
    return arg


def tick_pack_post(e, po3_hik, hik_idx, off, off_list, zeta):
    B = len(off_list) - 1
    zmul = np.empty(len(e), dtype=_F64)
    scratch = np.empty(len(e), dtype=_F64)
    qo = np.zeros(B, dtype=_F64)
    _lib.rk_tick_pack_post(
        _pm(e), _pm(po3_hik), _pm(hik_idx), _pm(off), B, _pm(zeta),
        _p(zmul), _p(scratch), _p(qo),
    )
    return zmul, qo


# ----------------------------------------------------------------------
# Fused Algorithm 5
# ----------------------------------------------------------------------
def oracle_eval(batch, s, us_mass, zsum, hik_idx, hik_off, hik_counts, zmul,
                sub, rho_b, beta_b, eps: float,
                scratch: OracleScratch, cells: OracleCells) -> OracleEvalResult:
    del hik_counts
    b = batch
    # the kernel indexes the layout through the cells: they must be
    # this layout's (checked when built) and this call's has_ik cells
    if cells.row_off is not b.row_off or cells.n_hik != len(zmul):
        raise ValueError("cells were built for another layout or has_ik list")
    if scratch.cells is not cells:
        # pos_net and step_x are written only at the cells
        scratch.net.fill(0.0)
        scratch.step_x.fill(0.0)
        scratch.cells = cells
    active = scratch.active
    active.fill(0)
    for i in sub:
        active[i] = 1
    # the layout, cell list and scratch buffers are allocated once and
    # reused for thousands of evaluations; cache their raw pointers on
    # the objects so each call only resolves the per-tick arrays
    try:
        bp = b._nat_ptrs
    except AttributeError:
        bp = b._nat_ptrs = (
            b.size, _p(b.l_off), _p(b.v_off), _p(b.row_off), _p(b.row_len),
            _p(b.wk_l), _p(b.b_vl),
        )
    cp = _cell_ptrs(cells)[:3]
    try:
        sp = scratch._nat_ptrs
    except AttributeError:
        sp = scratch._nat_ptrs = (
            (_p(active),),
            (
                _p(scratch.tmp_l), _p(scratch.row), _p(scratch.pc),
                _p(scratch.gath), _p(scratch.pobuf), _p(scratch.goflag),
                _p(scratch.gamma), _p(scratch.gamma_v), _p(scratch.k_star_row),
                _p(scratch.net), _p(scratch.route), _p(scratch.step_x),
                _p(scratch.po),
            ),
        )
    flags = _lib.rk_oracle_eval(
        *bp, *cp,
        _pm(us_mass), _pm(zsum), _pm(s),
        _pm(hik_idx), _pm(hik_off), _pm(zmul),
        *sp[0], _pm(rho_b), _pm(beta_b), eps,
        *sp[1],
    )
    return OracleEvalResult(
        any_go=bool(flags & 1),
        gamma=scratch.gamma,
        gamma_v=scratch.gamma_v,
        route=scratch.route,
        k_star_row=scratch.k_star_row,
        pos_net=scratch.net,
        step_x=scratch.step_x if flags & 2 else None,
        po=scratch.po,
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
