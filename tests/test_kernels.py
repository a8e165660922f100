"""Bit-parity battery for the compiled kernel layer (``repro.kernels``).

Every kernel in the registry is exercised native-vs-numpy on random and
adversarial inputs and compared for *exact* equality: the uint64 kernels
must match bit for bit because Mersenne arithmetic is exact integer
math, and the float64 kernels must match because the native code
replicates the reference operation order (sequential scatters, numpy's
pairwise summation, ``-ffp-contract=off``).  Any tolerance here would
hide a parity break, so none is used.

The blossom matcher is the exception to bit-level float parity: its
reference is networkx itself, and the battery asserts identical mate
arrays (which optimum is returned among ties included).

Also covered: backend dispatch via ``REPRO_KERNELS`` (subprocess per
mode), the clean import-time fallback when the native build is
impossible, end-to-end digest equality of a small sketch+solve
pipeline across backends, and that a native default-config solve never
imports networkx.
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as K
from repro.kernels import MERSENNE_P, REGISTRY
from repro.kernels import numpy_impl as ref
from repro.kernels.common import OracleCells, OracleScratch
from repro.kernels.registry import KERNEL_NAMES
from repro.util.graph import Graph

REPO = Path(__file__).resolve().parents[1]
P = MERSENNE_P

NATIVE = K.native_available()
needs_native = pytest.mark.skipif(
    not NATIVE, reason="native kernel backend unavailable in this environment"
)
nat = REGISTRY["mulmod"].native_impl and sys.modules.get("repro.kernels.native")


def impls(name):
    spec = REGISTRY[name]
    assert spec.numpy_impl is getattr(ref, name)
    return spec.numpy_impl, spec.native_impl


def assert_bitequal(a, b):
    """Exact equality: same dtype kind, same shape, same bits."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.dtype == b.dtype
    if a.dtype.kind == "f":
        # view as integers so -0.0 vs 0.0 and NaN payloads both count
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    else:
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Registry / dispatch surface
# ----------------------------------------------------------------------
def test_registry_is_complete():
    assert list(REGISTRY) == list(KERNEL_NAMES)
    for name, spec in REGISTRY.items():
        assert spec.name == name
        assert callable(spec.numpy_impl)
        assert spec.contract
        # the dispatched symbol is one of the two implementations
        dispatched = getattr(K, name)
        assert dispatched in (spec.numpy_impl, spec.native_impl)
        if K.backend() == "numpy":
            assert dispatched is spec.numpy_impl


@needs_native
def test_registry_native_side_complete():
    for spec in REGISTRY.values():
        assert callable(spec.native_impl), spec.name


def test_backend_info_shape():
    info = K.backend_info()
    assert info["backend"] in ("numpy", "native")
    assert info["requested"] in ("auto", "numpy", "native")
    assert (info["backend"] == "native") == K.native_available()


# ----------------------------------------------------------------------
# Mersenne arithmetic kernels (exact uint64: parity is bit-for-bit)
# ----------------------------------------------------------------------
BOUNDARY_U64 = np.array(
    [0, 1, 2, P - 1, P, P + 1, 2 * P, 2 * P + 1, (1 << 32) - 1, 1 << 32,
     (1 << 61), (1 << 62) + 12345, (1 << 64) - 1],
    dtype=np.uint64,
)
BOUNDARY_LT61 = np.array(
    [0, 1, 2, 3, (1 << 16) - 1, (1 << 16), (1 << 32) - 1, 1 << 32,
     (1 << 48) + 7, P - 2, P - 1, P, (1 << 61) - 1],
    dtype=np.uint64,
)


@needs_native
def test_mod_mersenne_parity():
    f_np, f_c = impls("mod_mersenne")
    rng = np.random.default_rng(11)
    for xs in (
        BOUNDARY_U64,
        rng.integers(0, 1 << 63, size=4096, dtype=np.uint64) * np.uint64(2)
        + rng.integers(0, 2, size=4096, dtype=np.uint64),
        np.uint64(P),  # 0-d input
    ):
        assert_bitequal(f_np(xs), f_c(xs))
    # ground truth on the boundary set
    assert f_np(BOUNDARY_U64).tolist() == [int(x) % P for x in BOUNDARY_U64.tolist()]


@needs_native
def test_mulmod_parity():
    f_np, f_c = impls("mulmod")
    rng = np.random.default_rng(12)
    a = rng.integers(0, 1 << 61, size=4096, dtype=np.uint64)
    b = rng.integers(0, 1 << 61, size=4096, dtype=np.uint64)
    assert_bitequal(f_np(a, b), f_c(a, b))
    # full boundary cross product (operands < 2^61 per the contract)
    aa, bb = np.meshgrid(BOUNDARY_LT61, BOUNDARY_LT61)
    got = f_c(aa.ravel(), bb.ravel())
    assert_bitequal(f_np(aa.ravel(), bb.ravel()), got)
    want = [(int(x) * int(y)) % P for x, y in zip(aa.ravel().tolist(), bb.ravel().tolist())]
    assert got.tolist() == want
    # broadcasting: scalar x vector
    assert_bitequal(f_np(np.uint64(P - 1), b), f_c(np.uint64(P - 1), b))


@needs_native
def test_sum_mod_p_parity():
    f_np, f_c = impls("sum_mod_p")
    rng = np.random.default_rng(15)
    v1 = rng.integers(0, P, size=10_000, dtype=np.uint64)
    assert_bitequal(f_np(v1), f_c(v1))
    full = np.full(100_000, P - 1, dtype=np.uint64)  # worst-case carry mass
    assert_bitequal(f_np(full), f_c(full))
    assert int(f_c(full).item()) == (100_000 * (P - 1)) % P
    v2 = rng.integers(0, P, size=(64, 33), dtype=np.uint64)
    assert_bitequal(f_np(v2, axis=0), f_c(v2, axis=0))
    assert_bitequal(f_np(v2, axis=1), f_c(v2, axis=1))
    empty = np.zeros((0, 5), dtype=np.uint64)
    assert_bitequal(f_np(empty, axis=0), f_c(empty, axis=0))


# ----------------------------------------------------------------------
# Fused sketch kernels
# ----------------------------------------------------------------------
def _ingest_case(seed, slots=3, rows=2, reps=2, levels=5, universe=32, nupd=40):
    rng = np.random.default_rng(seed)
    shape = (slots, rows, reps, levels)
    s0 = rng.integers(-3, 4, size=shape).astype(np.int64)
    s1 = rng.integers(-50, 50, size=shape).astype(np.int64)
    fp = rng.integers(0, P, size=shape, dtype=np.uint64)
    coeffs = rng.integers(1, P, size=(rows, reps, 3), dtype=np.uint64)
    zbits = max(1, universe.bit_length())
    z = rng.integers(1, P, size=(rows, reps, levels), dtype=np.uint64)
    ztab = np.empty((rows, reps, levels, zbits), dtype=np.uint64)
    cur = z.copy()
    for j in range(zbits):
        ztab[..., j] = cur
        cur = ref.mulmod(cur, cur)
    rowsel = np.arange(rows, dtype=np.int64)
    slot_arr = rng.integers(0, slots, size=nupd).astype(np.int64)
    indices = rng.integers(0, universe, size=nupd).astype(np.int64)
    deltas = rng.choice([-2, -1, 1, 2], size=nupd).astype(np.int64)
    dmod = (deltas % P).astype(np.uint64)
    return [s0, s1, fp, coeffs, ztab, rowsel, slot_arr, indices, deltas, dmod]


@needs_native
@pytest.mark.parametrize("seed", [21, 22, 23])
def test_sketch_ingest_parity(seed):
    f_np, f_c = impls("sketch_ingest")
    args_np = _ingest_case(seed)
    args_c = [a.copy() for a in args_np]
    assert f_np(*args_np) is None and f_c(*args_c) is None
    for got_np, got_c in zip(args_np[:3], args_c[:3]):  # s0, s1, fp in place
        assert_bitequal(got_np, got_c)
    # single-row selection on top of the mutated state
    rowsel = np.array([1], dtype=np.int64)
    f_np(*args_np[:5], rowsel, *args_np[6:])
    f_c(*args_c[:5], rowsel, *args_c[6:])
    for got_np, got_c in zip(args_np[:3], args_c[:3]):
        assert_bitequal(got_np, got_c)


def _decode_case(seed, groups=12, reps=2, levels=4, universe=64):
    rng = np.random.default_rng(seed)
    shape = (groups, reps, levels)
    s0 = np.zeros(shape, dtype=np.int64)
    s1 = np.zeros(shape, dtype=np.int64)
    fp = np.zeros(shape, dtype=np.uint64)
    z = rng.integers(1, P, size=(reps, levels), dtype=np.uint64)
    # a mix of decodable, corrupted, and empty groups
    for g in range(groups - 2):
        r = int(rng.integers(reps))
        l = int(rng.integers(levels))
        q = int(rng.integers(universe))
        c = int(rng.integers(1, 5))
        s0[g, r, l] = c
        s1[g, r, l] = c * q
        fp[g, r, l] = ref.mulmod(np.uint64(c % P), ref._powmod(z[r, l], np.uint64(q + 1)))
        if g % 4 == 1:
            fp[g, r, l] += np.uint64(1)  # fingerprint mismatch
        if g % 4 == 2:
            s1[g, r, l] += 1  # inexact division
        if g % 4 == 3:  # second valid cell: scan order decides
            l2 = (l + 1) % levels
            s0[g, r, l2] = 1
            s1[g, r, l2] = universe - 1
            fp[g, r, l2] = ref.mulmod(
                np.uint64(1), ref._powmod(z[r, l2], np.uint64(universe))
            )
    s0[groups - 1, 0, 0] = -2  # negative count: quot < 0 rejected
    s1[groups - 1, 0, 0] = 2
    return s0, s1, fp, z, universe


@needs_native
@pytest.mark.parametrize("seed", [31, 32, 33])
def test_decode_planes_parity(seed):
    f_np, f_c = impls("decode_planes")
    args = _decode_case(seed)
    got_np, got_c = f_np(*args), f_c(*args)
    assert got_np == got_c
    assert any(g is not None for g in got_np)
    assert any(g is None for g in got_np)


# ----------------------------------------------------------------------
# Segment / scatter / gather primitives
# ----------------------------------------------------------------------
def _stored_case(lens, seed, n=8, m=20):
    """A real batch of ``len(lens)`` instances and the stored-edge
    layout of ``lens[i]`` live edges of instance ``i``, drawn with
    replacement (so many stored edges share their cells), with random
    sampling probabilities; ``lens[i] == 0`` leaves instance ``i`` out,
    an empty segment."""
    from repro.core.batch import GraphBatch, StoredBatchLayout
    from repro.graphgen import gnm_graph, with_uniform_weights

    rng = np.random.default_rng(seed)
    graphs = [
        with_uniform_weights(gnm_graph(n, m, seed=seed + i), 1.0, 50.0, seed=seed + 100 + i)
        for i in range(len(lens))
    ]
    b = GraphBatch.from_graphs(graphs, eps=0.3)
    per = {}
    for i, count in enumerate(lens):
        if count:
            live = np.flatnonzero(b.levels[i].level >= 0)
            per[i] = (rng.choice(live, size=count), rng.uniform(0.05, 1.0, count))
    return b, StoredBatchLayout.build(b, per)


@needs_native
def test_gather_add2_parity():
    f_np, f_c = impls("gather_add2")
    rng = np.random.default_rng(43)
    b, lay = _stored_case([700, 0, 1, 1300], 43)
    buf = rng.standard_normal(int(b.vl_off[-1]))
    assert_bitequal(f_np(buf, lay), f_c(buf, lay))
    assert_bitequal(f_c(buf, lay), buf[lay.src_vl] + buf[lay.dst_vl])


@needs_native
def test_dual_scatter_parity():
    f_np, f_c = impls("dual_scatter")
    rng = np.random.default_rng(45)
    # heavy collisions (thousands of edges on a few dozen cells):
    # accumulation order must match; an empty instance and a singleton
    b, lay = _stored_case([3000, 0, 1, 2000], 45)
    size = lay.nvl
    # every cell listed, so any cell may be hit and any buffer is dirty
    cells = OracleCells(b, np.arange(size))
    m = len(lay.src_vl)
    vals = rng.standard_normal(m) * np.exp(rng.uniform(-12, 12, m))
    want = np.zeros(size)
    f_np(vals, want, lay, cells)
    got = np.zeros(size)
    f_c(vals, got, lay, cells)
    assert_bitequal(want, got)
    # a reused buffer: the result is identical, the dirt at the cells cleared
    got = np.full(size, 7.25)
    f_c(vals, got, lay, cells)
    assert_bitequal(want, got)
    dirty = np.full(size, -1.0)
    f_np(vals, dirty, lay, cells)
    assert_bitequal(want, dirty)


def test_index_scatter_parity():
    f_np, f_c = impls("index_scatter")
    if f_c is not None:
        rng = np.random.default_rng(46)
        idx = rng.integers(0, 64, size=3000).astype(np.int64)
        vals = rng.standard_normal(3000) * np.exp(rng.uniform(-10, 10, 3000))
        assert_bitequal(f_np(idx, vals, 64), f_c(idx, vals, 64))
        # empty input: values must agree; dtypes may not (np.bincount
        # returns int64 when the weights array is empty, the native
        # kernel float64)
        got_np = f_np(np.zeros(0, np.int64), np.zeros(0), 8)
        got_c = f_c(np.zeros(0, np.int64), np.zeros(0), 8)
        assert np.array_equal(got_np.astype(np.float64), got_c.astype(np.float64))
    # the result has exactly `size` entries on both backends: an id
    # outside it, or values of another length, fail before any scatter
    for f in (f_np, f_c):
        if f is None:
            continue
        for bad in ([4], [-1], [2**26], [0, 3, 4]):
            with pytest.raises(ValueError):
                f(np.array(bad), np.ones(len(bad)), 4)
        with pytest.raises(ValueError):
            f(np.array([0, 1]), np.ones(3), 4)


@needs_native
def test_blend_parity():
    f_np, f_c = impls("blend")
    b, cells = _cell_layout([(6, 0.3, 2), (4, 0.9, 1), (9, 0.1, 3), (5, 0.3, 1)], 47)
    rng = np.random.default_rng(47)
    nvl = int(b.vl_off[-1])
    # dense list: every cell may be nonzero, so any values will do
    cells = OracleCells(b, cells.idx[cells.hik >= 0], np.arange(nvl))
    x0 = rng.standard_normal(nvl)
    steps = [rng.standard_normal((int(n), int(L))) for n, L in zip(b.n, b.L)]
    steps[2] = None
    sigmas = rng.uniform(0, 1, b.size)
    x_np, x_c = x0.copy(), x0.copy()
    assert f_np(x_np, steps, sigmas, cells) is None
    assert f_c(x_c, steps, sigmas, cells) is None
    assert_bitequal(x_np, x_c)
    seg = slice(int(b.vl_off[2]), int(b.vl_off[3]))
    assert_bitequal(x_c[seg], x0[seg])  # no step: the segment is untouched


# ----------------------------------------------------------------------
# Inner-tick fused stages
# ----------------------------------------------------------------------
@needs_native
def test_tick_stored_parity():
    shift_np, shift_c = impls("tick_stored_shift")
    post_np, post_c = impls("tick_stored_post")
    rng = np.random.default_rng(51)
    # includes an empty instance and a singleton
    _b, lay = _stored_case([5, 0, 1, 130, 17], 51)
    off = lay.off
    cov = np.abs(rng.standard_normal(int(off[-1]))) * 40.0
    alphas = rng.uniform(0.1, 8.0, len(off) - 1)
    # NaN first in a segment and later in one: the segment's minimum,
    # and so every entry of it, is NaN; -inf alone in the singleton;
    # +inf past a finite minimum clips to 60
    special = cov.copy()
    special[off[0]] = np.nan
    special[off[3] + 40] = np.nan
    special[off[2]] = -np.inf
    special[off[4] + 3] = np.inf
    for c in (cov, special):
        with np.errstate(invalid="ignore"):
            a_np = shift_np(c, alphas, lay)
        a_c = shift_c(c, alphas, lay)
        assert_bitequal(a_np, a_c)
        e = np.exp(a_np)  # exp stays a shared numpy call on both backends
        sv_np, usc_np = post_np(e, lay)
        sv_c, usc_c = post_c(e, lay)
        assert_bitequal(sv_np, sv_c)
        assert_bitequal(usc_np, usc_c)
    assert np.isnan(a_c[off[0] : off[1]]).all() and np.isnan(a_c[off[3] : off[4]]).all()
    assert a_c[off[4] + 3] == 60.0 and np.isfinite(a_c[off[4] : off[5]]).all()


def _hik_cells(counts, seed):
    """A real batch with ``counts[i]`` random has_ik cells in instance
    ``i`` (each instance has 760 VL cells) and their cell list."""
    from repro.core.batch import GraphBatch
    from repro.graphgen import gnm_graph, with_uniform_weights

    graphs = [
        with_uniform_weights(gnm_graph(40, 80, seed=seed + i), 1.0, 50.0, seed=seed + 100 + i)
        for i in range(len(counts))
    ]
    b = GraphBatch.from_graphs(graphs, eps=0.3)
    rng = np.random.default_rng(seed)
    hik_idx = np.concatenate([
        np.sort(rng.choice(np.arange(b.vl_off[i], b.vl_off[i + 1]), size=c, replace=False))
        for i, c in enumerate(counts)
    ])
    return b, OracleCells(b, hik_idx)


@needs_native
@pytest.mark.parametrize("with_zload", [False, True])
def test_tick_pack_parity(with_zload):
    arg_np, arg_c = impls("tick_pack_arg")
    post_np, post_c = impls("tick_pack_post")
    rng = np.random.default_rng(52 + with_zload)
    b, cells = _hik_cells([7, 0, 60, 1, 140], 52)
    nvl, off, hik_idx = int(b.vl_off[-1]), cells.hik_off, cells.hik_idx
    x = rng.standard_normal(nvl) * 10.0
    zload = rng.standard_normal(nvl) if with_zload else None
    alpha_p = rng.uniform(0.1, 4.0, b.size)
    active = np.array([1, 1, 0, 1, 1], dtype=np.uint8)  # inactive: fmax stays 0
    # NaN first in a segment, and later in one whose first entry is
    # -inf (the max, so the whole segment, is NaN); NaN in the inactive
    # segment (fmax stays 0, so only that entry is); +inf alone in the
    # singleton
    special = x.copy()
    for t, v in ((off[0], np.nan), (off[4], -np.inf), (off[4] + 70, np.nan),
                 (off[2] + 10, np.nan), (off[3], np.inf)):
        special[hik_idx[t]] = v
    for xs in (x, special):
        with np.errstate(invalid="ignore"):
            a_np = arg_np(xs, zload, alpha_p, active, cells)
        a_c = arg_c(xs, zload, alpha_p, active, cells)
        assert_bitequal(a_np, a_c)
        e = np.exp(a_np)
        zm_np, qo_np = post_np(e, cells)
        zm_c, qo_c = post_c(e, cells)
        assert_bitequal(zm_np, zm_c)
        assert_bitequal(qo_np, qo_c)
    assert np.isnan(a_c[off[0] : off[1]]).all() and np.isnan(a_c[off[4] : off[5]]).all()
    assert np.isnan(a_c[off[2] : off[3]]).sum() == 1


# ----------------------------------------------------------------------
# Fused Algorithm 5 (oracle_eval) on a real batch layout
# ----------------------------------------------------------------------
def _oracle_case(seed, rho_scale):
    from repro.core.batch import GraphBatch
    from repro.graphgen import gnm_graph, with_uniform_weights

    rng = np.random.default_rng(seed)
    graphs = [
        with_uniform_weights(gnm_graph(10, 20, seed=seed), 1.0, 50.0, seed=seed + 1),
        with_uniform_weights(gnm_graph(6, 9, seed=seed + 2), 1.0, 3.0, seed=seed + 3),
        with_uniform_weights(gnm_graph(8, 14, seed=seed + 4), 2.0, 30.0, seed=seed + 5),
    ]
    b = GraphBatch.from_graphs(graphs, eps=0.3)
    nvl, nl = int(b.vl_off[-1]), int(b.l_off[-1])
    # synthetic has_ik tables: a sorted subset of each instance's vl range
    hik_parts = []
    for i in range(b.size):
        lo, hi = int(b.vl_off[i]), int(b.vl_off[i + 1])
        take = max(1, (hi - lo) // 2)
        sel = np.sort(rng.choice(np.arange(lo, hi), size=take, replace=False))
        hik_parts.append(sel.astype(np.int64))
    hik_idx = np.ascontiguousarray(np.concatenate(hik_parts), dtype=np.int64)
    s = np.abs(rng.standard_normal(nvl)) * 5.0
    us_mass = np.abs(rng.standard_normal(nl)) * 3.0
    zsum = np.abs(rng.standard_normal(nl))
    zmul = np.abs(rng.standard_normal(len(hik_idx))) * 0.5
    rho_b = np.full(b.size, rho_scale)
    rho_b[1] *= 40.0  # push one instance toward the zero route
    beta_b = np.ones(b.size)
    return b, s, us_mass, zsum, hik_idx, zmul, rho_b, beta_b


def _oracle_scratch(b, s, cells):
    """A scratch for ``cells`` whose support scatter holds ``s``."""
    sc = OracleScratch(b, cells)
    sc.s[:] = s
    return sc


def _eval(f, us_mass, zsum, zmul, sub, rho_b, beta_b, scratch):
    scratch.rho[:] = rho_b
    scratch.beta[:] = beta_b
    return f(us_mass, zsum, zmul, list(sub), 0.25, scratch)


@needs_native
@pytest.mark.parametrize("seed,rho_scale,sub", [
    (61, 0.01, [0, 1, 2]),
    (62, 0.5, [0, 1, 2]),
    (63, 5.0, [0, 1, 2]),   # large rho: gamma <= 0 everywhere is likely
    (64, 0.01, [2, 0]),     # strict subset, out of order
])
def test_oracle_eval_parity(seed, rho_scale, sub):
    """Two evaluations share each backend's scratch, so the second also
    sees the buffers the first left behind."""
    f_np, f_c = impls("oracle_eval")
    b, s, us_mass, zsum, hik_idx, zmul, rho_b, beta_b = _oracle_case(seed, rho_scale)
    # s is dense: every cell of the plane is a candidate
    cells = OracleCells(b, hik_idx, np.arange(int(b.vl_off[-1])))
    sc_np, sc_c = _oracle_scratch(b, s, cells), _oracle_scratch(b, s, cells)
    for sub_k, rho_k in ((sub, rho_b), ([1, 0, 2], rho_b * 0.1)):
        fl_np = _eval(f_np, us_mass, zsum, zmul, sub_k, rho_k, beta_b, sc_np)
        fl_c = _eval(f_c, us_mass, zsum, zmul, sub_k, rho_k, beta_b, sc_c)
        _assert_oracle_equal(fl_np, sc_np, fl_c, sc_c)


def _assert_oracle_equal(fl_np, sc_np, fl_c, sc_c):
    """The flags and the outputs they declare valid are bit-equal."""
    assert fl_np == fl_c
    assert_bitequal(sc_np.gamma, sc_c.gamma)
    assert_bitequal(sc_np.route, sc_c.route)
    assert_bitequal(sc_np.po, sc_c.po)
    if fl_np & 1:
        assert_bitequal(sc_np.gamma_v, sc_c.gamma_v)
        assert_bitequal(sc_np.k_star_row, sc_c.k_star_row)
        assert_bitequal(sc_np.net, sc_c.net)
    if fl_np & 2:
        assert_bitequal(sc_np.step_x, sc_c.step_x)


@needs_native
def test_oracle_eval_routes_covered():
    """The parity cases must actually exercise all three routes."""
    f_np, _ = impls("oracle_eval")
    seen = set()
    for seed, rho_scale in [(61, 0.01), (62, 0.5), (63, 5.0)]:
        b, s, us_mass, zsum, hik_idx, zmul, rho_b, beta_b = _oracle_case(seed, rho_scale)
        sc = _oracle_scratch(b, s, OracleCells(b, hik_idx, np.arange(int(b.vl_off[-1]))))
        _eval(f_np, us_mass, zsum, zmul, [0, 1, 2], rho_b, beta_b, sc)
        seen.update(int(r) for r in sc.route)
    assert 0 in seen and 1 in seen


#: eps per instance of the sparse cases: on 2-10 vertices with b <= 3,
#: 0.9 gives fewer than 8 levels, 0.3 and 0.1 between 8 and 128, and
#: 0.02 more than 128 (pw_sum's recursive branch)
ORACLE_EPS = (0.9, 0.3, 0.1, 0.02)


def _sparse_oracle_case(shapes, seed, density):
    """A batch whose ``s`` and ``zeta`` live on random cells.

    ``shapes`` holds ``(n, eps, b_max)`` per instance.  Each cell is a
    has_ik cell, and independently an ``s`` cell, with probability
    ``density``; the cell list is their union (the tight list), so rows
    without a cell are common at low density.
    """
    from repro.core.batch import GraphBatch
    from repro.core.levels import discretize

    rng = np.random.default_rng(seed)
    graphs = []
    for n, _eps, b_max in shapes:
        m = int(rng.integers(1, 2 * n + 1))
        src = rng.integers(0, n - 1, size=m)
        dst = rng.integers(src + 1, n)
        graphs.append(Graph(
            n=n, src=src, dst=dst, weight=rng.uniform(1.0, 50.0, m),
            b=rng.integers(1, b_max + 1, size=n),
        ))
    b = GraphBatch(
        graphs=graphs,
        levels=[discretize(g, eps) for g, (_n, eps, _b) in zip(graphs, shapes)],
    )
    nvl, nl = int(b.vl_off[-1]), int(b.l_off[-1])
    hik_idx = np.flatnonzero(rng.random(nvl) < density)
    s_idx = np.flatnonzero(rng.random(nvl) < density)
    s = np.zeros(nvl)
    s[s_idx] = rng.exponential(1.0, s_idx.size) * 10.0 ** rng.uniform(-1, 1, s_idx.size)
    zmul = rng.exponential(1.0, hik_idx.size)
    us_mass = rng.exponential(3.0, nl)
    zsum = rng.exponential(1.0, nl)
    cells = OracleCells(b, hik_idx, s_idx)
    return b, s, us_mass, zsum, zmul, cells


def _sparse_eval(f, case, sub, rho_b, beta_b, scratch):
    _b, _s, us_mass, zsum, zmul, _cells = case
    return _eval(f, us_mass, zsum, zmul, sub, rho_b, beta_b, scratch)


@needs_native
@settings(max_examples=200, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(2, 10), st.sampled_from(ORACLE_EPS), st.integers(1, 3)),
        min_size=1, max_size=3,
    ),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
    data=st.data(),
)
def test_oracle_eval_sparse_parity(shapes, seed, density, data):
    """The cell-walking kernel equals the dense reference bit for bit.

    Two evaluations share each backend's scratch, so the second also
    sees the buffers the first left behind.
    """
    f_np, f_c = impls("oracle_eval")
    case = _sparse_oracle_case(shapes, seed, density)
    b, s, cells = case[0], case[1], case[-1]
    sc_np, sc_c = _oracle_scratch(b, s, cells), _oracle_scratch(b, s, cells)
    B = b.size
    for _ in range(2):
        order = data.draw(st.permutations(range(B)))
        sub = order[: data.draw(st.integers(1, B))]
        rho_b = 10.0 ** np.array(data.draw(st.lists(
            st.floats(-3.0, 1.5), min_size=B, max_size=B)))
        beta_b = 10.0 ** np.array(data.draw(st.lists(
            st.floats(-3.0, 3.0), min_size=B, max_size=B)))
        fl_np = _sparse_eval(f_np, case, sub, rho_b, beta_b, sc_np)
        fl_c = _sparse_eval(f_c, case, sub, rho_b, beta_b, sc_c)
        _assert_oracle_equal(fl_np, sc_np, fl_c, sc_c)


def test_sparse_oracle_cases_reach_what_the_battery_claims():
    """The sparse cases reach every route, all three level-count
    ranges, rows without a cell, and b > 1."""
    f_np, _ = impls("oracle_eval")
    routes, level_counts = set(), set()
    empty_row = b_above_one = False
    rng = np.random.default_rng(5)
    for seed in range(40):
        shapes = [(int(rng.integers(2, 11)), eps, 3) for eps in ORACLE_EPS[seed % 4:][:3]]
        case = _sparse_oracle_case(shapes, seed, (0.05, 0.3, 0.7)[seed % 3])
        b, cells = case[0], case[-1]
        level_counts.update(b.L.tolist())
        empty_row |= bool((np.diff(cells.row_ptr) == 0).any())
        b_above_one |= bool((b.b_vl > 1).any())
        for log_beta in (-3.0, 0.0, 3.0):
            rho_b = np.full(b.size, 10.0 ** rng.uniform(-3.0, 1.5))
            beta_b = np.full(b.size, 10.0 ** log_beta)
            sc = _oracle_scratch(b, case[1], cells)
            _sparse_eval(f_np, case, range(b.size), rho_b, beta_b, sc)
            routes.update(int(x) for x in sc.route)
    assert routes == {0, 1, 2}
    assert min(level_counts) < 8 and max(level_counts) > 128
    assert any(8 <= L <= 128 for L in level_counts)
    assert empty_row and b_above_one


def test_oracle_cells_layout():
    """Sorted distinct cells, row pointers over the layout's rows,
    has_ik positions and each instance's first has_ik position; bad
    input fails where the list is built."""
    case = _sparse_oracle_case([(6, 0.3, 2), (4, 0.9, 1)], 3, 0.3)
    b, cells = case[0], case[-1]
    hik_idx, s = cells.hik_idx, case[1]
    idx = cells.idx
    assert (np.diff(idx) > 0).all() and idx[0] >= 0 and idx[-1] < b.vl_off[-1]
    assert set(idx.tolist()) == set(hik_idx.tolist()) | set(np.flatnonzero(s).tolist())
    for r in range(int(b.v_off[-1])):
        row = idx[cells.row_ptr[r] : cells.row_ptr[r + 1]]
        assert ((row >= b.row_off[r]) & (row < b.row_off[r + 1])).all()
    assert cells.row_ptr[0] == 0 and cells.row_ptr[-1] == idx.size
    on = cells.hik >= 0
    assert np.array_equal(idx[on], hik_idx[cells.hik[on]])
    assert np.array_equal(np.sort(cells.hik[on]), np.arange(hik_idx.size))
    per_instance = [
        int(((hik_idx >= b.vl_off[i]) & (hik_idx < b.vl_off[i + 1])).sum())
        for i in range(b.size)
    ]
    assert cells.hik_off.tolist() == [0, *np.cumsum(per_instance).tolist()]
    nvl = int(b.vl_off[-1])
    assert hik_idx.size >= 2
    for bad_hik, extra in (
        (hik_idx[::-1], None),              # not increasing
        (hik_idx[::-1], np.arange(nvl)),
        (np.append(hik_idx, nvl), None),    # past the plane
        (hik_idx, np.array([-1])),          # negative extra cell
        (hik_idx, np.array([nvl])),
    ):
        with pytest.raises(ValueError):
            OracleCells(b, bad_hik, extra)


def test_oracle_scratch_refuses_cells_of_another_batch():
    """The kernel indexes the scratch's batch through its cell list, so
    the scratch refuses a list built for another batch."""
    case = _sparse_oracle_case([(5, 0.3, 1)], 1, 0.5)
    other = _sparse_oracle_case([(5, 0.3, 1)], 2, 0.5)
    with pytest.raises(ValueError, match="another batch"):
        OracleScratch(case[0], other[-1])
    assert OracleScratch(case[0], case[-1]).cells is case[-1]


@needs_native
def test_oracle_eval_refuses_cells_of_another_layout():
    """The native kernel reads ``zmul`` at the has_ik positions of the
    scratch's list, so the wrapper refuses one built for another list."""
    _np, f_c = impls("oracle_eval")
    b, s, us_mass, zsum, zmul, cells = _sparse_oracle_case([(5, 0.3, 1)], 1, 0.5)
    sc = _oracle_scratch(b, s, cells)
    with pytest.raises(ValueError):
        _eval(f_c, us_mass, zsum, np.append(zmul, 1.0), [0], np.ones(1), np.ones(1), sc)


# ----------------------------------------------------------------------
# The inner tick on the has_ik cells: s, zeta, the width box, the blend
# ----------------------------------------------------------------------
def _cell_layout(shapes, seed, density=0.3, extra_density=0.1):
    """A batch with random has_ik cells and a blend-style cell list:
    has_ik plus random extra cells (``hik == -1`` there)."""
    case = _sparse_oracle_case(shapes, seed, density)
    b, hik_idx = case[0], case[-1].hik_idx
    rng = np.random.default_rng(seed + 1)
    extra = np.flatnonzero(rng.random(int(b.vl_off[-1])) < extra_density)
    return b, OracleCells(b, hik_idx, extra)


def _tick_case(data, shapes, seed, density, extra_density):
    """Cells, ``x`` (nonnegative, zero off the list, nonzero at some
    extra cells) and per-instance steps (None, or nonnegative and zero
    off has_ik), with some sigmas 0."""
    b, cells = _cell_layout(shapes, seed, density, extra_density)
    rng = np.random.default_rng(seed + 2)
    nvl = int(b.vl_off[-1])
    x = np.zeros(nvl)
    x[cells.idx] = rng.exponential(1.0, cells.idx.size) * (rng.random(cells.idx.size) < 0.7)
    on_hik = np.zeros(nvl, dtype=bool)
    on_hik[cells.idx[cells.hik >= 0]] = True
    steps, sigmas = [], np.zeros(b.size)
    for i in range(b.size):
        if not data.draw(st.booleans()):
            steps.append(None)
            continue
        lo, hi = int(b.vl_off[i]), int(b.vl_off[i + 1])
        plane = rng.exponential(2.0, hi - lo) * (rng.random(hi - lo) < 0.5) * on_hik[lo:hi]
        steps.append(plane.reshape(int(b.n[i]), int(b.L[i])))
        sigmas[i] = data.draw(st.sampled_from([0.0, 0.5, float(rng.uniform(0, 0.5))]))
    return b, cells, x, steps, sigmas


TICK_SHAPES = st.lists(
    st.tuples(st.integers(2, 10), st.sampled_from(ORACLE_EPS), st.integers(1, 3)),
    min_size=1, max_size=4,
)


@needs_native
@settings(max_examples=150, deadline=None)
@given(
    shapes=TICK_SHAPES, seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    extra_density=st.sampled_from([0.0, 0.1, 0.5]), data=st.data(),
)
def test_blend_cell_list_parity(shapes, seed, density, extra_density, data):
    """The cell-list blend equals the numpy reference and the dense
    blend it replaced: every plane blended whole against a buffer that
    holds the steps and zeros, at sigma 0 where no step is."""
    f_np, f_c = impls("blend")
    b, cells, x, steps, sigmas = _tick_case(data, shapes, seed, density, extra_density)
    x_np, x_c, x_dense = x.copy(), x.copy(), x.copy()
    f_np(x_np, steps, sigmas, cells)
    f_c(x_c, steps, sigmas, cells)
    assert_bitequal(x_np, x_c)
    other = np.zeros_like(x)
    for i, step in enumerate(steps):
        if step is not None:
            other[b.vl_off[i] : b.vl_off[i + 1]] = step.ravel()
    sig_vl = np.repeat(sigmas, b.vl_count)
    x_dense *= 1.0 - sig_vl
    x_dense += sig_vl * other
    assert_bitequal(x_dense, x_c)


@needs_native
@settings(max_examples=150, deadline=None)
@given(
    shapes=TICK_SHAPES, seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    extra_density=st.sampled_from([0.0, 0.1, 0.5]), data=st.data(),
)
def test_width_box_parity(shapes, seed, density, extra_density, data):
    """The native box equals the reference over the has_ik cells, with
    and without z-loads, on a has_ik-only list and on one with extra
    cells (which the box skips)."""
    f_np, f_c = impls("width_box")
    b, cells, _x, steps, _sigmas = _tick_case(data, shapes, seed, density, extra_density)
    hik_idx = cells.hik_idx
    rng = np.random.default_rng(seed + 3)
    zloads = [
        None if step is None or rng.random() < 0.5
        else rng.exponential(1.0, step.shape) for step in steps
    ]
    for lst in (cells, OracleCells(b, hik_idx)):
        for zl in (None, zloads):
            box_np = f_np(steps, zl, lst)
            assert_bitequal(box_np, f_c(steps, zl, lst))
            for i, step in enumerate(steps):
                lo, hi = int(b.vl_off[i]), int(b.vl_off[i + 1])
                mine = hik_idx[(hik_idx >= lo) & (hik_idx < hi)]
                if step is None or mine.size == 0:
                    assert box_np[i] == 0.0
                    continue
                num = 2.0 * step.ravel()[mine - lo]
                if zl is not None and zl[i] is not None:
                    num += zl[i].ravel()[mine - lo]
                assert box_np[i] == (num / b.wk_vl[mine]).max()


@needs_native
@settings(max_examples=150, deadline=None)
@given(
    shapes=TICK_SHAPES, seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.05, 0.3, 1.0]), data=st.data(),
)
def test_has_ik_clears_of_s_and_zeta_parity(shapes, seed, density, data):
    """Clearing and writing ``s`` only at the cells gives the dense
    reference's plane when the reused buffer is dirty at those cells
    only, as the engine's is; and ``zeta``, kept as one ``zmul`` per
    has_ik cell, gives the dense plane and its column sums."""
    from repro.core.batch import StoredBatchLayout

    case = _sparse_oracle_case(shapes, seed, density)
    b = case[0]
    rng = np.random.default_rng(seed + 4)
    # the support scatter of stored edges whose cells are has_ik cells
    per = {}
    for i in range(b.size):
        live = np.flatnonzero(b.levels[i].level >= 0)
        if live.size and data.draw(st.booleans()):
            m = data.draw(st.integers(1, 40))
            per[i] = (rng.choice(live, size=m), np.ones(m))
    lay = StoredBatchLayout.build(b, per)
    cells = OracleCells(b, np.union1d(case[-1].hik_idx, np.union1d(lay.src_vl, lay.dst_vl)))
    nvl = lay.nvl
    if cells.idx.size == 0:
        return
    dirty = np.zeros(nvl)
    dirty[cells.idx] = rng.standard_normal(cells.idx.size)
    vals = rng.exponential(1.0, len(lay.src_vl))
    ds_np, ds_c = impls("dual_scatter")
    want, got = np.zeros(nvl), dirty.copy()
    ds_np(vals, want, lay, cells)
    ds_c(vals, got, lay, cells)
    assert_bitequal(want, got)
    # zeta: zmul at every has_ik cell, the dense plane zero elsewhere
    e = rng.exponential(1.0, cells.hik_idx.size)
    post_np, post_c = impls("tick_pack_post")
    r_np, r_c = post_np(e, cells), post_c(e, cells)
    for a, c in zip(r_np, r_c):
        assert_bitequal(a, c)
    zeta = np.zeros(nvl)
    zeta[cells.hik_idx] = e / (3.0 * b.wk_vl)[cells.hik_idx]
    plane = np.zeros(nvl)
    plane[cells.hik_idx] = r_c[0]
    assert_bitequal(zeta, plane)
    # the one-call column sums over the has_ik cells (L >= 2 everywhere)
    if cells.l_idx is not None:
        zsum = impls("index_scatter")[1](cells.l_idx, r_c[0], int(b.l_off[-1]))
        for i in range(b.size):
            assert_bitequal(b.l_view(zsum, i), b.vl_view(plane, i).sum(axis=0))


@needs_native
def test_tick_kernels_refuse_planes_and_lists_that_do_not_fit():
    """The native wrappers read steps and cells through raw pointers: a
    plane of the wrong size, dtype or layout, a plane list of another
    length, or a cell list of another layout, fails before any pointer
    reaches C."""
    _np, f_c = impls("blend")
    _np, box_c = impls("width_box")
    b, cells = _cell_layout([(5, 0.3, 1), (4, 0.3, 2)], 9)
    nvl = int(b.vl_off[-1])
    good = [np.zeros((int(n), int(L))) for n, L in zip(b.n, b.L)]
    for steps in (
        [good[0]],                                   # one instance missing
        [good[0], np.zeros((int(b.n[1]), int(b.L[1]) + 1))],  # wrong size
        [good[0], good[1].astype(np.float32)],       # wrong dtype
        [good[0], np.asfortranarray(np.zeros((int(b.L[1]), int(b.n[1]))).T)],
    ):
        with pytest.raises(ValueError):
            f_c(np.zeros(nvl), steps, np.zeros(b.size), cells)
        with pytest.raises(ValueError):
            box_c(steps, None, cells)
        with pytest.raises(ValueError):  # the same planes as z-loads
            box_c(good, steps, cells)
    with pytest.raises(ValueError):
        f_c(np.zeros(nvl + 1), good, np.zeros(b.size), cells)
    _np, scatter_c = impls("dual_scatter")
    _b, other = _stored_case([3, 2, 1], 9)  # a layout of another batch
    with pytest.raises(ValueError):
        scatter_c(np.ones(len(other.src_vl)), np.zeros(other.nvl), other, cells)


@needs_native
def test_tick_kernels_refuse_values_and_buffers_of_another_layout():
    """Each tick kernel reads its indices, offsets and constants from
    the layout or cell list it is given, and checks every per-call
    array against that owner: a value array of another length, or a
    buffer of another size or dtype, fails before any pointer reaches
    C."""
    fn = {name: impls(name)[1] for name in (
        "gather_add2", "dual_scatter", "tick_stored_shift", "tick_stored_post",
        "tick_pack_arg", "tick_pack_post",
    )}
    b, lay = _stored_case([5, 0, 3], 7)
    cells = OracleCells(b, np.union1d(lay.src_vl, lay.dst_vl))
    nvl, ns, nh, B = lay.nvl, len(lay.src_vl), len(cells.hik_idx), b.size
    x, act = np.zeros(nvl), np.ones(B, dtype=np.uint8)
    # the good calls run
    fn["gather_add2"](x, lay)
    fn["dual_scatter"](np.ones(ns), np.zeros(nvl), lay, cells)
    fn["tick_stored_shift"](np.ones(ns), np.ones(B), lay)
    fn["tick_stored_post"](np.ones(ns), lay)
    fn["tick_pack_arg"](x, x.copy(), np.ones(B), act, cells)
    fn["tick_pack_post"](np.ones(nh), cells)
    bad_calls = [
        lambda: fn["gather_add2"](np.zeros(nvl + 1), lay),
        lambda: fn["gather_add2"](np.zeros(nvl, dtype=np.float32), lay),
        lambda: fn["dual_scatter"](np.ones(ns + 1), np.zeros(nvl), lay, cells),
        lambda: fn["dual_scatter"](np.ones(ns), np.zeros(nvl + 1), lay, cells),
        lambda: fn["dual_scatter"](np.ones(ns), np.zeros(nvl)[::2].copy(), lay, cells),
        lambda: fn["tick_stored_shift"](np.ones(ns - 1), np.ones(B), lay),
        lambda: fn["tick_stored_shift"](np.ones(ns), np.ones(B + 1), lay),
        lambda: fn["tick_stored_post"](np.ones(ns + 1), lay),
        lambda: fn["tick_pack_arg"](np.zeros(nvl - 1), None, np.ones(B), act, cells),
        lambda: fn["tick_pack_arg"](x, np.zeros(nvl + 1), np.ones(B), act, cells),
        lambda: fn["tick_pack_arg"](x, None, np.ones(B - 1), act, cells),
        lambda: fn["tick_pack_arg"](x, None, np.ones(B), act[:-1], cells),
        lambda: fn["tick_pack_post"](np.ones(nh + 1), cells),
    ]
    for call in bad_calls:
        with pytest.raises(ValueError):
            call()


def test_stored_layout_refuses_ids_outside_the_batch_and_offsets_that_do_not_span():
    """The tick kernels index the batch's VL and level spaces through
    the layout's arrays, so every construction checks them."""
    from dataclasses import replace

    _b, lay = _stored_case([5, 0, 3], 8)
    n, at = len(lay.src_vl), np.arange(len(lay.src_vl))
    assert lay.off.tolist() == [0, 5, 5, 8] == replace(lay).off_list  # a copy checks clean
    for bad in (
        {"src_vl": np.where(at == 2, lay.nvl, lay.src_vl)},    # past the plane
        {"dst_vl": np.where(at == 0, -1, lay.dst_vl)},         # negative
        {"src_vl": np.full(n, 2**26)},
        {"l_idx": np.where(at == n - 1, lay.nl, lay.l_idx)},   # past the levels
        {"off": lay.off[:-1]},                                 # short of the arrays
        {"off": lay.off + 1},                                  # not from 0
        {"off": np.array([0, 6, 5, 8])},                       # decreasing
        {"wk": lay.wk[:-1]},                                   # arrays of unequal length
        {"probs": np.ones(n + 1)},
    ):
        with pytest.raises(ValueError):
            replace(lay, **bad)


def test_ids_past_the_batch_fail_where_they_enter():
    """Three inputs that crashed the native kernels fail with
    ValueError: a stored edge's VL id of 2^26 at the layout that
    ``dual_scatter`` reads, a has_ik id of 2^26 at the cell list that
    ``tick_pack_post`` reads, and an id of 2^26 at ``index_scatter``."""
    from dataclasses import replace

    b, lay = _stored_case([2, 1], 10)
    with pytest.raises(ValueError):
        replace(lay, src_vl=np.array([0, 1, 2**26]))
    with pytest.raises(ValueError):
        OracleCells(b, np.array([0, 2**26]))
    for f in impls("index_scatter"):
        if f is not None:
            with pytest.raises(ValueError):
                f(np.array([2**26]), np.ones(1), 4)


def test_oracle_eval_refuses_level_arrays_of_another_length():
    """``us_mass`` and ``zsum`` span the level space on both backends."""
    b, s, us_mass, zsum, zmul, cells = _sparse_oracle_case([(5, 0.3, 1), (4, 0.3, 2)], 1, 0.5)
    for f in impls("oracle_eval"):
        if f is None:
            continue
        sc = _oracle_scratch(b, s, cells)
        for u, z in ((us_mass[:-1], zsum), (us_mass, zsum[:-1]), (us_mass, np.append(zsum, 1.0))):
            with pytest.raises(ValueError):
                _eval(f, u, z, zmul, [0, 1], np.ones(2), np.ones(2), sc)


# ----------------------------------------------------------------------
# Blossom matcher (C port of networkx's max_weight_matching)
# ----------------------------------------------------------------------
def _simple_edges(rng, nv, m):
    """Random simple graph: distinct pairs, random orientation and order."""
    if nv < 2 or m == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    a = rng.integers(0, nv, size=m)
    b = rng.integers(0, nv, size=m)
    a, b = a[a != b], b[a != b]
    key = np.minimum(a, b) * nv + np.maximum(a, b)
    first = np.sort(np.unique(key, return_index=True)[1])
    return a[first], b[first]


BLOSSOM_WEIGHTS = {
    "float": lambda rng, m: rng.uniform(0.5, 10.0, m),
    "small_int": lambda rng, m: rng.integers(1, 4, m).astype(np.float64),
    "all_equal": lambda rng, m: np.full(m, 2.5),
    "quarter_step": lambda rng, m: rng.integers(1, 40, m) * 0.25,
}


def blossom_impl(which):
    """One registry implementation of ``blossom_mates`` (skip if absent)."""
    fn = dict(zip(["numpy", "native"], impls("blossom_mates")))[which]
    if fn is None:
        pytest.skip("native kernel backend unavailable in this environment")
    return fn


def assert_blossom_parity(nv, src, dst, w):
    """Native and networkx mates identical; returns the mate array."""
    ref_fn, nat_fn = impls("blossom_mates")
    want = ref_fn(nv, src, dst, w)
    got = nat_fn(nv, src, dst, w)
    assert_bitequal(got, want)
    return got


@needs_native
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_blossom_mates_parity_property(data):
    nv = data.draw(st.integers(0, 14), label="nv")
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, max(nv - 1, 0)), st.integers(0, max(nv - 1, 0))),
        max_size=50), label="pairs")
    seen, src, dst = set(), [], []
    for i, j in pairs:
        if i != j and (min(i, j), max(i, j)) not in seen:
            seen.add((min(i, j), max(i, j)))
            src.append(i)
            dst.append(j)
    w = data.draw(st.lists(
        st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
        | st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False),
        min_size=len(src), max_size=len(src)), label="weights")
    assert_blossom_parity(nv, np.array(src, np.int64), np.array(dst, np.int64),
                          np.array(w, np.float64))


@needs_native
@pytest.mark.parametrize("kind", sorted(BLOSSOM_WEIGHTS))
def test_blossom_mates_random_families(kind):
    rng = np.random.default_rng([41, sorted(BLOSSOM_WEIGHTS).index(kind)])
    matched = 0
    for _ in range(250):
        nv = int(rng.integers(2, 41))
        dense = rng.random() < 0.3
        m = int(rng.integers(0, (nv * (nv - 1) // 2 if dense else 4 * nv) + 1))
        src, dst = _simple_edges(rng, nv, m)
        mate = assert_blossom_parity(nv, src, dst, BLOSSOM_WEIGHTS[kind](rng, len(src)))
        matched += int((mate >= 0).sum())
    assert matched > 0


# blossoms nested inside an expanding T-blossom, with a reached leaf
# (the rarest branch of expandBlossom): seeds found by a coverage probe
@needs_native
@pytest.mark.parametrize("seed", [6468, 7745, 14056, 18620])
def test_blossom_mates_nested_t_blossom_relabel(seed):
    rng = np.random.default_rng([seed, 7])
    nv = int(rng.integers(10, 61))
    src, dst = _simple_edges(rng, nv, int(rng.integers(nv, 5 * nv)))
    assert_blossom_parity(nv, src, dst, rng.integers(1, 6, len(src)).astype(np.float64))


def _hard_instances():
    from repro.graphgen.hard_instances import (
        barbell_odd,
        crown_graph,
        odd_cycle_chain,
        triangle_gadget,
    )

    yield "triangle_gadget", triangle_gadget(eps=0.1)
    yield "crown", crown_graph(k=9)
    yield "barbell", barbell_odd(k=7)
    for n_cycles, cycle_len, link in [(4, 5, 0.1), (6, 7, 1.0), (8, 3, 2.0), (5, 9, 0.5)]:
        yield f"odd_cycle_chain{n_cycles}x{cycle_len}", odd_cycle_chain(n_cycles, cycle_len, link)


@needs_native
@pytest.mark.parametrize("name", [name for name, _ in _hard_instances()])
def test_blossom_mates_hard_instances(name):
    g = dict(_hard_instances())[name]
    assert_blossom_parity(g.n, g.src, g.dst, g.weight)
    # reversed edge order changes networkx's tie-breaking; parity must hold
    assert_blossom_parity(g.n, g.dst[::-1], g.src[::-1], g.weight[::-1])


@needs_native
def test_blossom_mates_degenerate_inputs():
    empty_i, empty_f = np.empty(0, np.int64), np.empty(0, np.float64)
    assert_blossom_parity(0, empty_i, empty_i, empty_f)
    assert_bitequal(assert_blossom_parity(5, empty_i, empty_i, empty_f), np.full(5, -1))
    assert_bitequal(assert_blossom_parity(1, empty_i, empty_i, empty_f), np.full(1, -1))
    # isolated vertices around a path; one edge of weight <= 0 is never matched
    mate = assert_blossom_parity(
        9, np.array([2, 3, 4, 7]), np.array([3, 4, 5, 8]), np.array([1.0, 3.0, 1.0, -2.0])
    )
    assert_bitequal(mate, np.array([-1, -1, -1, 1, 1, -1, -1, -1, -1]))
    # self-loops are ignored, also when computing the initial duals
    mate = assert_blossom_parity(
        3, np.array([0, 0, 2]), np.array([0, 1, 2]), np.array([9.0, 1.0, 50.0])
    )
    assert_bitequal(mate, np.array([1, 1, -1]))


@pytest.mark.parametrize("impl", ["numpy", "native"])
def test_blossom_mates_rejects_bad_input(impl):
    fn = blossom_impl(impl)
    with pytest.raises(ValueError, match="out of range"):
        fn(3, np.array([0, 1]), np.array([1, 3]), np.ones(2))
    with pytest.raises(ValueError, match="out of range"):
        fn(3, np.array([-1]), np.array([1]), np.ones(1))
    with pytest.raises(ValueError, match="equal length"):
        fn(3, np.array([0, 1]), np.array([1]), np.ones(2))
    with pytest.raises(ValueError, match=">= 0"):
        fn(-1, np.array([], np.int64), np.array([], np.int64), np.ones(0))


@needs_native
def test_blossom_mates_large():
    rng = np.random.default_rng(400)
    for nv, m, kind in [(400, 1600, "float"), (380, 1200, "small_int"), (420, 900, "quarter_step")]:
        src, dst = _simple_edges(rng, nv, m)
        mate = assert_blossom_parity(nv, src, dst, BLOSSOM_WEIGHTS[kind](rng, len(src)))
        assert (mate >= 0).sum() > nv // 2


@needs_native
def test_blossom_mates_threads_match_sequential():
    """Per-call state only: concurrent calls (GIL released) are exact."""
    _, nat_fn = impls("blossom_mates")
    rng = np.random.default_rng(77)
    cases = []
    for t in range(8):
        nv = 150 + 10 * t
        src, dst = _simple_edges(rng, nv, 5 * nv)
        cases.append((nv, src, dst, BLOSSOM_WEIGHTS["small_int"](rng, len(src))))
    sequential = [nat_fn(*c) for c in cases]
    with ThreadPoolExecutor(max_workers=4) as pool:
        for _ in range(3):
            for got, want in zip(pool.map(lambda c: nat_fn(*c), cases), sequential):
                assert_bitequal(got, want)


def _vertex_split_networkx(graph):
    """The per-edge double loop that the array vertex split replaced:
    networkx on the clone graph, projected to (edge_ids, multiplicity)."""
    import networkx as nx

    starts = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(graph.b, out=starts[1:])
    g = nx.Graph()
    g.add_nodes_from(range(int(starts[-1])))
    for e, (i, j, w) in enumerate(graph.edges()):
        for ci in range(starts[i], starts[i + 1]):
            for cj in range(starts[j], starts[j + 1]):
                g.add_edge(int(ci), int(cj), weight=w, eid=e)
    counts: dict[int, int] = {}
    for a, b in nx.max_weight_matching(g, maxcardinality=False):
        e = g.edges[a, b]["eid"]
        counts[e] = counts.get(e, 0) + 1
    ids = sorted(counts)
    return ids, [counts[e] for e in ids]


@pytest.mark.parametrize("impl", ["numpy", "native"])
def test_bmatching_exact_parity_per_implementation(impl, monkeypatch):
    """max_weight_bmatching_exact, with either registry implementation
    behind it, returns the matching of the networkx double loop."""
    import repro.matching.exact as exact
    from repro.graphgen import gnm_graph, with_uniform_weights

    monkeypatch.setattr(exact, "blossom_mates", blossom_impl(impl))
    rng = np.random.default_rng(2024)
    for t in range(24):
        n = int(rng.integers(2, 22))
        g = gnm_graph(n, int(rng.integers(0, 3 * n + 1)), seed=t)
        g = with_uniform_weights(g, 1.0, 4.0, seed=t + 100)
        w = np.round(g.weight) if t % 2 else g.weight  # odd t: tied weights
        b = np.ones(n, np.int64) if t % 3 == 0 else rng.integers(0, 4, n)
        g = Graph(n=n, src=g.src, dst=g.dst, weight=w, b=b)
        got = exact.max_weight_bmatching_exact(g)
        ids, mult = _vertex_split_networkx(g)
        assert got.edge_ids.tolist() == ids
        assert got.multiplicity.tolist() == mult
        got.check_valid()


# ----------------------------------------------------------------------
# Nagamochi-Ibaraki forest placement
# ----------------------------------------------------------------------
def _drive_forests(fn, n, k, batches, cap):
    """Place ``batches`` of edges with one ``forest_place`` backend,
    starting from a ``cap``-row table and doubling it (at most ``k``
    rows) whenever the kernel stops.  Returns the indices, every call's
    ``(placed, count)``, the final count and the rows in use."""
    table = np.zeros((cap, n), dtype=np.int32)
    count, idx, calls = 0, [], []
    for src, dst in batches:
        out = np.full(len(src), -7, dtype=np.int64)
        done = 0
        while True:
            placed, count = fn(table, count, k, src[done:], dst[done:], out[done:])
            calls.append((placed, count))
            done += placed
            if done == len(src):
                break
            assert count == len(table) < k
            grown = np.zeros((min(k, 2 * len(table) or 1), n), dtype=np.int32)
            grown[:count] = table[:count]
            table = grown
        idx.append(out)
    return np.concatenate(idx), calls, count, table[:count].copy()


@needs_native
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_forest_place_parity(data):
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(1, n), label="k")
    m = data.draw(st.integers(0, 60), label="m")
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src = np.array(data.draw(ends, label="src"), dtype=np.int64)
    dst = np.array(data.draw(ends, label="dst"), dtype=np.int64)
    cuts = sorted(data.draw(st.lists(st.integers(0, m), max_size=3), label="cuts"))
    bounds = [0, *cuts, m]
    batches = [(src[a:b], dst[a:b]) for a, b in zip(bounds, bounds[1:])]
    cap = data.draw(st.integers(0, 2), label="cap")
    ref_fn, nat_fn = impls("forest_place")
    want = _drive_forests(ref_fn, n, k, batches, cap)
    got = _drive_forests(nat_fn, n, k, batches, cap)
    assert_bitequal(got[0], want[0])
    assert got[1:3] == want[1:3]
    assert_bitequal(got[3], want[3])
    assert want[0].min(initial=1) >= 1 and want[0].max(initial=1) <= k + 1


@needs_native
def test_forest_place_stops_and_grows():
    """A multigraph with self-loops from a one-row table: the kernel
    stops at every forest past the table, rejects edges at k + 1, and
    both backends agree call for call."""
    rng = np.random.default_rng(11)
    n, k = 30, 6
    src, dst = rng.integers(0, n, 400), rng.integers(0, n, 400)
    batches = [(src[a : a + 50], dst[a : a + 50]) for a in range(0, 400, 50)]
    ref_fn, nat_fn = impls("forest_place")
    want = _drive_forests(ref_fn, n, k, batches, 1)
    got = _drive_forests(nat_fn, n, k, batches, 1)
    assert_bitequal(got[0], want[0])
    assert got[1:3] == want[1:3]
    assert_bitequal(got[3], want[3])
    assert want[2] == k and (want[0] == k + 1).sum() > (src == dst).sum()
    assert sum(placed < 50 for placed, _ in want[1]) >= 2  # the stop path ran


@pytest.mark.parametrize("impl", ["numpy", "native"])
def test_forest_place_rejects_bad_input(impl):
    fn = dict(zip(["numpy", "native"], impls("forest_place")))[impl]
    if fn is None:
        pytest.skip("native kernel backend unavailable in this environment")
    table = np.arange(8, dtype=np.int32).reshape(2, 4) % 4
    before = table.copy()
    out = np.empty(2, dtype=np.int64)
    for u, v in (([0, 4], [1, 2]), ([0, -1], [1, 2])):
        with pytest.raises(ValueError, match="endpoint out of range"):
            fn(table, 2, 3, np.array(u), np.array(v), out)
        assert_bitequal(table, before)  # nothing placed before the check
    with pytest.raises(ValueError, match="int32"):
        fn(table.astype(np.int64), 2, 3, np.array([0]), np.array([1]), out)
    with pytest.raises(ValueError, match="count"):
        fn(table, 3, 3, np.array([0]), np.array([1]), out)


# ----------------------------------------------------------------------
# Backend dispatch (one subprocess per REPRO_KERNELS mode)
# ----------------------------------------------------------------------
def _probe(mode_env, code=None):
    code = code or (
        "import repro.kernels as K; import json;"
        "print(json.dumps(K.backend_info()))"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env.pop("REPRO_KERNELS", None)
    env.update(mode_env)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=180,
    )


def test_dispatch_numpy_forced():
    r = _probe({"REPRO_KERNELS": "numpy"})
    assert r.returncode == 0, r.stderr
    assert '"backend": "numpy"' in r.stdout
    assert '"requested": "numpy"' in r.stdout


def test_dispatch_invalid_mode_rejected():
    r = _probe({"REPRO_KERNELS": "fast"})
    assert r.returncode != 0
    assert "REPRO_KERNELS" in r.stderr


@needs_native
def test_dispatch_native_forced():
    r = _probe({"REPRO_KERNELS": "native"})
    assert r.returncode == 0, r.stderr
    assert '"backend": "native"' in r.stdout


@needs_native
def test_dispatch_auto_prefers_native():
    r = _probe({"REPRO_KERNELS": "auto"})
    assert r.returncode == 0, r.stderr
    assert '"backend": "native"' in r.stdout
    assert '"fallback_reason": null' in r.stdout


def test_dispatch_auto_falls_back_cleanly(tmp_path):
    """Unbuildable native backend: auto falls back, native raises."""
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    sabotage = {"REPRO_KERNELS_CACHE": str(blocker / "sub"), "PATH": "/nonexistent"}
    r = _probe({**sabotage, "REPRO_KERNELS": "auto"})
    assert r.returncode == 0, r.stderr
    assert '"backend": "numpy"' in r.stdout
    assert '"fallback_reason": null' not in r.stdout
    r2 = _probe({**sabotage, "REPRO_KERNELS": "native"})
    assert r2.returncode != 0
    assert "REPRO_KERNELS=native" in r2.stderr


def test_library_name_hashes_source_compiler_and_flags(monkeypatch, tmp_path):
    """A change to the flags, the compiler path or the source names
    another library, so a cache never serves a build made another way."""
    from repro.kernels import build

    base = build.library_name("/usr/bin/cc")
    assert base.startswith("librepro-kernels-") and base.endswith(".so")
    assert build.library_name("/usr/bin/cc") == base
    assert build.library_name("/usr/bin/clang") != base
    with monkeypatch.context() as m:
        m.setattr(build, "_CFLAGS", [*build._CFLAGS, "-g"])
        assert build.library_name("/usr/bin/cc") != base
    edited = tmp_path / "kernels.c"
    edited.write_bytes(build._SOURCE.read_bytes() + b"\n")
    monkeypatch.setattr(build, "_SOURCE", edited)
    assert build.library_name("/usr/bin/cc") != base


@needs_native
def test_build_script_prints_what_the_loader_uses():
    """``python src/repro/kernels/build.py name`` (what CI's sanitizer
    step builds under) is the file this process loaded, and ``flags``
    are the loader's flags."""
    from repro.kernels import build

    script = REPO / "src" / "repro" / "kernels" / "build.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    ask = lambda q: subprocess.run(  # noqa: E731
        [sys.executable, str(script), q], capture_output=True, text=True,
        env=env, check=True, timeout=60,
    ).stdout.strip()
    assert ask("name") == build.library_name()
    assert ask("flags").split() == build._CFLAGS
    assert ask("compiler") == build._find_compiler()
    assert (build.cache_dir() / build.library_name()).exists()
    loaded = sys.modules["repro.kernels.native"]._lib._name
    assert Path(loaded).name == build.library_name()


# ----------------------------------------------------------------------
# End-to-end digest equality across backends
# ----------------------------------------------------------------------
_E2E_CODE = """
import hashlib, json
import numpy as np
from repro.graphgen import gnm_graph, with_uniform_weights
from repro.sketch.graph_sketch import VertexIncidenceSketch
from repro.core.matching_solver import DualPrimalMatchingSolver
import repro.kernels as K

h = hashlib.sha256()
g = with_uniform_weights(gnm_graph(48, 144, seed=7), 1.0, 20.0, seed=8)
sk = VertexIncidenceSketch(g, t=4, seed=1, repetitions=3)
for r in range(3):
    for v in range(0, 48, 5):
        comp = np.array([v, (v + 1) % 48, (v + 2) % 48])
        h.update(repr(sk.sample_cut_edge(comp, r)).encode())
graphs = [g, with_uniform_weights(gnm_graph(24, 60, seed=9), 1.0, 8.0, seed=10)]
results = DualPrimalMatchingSolver(
    eps=0.3, inner_steps=60, round_cap_factor=0.3, target_gap=0.0001, offline="local",
).solve_many(graphs, seeds=[5, 6])
for res in results:
    h.update(repr((res.weight, res.matching.edge_ids.tolist())).encode())
    h.update(repr((res.certificate.upper_bound, res.history)).encode())
# default config (offline="exact"): the harvest runs the blossom kernel
# through the vertex split
from repro.api import Problem, run
from repro.core.matching_solver import SolverConfig
from repro.graphgen import power_law_graph, with_exponential_weights, with_random_capacities
pl = with_random_capacities(
    with_exponential_weights(power_law_graph(40, seed=11), seed=12), 1, 3, seed=13
)
res = run(Problem(pl, SolverConfig(eps=0.2, seed=3)), "offline").raw
h.update(repr((res.weight, res.matching.edge_ids.tolist(),
               res.matching.multiplicity.tolist())).encode())
h.update(repr((res.certificate.upper_bound, res.history)).encode())
print(json.dumps({"backend": K.backend(), "digest": h.hexdigest()}))
"""


@needs_native
def test_end_to_end_digest_equal_across_backends():
    import json

    out = {}
    for mode in ("numpy", "native"):
        r = _probe({"REPRO_KERNELS": mode}, code=_E2E_CODE)
        assert r.returncode == 0, r.stderr
        got = json.loads(r.stdout)
        assert got["backend"] == mode
        out[mode] = got["digest"]
    assert out["numpy"] == out["native"]


_NO_NETWORKX_CODE = """
import sys
import repro, repro.kernels
assert "networkx" not in sys.modules, "import repro loaded networkx"
from repro.api import Problem, run
from repro.core.matching_solver import SolverConfig
from repro.graphgen import (gnm_graph, power_law_graph, with_exponential_weights,
                            with_random_capacities, with_uniform_weights)
gnm = with_uniform_weights(gnm_graph(64, 512, seed=1), 1.0, 100.0, seed=2)
pl = with_random_capacities(
    with_exponential_weights(power_law_graph(64, seed=3), seed=4), 1, 3, seed=5
)
for g in (gnm, pl):
    assert run(Problem(g, SolverConfig(eps=0.2, seed=1)), "offline").matching.size() > 0
print("networkx" in sys.modules)
"""


@needs_native
def test_native_default_solve_never_imports_networkx():
    """networkx is the reference, not the solve path: neither importing
    repro nor a native default-config (offline="exact") solve loads it."""
    r = _probe({"REPRO_KERNELS": "native"}, code=_NO_NETWORKX_CODE)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
