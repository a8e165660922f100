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
from repro.kernels.common import OracleScratch
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
def test_powmod_parity():
    f_np, f_c = impls("powmod")
    rng = np.random.default_rng(13)
    base = rng.integers(0, 1 << 64, size=512, dtype=np.uint64)
    exp = rng.integers(0, 1 << 64, size=512, dtype=np.uint64)
    assert_bitequal(f_np(base, exp), f_c(base, exp))
    for b, e in [(0, 0), (0, 5), (3, 0), (P, 10), (P - 1, P - 1),
                 (2, 61), (2, (1 << 64) - 1), ((1 << 64) - 1, (1 << 64) - 1)]:
        got_np, got_c = f_np(b, e), f_c(b, e)
        assert isinstance(got_np, int) and isinstance(got_c, int)
        assert got_np == got_c == pow(b % P, e, P)


@needs_native
def test_pow_from_table_parity():
    f_np, f_c = impls("pow_from_table")
    rng = np.random.default_rng(14)
    for z in (3, P - 2, int(rng.integers(1, P))):
        table = np.empty(64, dtype=np.uint64)
        cur = np.uint64(z % P)
        for j in range(64):
            table[j] = cur
            cur = ref.mulmod(cur, cur)
        exps = rng.integers(0, 1 << 64, size=1024, dtype=np.uint64)
        exps[:4] = [0, 1, P, (1 << 64) - 1]
        assert_bitequal(f_np(table, exps), f_c(table, exps))
        assert int(f_c(table, exps)[2]) == pow(z % P, P, P)
        # short table + in-range exponents
        short = table[:8]
        small = rng.integers(0, 1 << 8, size=256, dtype=np.uint64)
        assert_bitequal(f_np(short, small), f_c(short, small))


@needs_native
def test_pow_from_table_native_rejects_wide_exponent():
    _, f_c = impls("pow_from_table")
    table = np.ones(4, dtype=np.uint64)
    with pytest.raises(IndexError):
        f_c(table, np.array([1 << 5], dtype=np.uint64))


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
        fp[g, r, l] = ref.mulmod(np.uint64(c % P), ref.powmod(z[r, l], np.uint64(q + 1)))
        if g % 4 == 1:
            fp[g, r, l] += np.uint64(1)  # fingerprint mismatch
        if g % 4 == 2:
            s1[g, r, l] += 1  # inexact division
        if g % 4 == 3:  # second valid cell: scan order decides
            l2 = (l + 1) % levels
            s0[g, r, l2] = 1
            s1[g, r, l2] = universe - 1
            fp[g, r, l2] = ref.mulmod(
                np.uint64(1), ref.powmod(z[r, l2], np.uint64(universe))
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
@needs_native
def test_gather_add2_parity():
    f_np, f_c = impls("gather_add2")
    rng = np.random.default_rng(43)
    buf = rng.standard_normal(500)
    idx_a = rng.integers(0, 500, size=2000).astype(np.int64)
    idx_b = rng.integers(0, 500, size=2000).astype(np.int64)
    assert_bitequal(f_np(buf, idx_a, idx_b), f_c(buf, idx_a, idx_b))


@needs_native
def test_dual_scatter_parity():
    f_np, f_c = impls("dual_scatter")
    rng = np.random.default_rng(45)
    size = 300
    m = 5000  # heavy collisions: accumulation order must match
    src = rng.integers(0, size, size=m).astype(np.int64)
    dst = rng.integers(0, size, size=m).astype(np.int64)
    vals = rng.standard_normal(m) * np.exp(rng.uniform(-12, 12, m))
    want = f_np(src, dst, vals, size)
    assert_bitequal(want, f_c(src, dst, vals, size))
    # out= is a scratch hint: result identical, dirty buffer ignored
    scratch = np.full(size, 7.25)
    got = f_c(src, dst, vals, size, out=scratch)
    assert_bitequal(want, got)
    assert_bitequal(want, f_np(src, dst, vals, size, out=np.full(size, -1.0)))
    # wrong-size scratch must not corrupt the result either
    assert_bitequal(want, f_c(src, dst, vals, size, out=np.zeros(3)))


@needs_native
def test_index_scatter_parity():
    f_np, f_c = impls("index_scatter")
    rng = np.random.default_rng(46)
    idx = rng.integers(0, 64, size=3000).astype(np.int64)
    vals = rng.standard_normal(3000) * np.exp(rng.uniform(-10, 10, 3000))
    assert_bitequal(f_np(idx, vals, 64), f_c(idx, vals, 64))
    # empty input: values must agree; dtypes may not (np.bincount returns
    # int64 when the weights array is empty, the native kernel float64)
    got_np = f_np(np.zeros(0, np.int64), np.zeros(0), 8)
    got_c = f_c(np.zeros(0, np.int64), np.zeros(0), 8)
    assert np.array_equal(got_np.astype(np.float64), got_c.astype(np.float64))


def _vl_layout(rng, Ls):
    """Per-instance (n_i, L_i) blocks flattened the way GraphBatch lays them."""
    ns = rng.integers(2, 9, size=len(Ls))
    vl_count = (ns * Ls).astype(np.int64)
    vl_off = np.zeros(len(Ls) + 1, dtype=np.int64)
    np.cumsum(vl_count, out=vl_off[1:])
    return ns, vl_count, vl_off


@needs_native
def test_blend_parity():
    f_np, f_c = impls("blend")
    rng = np.random.default_rng(47)
    Ls = np.array([1, 3, 4, 2, 6], dtype=np.int64)
    _, vl_count, vl_off = _vl_layout(rng, Ls)
    nvl = int(vl_off[-1])
    x0 = rng.standard_normal(nvl)
    other = rng.standard_normal(nvl)
    sigmas = rng.uniform(0, 1, len(Ls))
    x_np, x_c = x0.copy(), x0.copy()
    assert f_np(x_np, other, sigmas, vl_off, vl_count) is None
    assert f_c(x_c, other, sigmas, vl_off, vl_count) is None
    assert_bitequal(x_np, x_c)


# ----------------------------------------------------------------------
# Inner-tick fused stages
# ----------------------------------------------------------------------
def _stored_layout(rng, lens):
    off = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    n = int(off[-1])
    cov = np.abs(rng.standard_normal(n)) * 40.0
    wk = rng.uniform(1.0, 50.0, n)
    return cov, wk, off, off.tolist(), np.asarray(lens, dtype=np.int64)


@needs_native
def test_tick_stored_parity():
    shift_np, shift_c = impls("tick_stored_shift")
    post_np, post_c = impls("tick_stored_post")
    rng = np.random.default_rng(51)
    # includes an empty instance and a singleton
    cov, wk, off, off_list, counts = _stored_layout(rng, [5, 0, 1, 130, 17])
    alphas = rng.uniform(0.1, 8.0, len(counts))
    a_np = shift_np(cov, wk, off, off_list, counts, alphas)
    a_c = shift_c(cov, wk, off, off_list, counts, alphas)
    assert_bitequal(a_np, a_c)
    e = np.exp(a_np)  # exp stays a shared numpy call on both backends
    probs = rng.uniform(0.05, 1.0, cov.size)
    sv_np, usc_np = post_np(e, wk, probs, off, off_list)
    sv_c, usc_c = post_c(e, wk, probs, off, off_list)
    assert_bitequal(sv_np, sv_c)
    assert_bitequal(usc_np, usc_c)


@needs_native
@pytest.mark.parametrize("with_zload", [False, True])
def test_tick_pack_parity(with_zload):
    arg_np, arg_c = impls("tick_pack_arg")
    post_np, post_c = impls("tick_pack_post")
    rng = np.random.default_rng(52 + with_zload)
    nvl = 400
    lens = [7, 0, 60, 1, 140]
    off = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    off_list = off.tolist()
    counts = np.asarray(lens, dtype=np.int64)
    nh = int(off[-1])
    x = rng.standard_normal(nvl) * 10.0
    zload = rng.standard_normal(nvl) if with_zload else None
    hik_idx = rng.integers(0, nvl, size=nh).astype(np.int64)
    po3 = rng.uniform(0.2, 9.0, nh)
    alpha_p = rng.uniform(0.1, 4.0, nh)
    active = np.array([1, 1, 0, 1, 1], dtype=np.uint8)  # inactive: fmax stays 0
    a_np = arg_np(x, zload, hik_idx, po3, alpha_p, off, off_list, counts, active)
    a_c = arg_c(x, zload, hik_idx, po3, alpha_p, off, off_list, counts, active)
    assert_bitequal(a_np, a_c)
    e = np.exp(a_np)
    z_np, z_c = np.full(nvl, 3.5), np.full(nvl, 3.5)  # dirty zeta: must be cleared
    zm_np, qo_np = post_np(e, po3, hik_idx, off, off_list, z_np)
    zm_c, qo_c = post_c(e, po3, hik_idx, off, off_list, z_c)
    assert_bitequal(zm_np, zm_c)
    assert_bitequal(qo_np, qo_c)
    assert_bitequal(z_np, z_c)


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
    hik_parts, counts = [], []
    for i in range(b.size):
        lo, hi = int(b.vl_off[i]), int(b.vl_off[i + 1])
        take = max(1, (hi - lo) // 2)
        sel = np.sort(rng.choice(np.arange(lo, hi), size=take, replace=False))
        hik_parts.append(sel.astype(np.int64))
        counts.append(take)
    hik_idx = np.ascontiguousarray(np.concatenate(hik_parts), dtype=np.int64)
    hik_off = np.zeros(b.size + 1, dtype=np.int64)
    np.cumsum(counts, out=hik_off[1:])
    hik_counts = np.diff(hik_off)
    s = np.abs(rng.standard_normal(nvl)) * 5.0
    us_mass = np.abs(rng.standard_normal(nl)) * 3.0
    zsum = np.abs(rng.standard_normal(nl))
    zmul = np.abs(rng.standard_normal(len(hik_idx))) * 0.5
    rho_b = np.full(b.size, rho_scale)
    rho_b[1] *= 40.0  # push one instance toward the zero route
    beta_b = np.ones(b.size)
    return b, s, us_mass, zsum, hik_idx, hik_off, hik_counts, zmul, rho_b, beta_b


@needs_native
@pytest.mark.parametrize("seed,rho_scale,sub", [
    (61, 0.01, [0, 1, 2]),
    (62, 0.5, [0, 1, 2]),
    (63, 5.0, [0, 1, 2]),   # large rho: gamma <= 0 everywhere is likely
    (64, 0.01, [2, 0]),     # strict subset, out of order
])
def test_oracle_eval_parity(seed, rho_scale, sub):
    f_np, f_c = impls("oracle_eval")
    case = _oracle_case(seed, rho_scale)
    b, s, us_mass, zsum, hik_idx, hik_off, hik_counts, zmul, rho_b, beta_b = case
    sc_np = OracleScratch.for_batch(b, hik_off)
    sc_c = OracleScratch.for_batch(b, hik_off)
    r_np = f_np(b, s, us_mass, zsum, hik_idx, hik_off, hik_counts, zmul,
                list(sub), rho_b, beta_b, 0.25, sc_np)
    r_c = f_c(b, s, us_mass, zsum, hik_idx, hik_off, hik_counts, zmul,
              list(sub), rho_b, beta_b, 0.25, sc_c)
    assert r_np.any_go == r_c.any_go
    assert_bitequal(r_np.gamma, r_c.gamma)
    assert_bitequal(r_np.route, r_c.route)
    assert_bitequal(r_np.po, r_c.po)
    if r_np.any_go:
        assert_bitequal(r_np.gamma_v, r_c.gamma_v)
        assert_bitequal(r_np.k_star_row, r_c.k_star_row)
        assert_bitequal(r_np.pos_net, r_c.pos_net)
    assert (r_np.step_x is None) == (r_c.step_x is None)
    if r_np.step_x is not None:
        assert_bitequal(r_np.step_x, r_c.step_x)


@needs_native
def test_oracle_eval_routes_covered():
    """The parity cases must actually exercise all three routes."""
    f_np, _ = impls("oracle_eval")
    seen = set()
    for seed, rho_scale in [(61, 0.01), (62, 0.5), (63, 5.0)]:
        case = _oracle_case(seed, rho_scale)
        b, s, us_mass, zsum, hik_idx, hik_off, hik_counts, zmul, rho_b, beta_b = case
        sc = OracleScratch.for_batch(b, hik_off)
        r = f_np(b, s, us_mass, zsum, hik_idx, hik_off, hik_counts, zmul,
                 [0, 1, 2], rho_b, beta_b, 0.25, sc)
        seen.update(int(r.route[i]) for i in range(b.size))
    assert 0 in seen and 1 in seen


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


@needs_native
def test_pointer_memo_keeps_no_dead_array():
    """The native wrappers memoize array pointers by id; an entry goes
    when its array dies, so solves whose results are kept leave no dead
    entries behind."""
    from repro.core.matching_solver import DualPrimalMatchingSolver, SolverConfig
    from repro.graphgen import gnm_graph, with_uniform_weights
    from repro.kernels import native

    buf, idx = np.arange(4.0), np.array([0, 3], dtype=np.int64)
    native.gather_add2(buf, idx, idx)
    solver = DualPrimalMatchingSolver(SolverConfig(eps=0.2, seed=1))
    kept = [
        solver.solve(with_uniform_weights(gnm_graph(24, 96, seed=s), 1.0, 100.0, seed=s))
        for s in range(4)
    ]
    assert len(kept) == 4 and native._ptr_memo[id(buf)][0]() is buf
    assert all(ref() is not None for ref, _ in native._ptr_memo.values())


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
