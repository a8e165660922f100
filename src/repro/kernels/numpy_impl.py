"""Pure-numpy reference implementations of every kernel.

This module is the *parity anchor*: each function here is the exact
pre-kernel code path of the subsystem it serves (moved, not rewritten),
so selecting ``REPRO_KERNELS=numpy`` reproduces the historical behavior
bit for bit.  The native implementations in :mod:`repro.kernels.native`
are validated against these functions by the parity batteries in
``tests/test_kernels.py`` -- exact uint64 equality for the modular
kernels, exact float64 equality for the solver kernels.

No repro-internal imports: the sketch layer imports this package, so
everything needed (Mersenne arithmetic, the geometric-level hash) is
self-contained here.  The one third-party reference, networkx's blossom
(:func:`blossom_mates`), is imported inside the function, so importing
this package never loads networkx.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.common import (
    MERSENNE_P,
    OracleCells,
    OracleScratch,
    blossom_input,
    forest_input,
)

_MASK32 = np.uint64((1 << 32) - 1)
_SHIFT32 = np.uint64(32)


# ----------------------------------------------------------------------
# Mersenne-prime arithmetic (the historical repro.sketch.hashing kernels)
# ----------------------------------------------------------------------
def mod_mersenne(x: np.ndarray) -> np.ndarray:
    """Reduce values ``< 2^64`` mod ``2^61 - 1`` without division."""
    x = np.asarray(x, dtype=np.uint64)
    x = (x & np.uint64(MERSENNE_P)) + (x >> np.uint64(61))
    # subtract p only where needed; never wraps, so 0-d inputs stay quiet
    return x - np.where(x >= MERSENNE_P, np.uint64(MERSENNE_P), np.uint64(0))


def mulmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``(a*b) mod 2^61-1`` for ``a, b < 2^61`` in pure uint64 ops.

    Splits both operands into 32-bit halves; the cross term that could
    overflow (``a_lo * b_lo`` with both near ``2^32``) is split once more
    into 16-bit pieces so every partial product stays below ``2^64``.
    Identity used: ``2^64 ≡ 2^3`` and ``2^61 ≡ 1 (mod 2^61-1)``.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    MASK32 = np.uint64((1 << 32) - 1)
    a_hi = a >> np.uint64(32)  # < 2^29
    a_lo = a & MASK32  # < 2^32
    b_hi = b >> np.uint64(32)  # < 2^29
    b_lo = b & MASK32  # < 2^32
    t_hh = mod_mersenne((a_hi * b_hi) << np.uint64(3))  # (a_hi b_hi 2^64) mod p
    mid = mod_mersenne(a_hi * b_lo + a_lo * b_hi)  # each term < 2^61, sum < 2^62
    # mid * 2^32 mod p: 2^32 * 2^29 = 2^61 ≡ 1, so shift the top 29 bits down.
    mid_hi = mid >> np.uint64(29)
    mid_lo = (mid & np.uint64((1 << 29) - 1)) << np.uint64(32)
    t_mid = mod_mersenne(mid_hi + mid_lo)
    b_ll = b_lo & np.uint64(0xFFFF)
    b_lh = b_lo >> np.uint64(16)
    low = mod_mersenne(a_lo * b_ll)  # < 2^48
    low_hi = mod_mersenne(mod_mersenne(a_lo * b_lh) << np.uint64(16))
    t_ll = mod_mersenne(low + low_hi)
    return mod_mersenne(t_hh + t_mid + t_ll)


def _powmod(base: np.ndarray | int, exp: np.ndarray | int) -> np.ndarray | int:
    """Vectorized ``base**exp mod 2^61-1`` by binary exponentiation
    (the fingerprint check of :func:`decode_planes`)."""
    scalar = np.isscalar(base) and np.isscalar(exp)
    b = mod_mersenne(np.atleast_1d(np.asarray(base, dtype=np.uint64)))
    e = np.atleast_1d(np.asarray(exp, dtype=np.uint64))
    b, e = np.broadcast_arrays(b, e)
    e = e.copy()
    b = b.copy()
    result = np.ones(e.shape, dtype=np.uint64)
    while e.any():
        odd = (e & np.uint64(1)).astype(bool)
        result = np.where(odd, mulmod(result, b), result)
        e >>= np.uint64(1)
        if e.any():
            b = mulmod(b, b)
    return int(result[0]) if scalar else result


def _pow_from_table(table: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """Evaluate ``z^e mod p`` from a repeated-squares table row (the
    fingerprint update of :func:`sketch_ingest`).

    ``table`` is the 1-D table of a single base ``z``; exponents must
    satisfy ``e < 2^len(table)``.
    """
    e = np.asarray(exps, dtype=np.uint64).copy()
    result = np.ones(e.shape, dtype=np.uint64)
    j = 0
    while e.any():
        odd = (e & np.uint64(1)).astype(bool)
        if odd.any():
            result = np.where(odd, mulmod(result, table[j]), result)
        e >>= np.uint64(1)
        j += 1
    return result


def sum_mod_p(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Exact ``sum(values) mod 2^61-1`` along ``axis`` for values ``< p``."""
    v = np.asarray(values, dtype=np.uint64)
    mask32 = np.uint64((1 << 32) - 1)
    lo = (v & mask32).sum(axis=axis, dtype=np.uint64)
    hi = (v >> np.uint64(32)).sum(axis=axis, dtype=np.uint64)
    # hi * 2^32 + lo mod p, with both partial sums first reduced below p
    return mod_mersenne(
        mulmod(mod_mersenne(hi), np.uint64(1) << np.uint64(32)) + mod_mersenne(lo)
    )


# ----------------------------------------------------------------------
# Fused sketch ingestion (the historical SketchTensor.update_many body)
# ----------------------------------------------------------------------
def _poly_hash_level(coeffs: np.ndarray, xs_mod: np.ndarray, max_level: int) -> np.ndarray:
    """Geometric subsampling level of ``PolyHash.level``, coefficient form.

    Replicates ``PolyHash.__call__`` (Horner over reduced keys) followed
    by ``uniform`` and the ``floor(-log2(.))`` level map, op for op.
    """
    acc = np.full(xs_mod.shape, coeffs[0], dtype=np.uint64)
    for c in coeffs[1:]:
        acc = mod_mersenne(mulmod(acc, xs_mod) + c)
    u = np.asarray(acc, dtype=np.float64) / float(MERSENNE_P)
    with np.errstate(divide="ignore"):
        lv = np.floor(-np.log2(np.maximum(u, 2.0 ** -(max_level + 2)))).astype(np.int64)
    return np.clip(lv, 0, max_level)


def sketch_ingest(
    s0: np.ndarray,
    s1: np.ndarray,
    fp: np.ndarray,
    coeffs: np.ndarray,
    ztab: np.ndarray,
    rowsel: np.ndarray,
    slot_arr: np.ndarray,
    indices: np.ndarray,
    deltas: np.ndarray,
    dmod: np.ndarray,
) -> None:
    """Fused "hash batch -> level -> s0/s1/fingerprint update" kernel.

    In-place over the ``(slots, rows, repetitions, levels)`` cell
    tensors for the selected rows.  This is the scatter/cumsum path of
    ``SketchTensor.update_many`` + ``_update_fingerprints``.
    """
    slots, rows, reps, levels = s0.shape
    weighted = deltas * indices
    xs_mod = mod_mersenne(np.asarray(indices, dtype=np.uint64))
    for ri in (int(r) for r in rowsel):
        for rep in range(reps):
            lv = _poly_hash_level(coeffs[ri, rep], xs_mod, levels - 1)
            # s0/s1: scatter at the exact level, then suffix-sum so an
            # index at level lv contributes to every cell 0..lv
            ex0 = np.zeros((slots, levels), dtype=np.int64)
            ex1 = np.zeros((slots, levels), dtype=np.int64)
            np.add.at(ex0, (slot_arr, lv), deltas)
            np.add.at(ex1, (slot_arr, lv), weighted)
            s0[:, ri, rep, :] += np.cumsum(ex0[:, ::-1], axis=1)[:, ::-1]
            s1[:, ri, rep, :] += np.cumsum(ex1[:, ::-1], axis=1)[:, ::-1]
            # fingerprints: per-level batches shrink geometrically; the
            # 32-bit split scatter cannot wrap before recombination
            mask = np.ones(len(indices), dtype=bool)
            for l in range(levels):
                if l > 0:
                    mask = lv >= l
                    if not mask.any():
                        break
                sl = slot_arr[mask]
                exps = (indices[mask] + 1).astype(np.uint64)
                zp = _pow_from_table(ztab[ri, rep, l], exps)
                contrib = mulmod(dmod[mask], zp)
                lo = np.zeros(slots, dtype=np.uint64)
                hi = np.zeros(slots, dtype=np.uint64)
                np.add.at(lo, sl, contrib & _MASK32)
                np.add.at(hi, sl, contrib >> _SHIFT32)
                total = mod_mersenne(
                    mulmod(mod_mersenne(hi), np.uint64(1) << _SHIFT32)
                    + mod_mersenne(lo)
                )
                fp[:, ri, rep, l] = mod_mersenne(fp[:, ri, rep, l] + total)


def decode_planes(
    s0: np.ndarray,
    s1: np.ndarray,
    fp: np.ndarray,
    z: np.ndarray,
    universe: int,
) -> list[tuple[int, int] | None]:
    """Vectorized grid decode over a leading group axis.

    ``s0``/``s1``/``fp`` have shape ``(groups, repetitions, levels)``;
    ``z`` has shape ``(repetitions, levels)`` and is shared by every
    group.  Returns the first provably-1-sparse cell per group in the
    reference scan order (repetitions ascending, levels descending).
    """
    groups, reps, levels = s0.shape
    out: list[tuple[int, int] | None] = [None] * groups
    nz = s0 != 0
    if not nz.any():
        return out
    # candidate = exact division yields an in-universe index
    safe = np.where(nz, s0, 1)
    quot, rem = np.divmod(s1, safe)
    cand = nz & (rem == 0) & (quot >= 0) & (quot < universe)
    if not cand.any():
        return out
    g, r, l = np.nonzero(cand)
    qv = quot[g, r, l]
    s0v = s0[g, r, l]
    # fingerprint check: F == s0 * z^(index+1) mod p
    zz = np.broadcast_to(z, (groups, reps, levels))[g, r, l]
    expect = mulmod(
        (s0v % MERSENNE_P).astype(np.uint64),
        _powmod(zz, (qv + 1).astype(np.uint64)),
    )
    ok = expect == fp[g, r, l]
    if not ok.any():
        return out
    g, r, l, qv, s0v = g[ok], r[ok], l[ok], qv[ok], s0v[ok]
    # reference scan order: repetition-major, level-descending
    priority = r * levels + (levels - 1 - l)
    order = np.lexsort((priority, g))
    gs = g[order]
    first = np.unique(gs, return_index=True)[1]
    for w in order[first].tolist():
        out[int(g[w])] = (int(qv[w]), int(s0v[w]))
    return out


# ----------------------------------------------------------------------
# Segment / scatter / gather primitives (batched solver)
# ----------------------------------------------------------------------
def gather_add2(buf: np.ndarray, lay) -> np.ndarray:
    """``buf[src_vl] + buf[dst_vl]`` over the stored-edge layout ``lay``
    (edge coverage gather)."""
    return buf[lay.src_vl] + buf[lay.dst_vl]


def dual_scatter(vals: np.ndarray, out: np.ndarray, lay, cells: OracleCells) -> np.ndarray:
    """Scatter-add ``vals`` at the layout's ``src_vl`` then at its
    ``dst_vl`` into ``out``; return ``us_mass``, the values added at its
    ``l_idx`` over the level space.

    All src contributions accumulate first, then all dst, sequentially
    in element order -- the accumulation order of two sequential
    ``np.add.at`` calls and of ``np.bincount`` over the concatenation.

    ``out`` is the batch's reusable VL-sized buffer and ``cells`` a
    cell list of that batch: the native kernel zeroes only the list's
    cells of ``out`` before scattering, so ``out`` must be zero off
    them and every stored edge's cells must be among them.  The
    reference rewrites all of ``out``.
    """
    del cells
    out[:] = np.bincount(
        np.concatenate([lay.src_vl, lay.dst_vl]),
        weights=np.concatenate([vals, vals]),
        minlength=out.size,
    )
    # float64 also without values, where np.bincount returns int64
    return np.bincount(lay.l_idx, weights=vals, minlength=lay.nl).astype(np.float64)


def blend(x: np.ndarray, steps: list, sigmas: np.ndarray,
          cells: OracleCells) -> None:
    """In-place covering blend ``x_i = (1 - sigma_i) x_i + sigma_i step_i``.

    ``steps[i]`` is instance ``i``'s ``(n_i, L_i)`` step plane, read
    where it lies, or None to leave the instance's segment of ``x``
    alone.  ``cells`` is a cell list of ``x``'s layout: the reference
    blends every cell of each stepped segment (``cells.vl_off``), the
    native kernel only the listed ones, so ``x`` and every step must
    vanish off the list there.
    """
    off = cells.vl_off
    for i, step in enumerate(steps):
        if step is not None:
            seg = x[off[i] : off[i + 1]]
            seg *= 1.0 - sigmas[i]
            seg += sigmas[i] * step.ravel()


def width_box(steps: list, zloads: list | None, cells: OracleCells) -> np.ndarray:
    """Each step's box: the max of ``(2 step + zload) / ŵ_k`` over its
    instance's has_ik cells.

    ``steps`` and ``zloads`` hold per-instance ``(n_i, L_i)`` planes or
    None (``zloads`` None: no z-load anywhere); ``cells`` is a cell list
    of the layout, whose has_ik cells (``cells.hik >= 0``) are read with
    their ``ŵ_k`` (``cells.wk``).  Instances without a step, or without
    has_ik cells, get 0.0.
    """
    box = np.zeros(len(steps))
    for i, step in enumerate(steps):
        if step is None:
            continue
        lo, hi = cells.row_ptr[cells.v_off[i]], cells.row_ptr[cells.v_off[i + 1]]
        pos = cells.hik[lo:hi]
        on = pos >= 0
        local = cells.idx[lo:hi][on] - cells.vl_off[i]
        seg = 2.0 * step.ravel()[local]
        if zloads is not None and zloads[i] is not None:
            seg += zloads[i].ravel()[local]
        seg /= cells.wk[pos[on]]
        if seg.size:
            box[i] = seg.max()
    return box


# ----------------------------------------------------------------------
# Inner-tick fused stages (exp stays a shared numpy call between halves)
# ----------------------------------------------------------------------
def tick_stored_shift(cov: np.ndarray, alphas: np.ndarray, lay) -> np.ndarray:
    """Corollary 6 pre-exp chain over the stored-edge layout ``lay``.

    ``clip(alpha_i * (cov/wk - min_i(cov/wk)), 0, 60)`` with the
    per-instance minimum over each (non-empty) segment
    ``off[i]:off[i + 1]``.
    """
    off_list, counts = lay.off_list, np.diff(lay.off)
    B = len(counts)
    ratios = cov / lay.wk
    rmin = np.zeros(B)
    for s in range(B):
        lo, hi = off_list[s], off_list[s + 1]
        if hi > lo:
            rmin[s] = ratios[lo:hi].min()
    shifted = np.repeat(alphas, counts) * (ratios - np.repeat(rmin, counts))
    np.clip(shifted, 0.0, 60.0, out=shifted)
    return shifted


def tick_stored_post(e: np.ndarray, lay) -> tuple[np.ndarray, np.ndarray]:
    """Post-exp half: support values and per-instance support mass."""
    off_list = lay.off_list
    B = len(off_list) - 1
    u_stored = e / lay.wk
    support_vals = u_stored / lay.probs
    usc_all = support_vals * lay.wk
    usc = np.zeros(B)
    for s in range(B):
        lo, hi = off_list[s], off_list[s + 1]
        if hi > lo:
            usc[s] = usc_all[lo:hi].sum()
    return support_vals, usc


def tick_pack_arg(x: np.ndarray, zload: np.ndarray | None, alpha_p: np.ndarray,
                  active: np.ndarray, cells: OracleCells) -> np.ndarray:
    """Packing-multiplier pre-exp chain over the has_ik cells of ``cells``.

    ``alpha_p_i * (flat - fmax_i)`` with ``flat = (2 x (+ zload)) / (3
    ŵ_k)`` at the has_ik cells; ``fmax`` is taken over each instance's
    cells only where ``active`` flags it (the numpy reference leaves
    0.0 elsewhere).
    """
    off = cells.hik_off
    off_list, counts = off.tolist(), np.diff(off)
    B = len(counts)
    flat = 2.0 * x[cells.hik_idx]
    if zload is not None:
        flat += zload[cells.hik_idx]
    flat /= 3.0 * cells.wk
    fmax = np.zeros(B)
    for s in range(B):
        lo, hi = off_list[s], off_list[s + 1]
        if active[s] and hi > lo:
            fmax[s] = flat[lo:hi].max()
    return np.repeat(alpha_p, counts) * (flat - np.repeat(fmax, counts))


def tick_pack_post(e: np.ndarray, cells: OracleCells) -> tuple:
    """Post-exp half: the multipliers ``zmul`` at the has_ik cells of
    ``cells``, the per-instance packing budget, and ``zmul`` added at
    the cells' ``l_idx`` in element order (None without level ids)."""
    off_list = cells.hik_off.tolist()
    B = len(off_list) - 1
    po3 = 3.0 * cells.wk
    zmul = e / po3
    qo_all = zmul * po3
    qo = np.zeros(B)
    for s in range(B):
        lo, hi = off_list[s], off_list[s + 1]
        if hi > lo:
            qo[s] = qo_all[lo:hi].sum()
    if cells.l_idx is None:
        return zmul, qo, None
    return zmul, qo, np.bincount(cells.l_idx, weights=zmul, minlength=cells.nl).astype(np.float64)


# ----------------------------------------------------------------------
# Fused Algorithm 5 (steps 1-8) over the ragged batch layout
# ----------------------------------------------------------------------
def oracle_eval(us_mass: np.ndarray, zsum: np.ndarray, zmul: np.ndarray,
                sub: list[int], eps: float, scratch: OracleScratch) -> int:
    """Steps 1-8 of Algorithm 5 for the instances in ``sub``.

    The historical body of ``BatchMicroContext.evaluate`` up to the
    vertex route, op for op (see that class for the parity rules), on
    the scratch's batch at its ``s``, ``rho`` and ``beta``, with
    ``zmul`` the multipliers at its cell list's has_ik cells.  Writes
    the outputs into the scratch and returns the native kernel's flags:
    bit 0 when some instance passed the ``gamma > 0`` gate (``net`` and
    ``k_star_row`` are then valid), bit 1 when some took the vertex
    route (``step_x`` is then valid).  The caller handles the
    zero/vertex result assembly and the rare odd-set/witness tail.
    Works on the whole plane, not on the cells.
    """
    b = scratch.batch
    B = b.size
    s, rho_b, beta_b = scratch.s, scratch.rho, scratch.beta
    hik_idx, hik_off = scratch.cells.hik_idx, scratch.cells.hik_off
    gamma, gamma_v, route = scratch.gamma, scratch.gamma_v, scratch.route

    # Step 1: gamma per instance
    rho3_l = np.repeat(3.0 * rho_b, b.L)
    prod_l = b.wk_l * (us_mass - rho3_l * zsum)
    loff = b.l_off_list
    go: list[int] = []
    for i in sub:
        gamma[i] = prod_l[loff[i] : loff[i + 1]].sum()
        if gamma[i] <= 0.0:
            route[i] = 0
            # reference: (zeta[has_ik] * (2*0 + 0)[has_ik]).sum() == 0.0
            scratch.po[i] = 0.0
        else:
            go.append(i)
    if not go:
        return 0

    # Step 2: net, Pos, Delta(i, l).  Row scans and row sums run per
    # *run* of consecutive same-L instances (identical per-row rounding,
    # far fewer numpy calls than per-instance views).  ``zeta`` is zero
    # outside the has_ik cells and ``s - 2 rho * 0`` is bitwise ``s``,
    # so the dense subtraction reduces to a copy plus a scatter.
    net = scratch.net
    prefix, cs = scratch.prefix, scratch.cs
    rho2_hik = np.repeat(2.0 * rho_b, np.diff(hik_off))
    np.multiply(rho2_hik, zmul, out=rho2_hik)
    np.copyto(net, s)
    net[hik_idx] = s[hik_idx] - rho2_hik
    pos_net = np.maximum(net, 0.0, out=net)  # net is not reused below
    np.multiply(b.wk_vl, pos_net, out=prefix)
    row_tot = scratch.row_tot
    for lo, hi, rlo, rhi, L in b.vl_runs:
        wv = prefix[lo:hi].reshape(-1, L)
        np.cumsum(wv, axis=1, out=wv)  # in-place scan == out-of-place
        pv = pos_net[lo:hi].reshape(-1, L)
        pv.sum(axis=1, out=row_tot[rlo:rhi])
        np.cumsum(pv, axis=1, out=cs[lo:hi].reshape(-1, L))
    # suffix and delta reuse the cs buffer: suffix = tot - cs,
    # delta = prefix + wk * suffix
    delta = cs
    np.subtract(np.repeat(row_tot, b.row_len), cs, out=delta)
    np.multiply(b.wk_vl, delta, out=delta)
    np.add(prefix, delta, out=delta)

    # Step 3: k*_i as the last level exceeding the threshold
    gb = np.zeros(B, dtype=np.float64)
    for i in go:
        gb[i] = gamma[i] / beta_b[i]
    thresh = np.repeat(gb, b.vl_count)
    np.multiply(thresh, b.b_vl, out=thresh)
    np.multiply(thresh, b.wk_vl, out=thresh)
    exceeds = delta > thresh
    e_idx = np.where(exceeds, b.col_vl, np.int32(-1))
    scratch.k_star_row[:] = np.maximum.reduceat(e_idx, b.row_off[:-1])
    k_star_row = scratch.k_star_row

    # Step 4: Viol(V), Gamma(V) -- one global scan, split per instance
    viol_rows = np.flatnonzero(k_star_row >= 0)
    bounds = np.searchsorted(viol_rows, b.v_off)
    gathered = delta[b.row_off[viol_rows] + k_star_row[viol_rows]]
    vertex_set: list[int] = []
    for i in go:
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        gv = float(gathered[lo:hi].sum()) if hi > lo else 0.0
        gamma_v[i] = gv
        if gv >= eps * float(gamma[i]) / 24.0:
            route[i] = 1
            vertex_set.append(i)
        else:
            route[i] = 2

    # Steps 5-8: vertex route (batched over the choosing instances)
    if vertex_set:
        pos_mask = pos_net > 0.0
        ks_vl = np.repeat(k_star_row, b.row_len)
        viol_vl = ks_vl >= 0
        ks_clip = np.maximum(k_star_row, 0)
        wk_ks_row = b.wk_l[b.l_off[b.row_inst] + ks_clip]
        wk_ks_vl = np.repeat(wk_ks_row, b.row_len)
        gamma_arr = np.zeros(B, dtype=np.float64)
        gv_arr = np.ones(B, dtype=np.float64)
        for i in vertex_set:
            gamma_arr[i] = gamma[i]
            gv_arr[i] = gamma_v[i]
        wk_eff = np.where(b.col_vl <= ks_vl, b.wk_vl, wk_ks_vl)
        val = np.repeat(gamma_arr, b.vl_count)
        np.multiply(val, wk_eff, out=val)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(val, np.repeat(gv_arr, b.vl_count), out=val)
        mask = pos_mask & viol_vl
        # step values: val where masked, else 0 -- val is finite and
        # nonnegative, so the boolean multiply equals np.where
        step_x = np.multiply(val, mask, out=scratch.step_x)
        # packing load of the z-free steps, one batched gather:
        # reference po_of computes (zeta[has_ik] * (2 x̃)[has_ik]).sum()
        po_flat = step_x[hik_idx]
        np.multiply(po_flat, 2.0, out=po_flat)
        np.multiply(po_flat, zmul, out=po_flat)
        for i in vertex_set:
            scratch.po[i] = po_flat[int(hik_off[i]) : int(hik_off[i + 1])].sum()

    return 3 if vertex_set else 1


# ----------------------------------------------------------------------
# Maximum-weight matching (the offline harvest of Algorithm 2 step 5)
# ----------------------------------------------------------------------
def blossom_mates(nv: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Each vertex's matched edge index (``-1`` if single) under networkx.

    ``networkx.max_weight_matching(maxcardinality=False)`` on the simple
    graph with vertices ``0..nv-1`` and edges ``(src[k], dst[k])`` of
    weight ``weight[k]``, added in array order -- which fixes networkx's
    adjacency order, hence which optimum it returns among ties.
    """
    import networkx as nx

    nv, src, dst, weight = blossom_input(nv, src, dst, weight)
    g = nx.Graph()
    g.add_nodes_from(range(nv))
    for k, (i, j, w) in enumerate(zip(src.tolist(), dst.tolist(), weight.tolist())):
        g.add_edge(i, j, weight=w, eid=k)
    mate = np.full(nv, -1, dtype=np.int64)
    for i, j in nx.max_weight_matching(g, maxcardinality=False):
        mate[i] = mate[j] = g.edges[i, j]["eid"]
    return mate


# ----------------------------------------------------------------------
# Nagamochi-Ibaraki forest placement (Algorithm 6's inner loop)
# ----------------------------------------------------------------------
def _uf_find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]  # path halving
        x = parent[x]
    return x


def forest_place(table: np.ndarray, count: int, k: int, src: np.ndarray,
                 dst: np.ndarray, out: np.ndarray) -> tuple[int, int]:
    """Place edges in order into first-fit forests; ``(placed, count)``.

    ``table`` holds one int32 parent row per forest, rows ``< count`` in
    use; it is updated in place.  ``out[t]`` gets the 1-based index of
    the first forest separating ``src[t]`` and ``dst[t]``, found by
    bisection (first-fit forests nest: connected in forest ``j + 1``
    implies connected in forest ``j``), or ``k + 1`` for a self-loop or
    an edge that all ``k`` forests connect.  A miss opens a new forest
    unless the table is full, in which case the call stops before that
    edge.  The rows a call reads are Python lists for its length:
    per-element numpy indexing costs about 10x a list access.
    """
    nf, k, src, dst = forest_input(table, count, k, src, dst, out)
    cap, n = table.shape
    rows: dict[int, list[int]] = {}

    def row(j: int) -> list[int]:
        parent = rows.get(j)
        if parent is None:
            parent = rows[j] = table[j].tolist()
        return parent

    find = _uf_find
    idx: list[int] = []
    for u, v in zip(src.tolist(), dst.tolist()):
        if u == v:
            idx.append(k + 1)
            continue
        lo, hi = 0, nf
        while lo < hi:
            mid = (lo + hi) // 2
            parent = row(mid)
            if find(parent, u) == find(parent, v):
                lo = mid + 1
            else:
                hi = mid
        if lo < nf:
            parent = row(lo)
            parent[find(parent, u)] = find(parent, v)
            idx.append(lo + 1)
        elif nf < k:
            if nf == cap:
                break
            parent = rows[nf] = list(range(n))
            parent[u] = v
            nf += 1
            idx.append(nf)
        else:
            idx.append(k + 1)
    for j, parent in rows.items():
        table[j] = parent
    out[: len(idx)] = idx
    return len(idx), nf
