/* Native kernels for the sketch and solver hot loops.
 *
 * Compiled on demand by repro/kernels/build.py with the system C
 * toolchain and the flags listed there (`_CFLAGS`: always
 * -ffp-contract=off, never -ffast-math) and loaded via ctypes;
 * repro/kernels/numpy_impl.py holds the bit-parity reference for every
 * function here.
 *
 * Parity rules (see docs/kernels.md):
 *
 * - uint64 Mersenne arithmetic is exact, so any correct mod-p formula
 *   matches the numpy reference bit for bit; we use the 128-bit
 *   multiply + Mersenne fold.
 * - float kernels replicate numpy's exact evaluation order: elementwise
 *   chains keep the same op order, scans are sequential (numpy cumsum),
 *   and every reduction uses numpy's pairwise summation tree
 *   (`pw_sum`, blocksize 8/128), which is bitwise-identical to
 *   `ndarray.sum` on contiguous data.
 * - `exp` is NOT computed here: libm exp differs from numpy's SIMD exp
 *   in the last ulp on ~5% of inputs, so callers evaluate np.exp on the
 *   shared buffer between the `*_pre`/`*_post` halves of fused kernels.
 * - the blossom matcher (`rk_blossom_mates`) is a port of networkx's
 *   `max_weight_matching` that keeps every iteration order of the
 *   Python code, so its mates equal networkx's mate for mate.
 * - the forest placement (`rk_forest_place`, last section) runs the
 *   reference's finds and unions in the same order, so both leave
 *   byte-identical parent tables.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define RKP ((uint64_t)0x1FFFFFFFFFFFFFFFULL) /* 2^61 - 1 */
#define RKPD ((double)RKP)

/* ------------------------------------------------------------------ */
/* Mersenne-prime arithmetic (exact)                                   */
/* ------------------------------------------------------------------ */

static inline uint64_t rk_modm(uint64_t x) {
    uint64_t r = (x & RKP) + (x >> 61);
    return (r >= RKP) ? r - RKP : r;
}

/* (a * b) mod p for a, b < 2^61: 128-bit product, Mersenne fold. */
static inline uint64_t rk_mulmod1(uint64_t a, uint64_t b) {
    unsigned __int128 x = (unsigned __int128)a * (unsigned __int128)b;
    uint64_t r = ((uint64_t)x & RKP) + (uint64_t)(x >> 61);
    return (r >= RKP) ? r - RKP : r;
}

static inline uint64_t rk_powmod1(uint64_t base, uint64_t e) {
    uint64_t b = rk_modm(base);
    uint64_t r = 1;
    while (e) {
        if (e & 1) r = rk_mulmod1(r, b);
        e >>= 1;
        if (e) b = rk_mulmod1(b, b);
    }
    return r;
}

void rk_mod_mersenne(const uint64_t *x, uint64_t *out, int64_t n) {
    for (int64_t i = 0; i < n; i++) out[i] = rk_modm(x[i]);
}

void rk_mulmod(const uint64_t *a, const uint64_t *b, uint64_t *out, int64_t n) {
    for (int64_t i = 0; i < n; i++) out[i] = rk_mulmod1(a[i], b[i]);
}

/* sum mod p along axis 0 of a C-contiguous (k, rest) view; values < p,
 * k < 2^32 so the 32-bit split sums cannot wrap. */
void rk_sum_mod_p_axis0(const uint64_t *v, int64_t k, int64_t rest, uint64_t *out) {
    for (int64_t j = 0; j < rest; j++) {
        uint64_t lo = 0, hi = 0;
        for (int64_t i = 0; i < k; i++) {
            uint64_t x = v[i * rest + j];
            lo += x & 0xFFFFFFFFULL;
            hi += x >> 32;
        }
        out[j] = rk_modm(rk_mulmod1(rk_modm(hi), 1ULL << 32) + rk_modm(lo));
    }
}

/* ------------------------------------------------------------------ */
/* Fused sketch ingestion                                              */
/* ------------------------------------------------------------------ */

/* Geometric subsampling level: floor(-log2(max(u, 2^-(ml+2)))) clipped
 * to [0, ml], computed exactly via frexp (u = m * 2^e, m in [0.5, 1)).
 * Bit-identical to the numpy -log2 path (pinned by the parity tests,
 * including the adversarial hash values straddling level boundaries). */
static inline int64_t rk_level(double u, int64_t max_level) {
    double lo = ldexp(1.0, (int)(-(max_level + 2)));
    if (u < lo) u = lo;
    int e;
    double m = frexp(u, &e);
    int64_t lv = (m == 0.5) ? (int64_t)(1 - e) : (int64_t)(-e);
    if (lv < 0) lv = 0;
    if (lv > max_level) lv = max_level;
    return lv;
}

void rk_sketch_ingest(int64_t *s0, int64_t *s1, uint64_t *fp,
                      int64_t slots, int64_t rows, int64_t reps, int64_t levels,
                      const uint64_t *coeffs, int64_t kdeg,
                      const uint64_t *ztab, int64_t zbits,
                      const int64_t *rowsel, int64_t nrows,
                      const int64_t *slot_arr, const int64_t *indices,
                      const int64_t *deltas, const uint64_t *dmod, int64_t nupd) {
    (void)slots;
    for (int64_t rr = 0; rr < nrows; rr++) {
        int64_t ri = rowsel[rr];
        for (int64_t rep = 0; rep < reps; rep++) {
            const uint64_t *cf = coeffs + (ri * reps + rep) * kdeg;
            const uint64_t *zt = ztab + (ri * reps + rep) * levels * zbits;
            for (int64_t u = 0; u < nupd; u++) {
                uint64_t x = rk_modm((uint64_t)indices[u]);
                uint64_t h = cf[0];
                for (int64_t t = 1; t < kdeg; t++)
                    h = rk_modm(rk_mulmod1(h, x) + cf[t]);
                int64_t lv = rk_level((double)h / RKPD, levels - 1);
                uint64_t d = (uint64_t)deltas[u];
                uint64_t w = d * (uint64_t)indices[u]; /* int64 wrap semantics */
                uint64_t e0 = (uint64_t)(indices[u] + 1);
                int64_t base = ((slot_arr[u] * rows + ri) * reps + rep) * levels;
                for (int64_t l = 0; l <= lv; l++) {
                    int64_t c = base + l;
                    s0[c] = (int64_t)((uint64_t)s0[c] + d);
                    s1[c] = (int64_t)((uint64_t)s1[c] + w);
                    const uint64_t *ztl = zt + l * zbits;
                    uint64_t zp = 1, e = e0;
                    int64_t j = 0;
                    while (e && j < zbits) {
                        if (e & 1) zp = rk_mulmod1(zp, ztl[j]);
                        e >>= 1;
                        j++;
                    }
                    fp[c] = rk_modm(fp[c] + rk_mulmod1(dmod[u], zp));
                }
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Fused sampler decode                                                */
/* ------------------------------------------------------------------ */

void rk_decode_planes(const int64_t *s0, const int64_t *s1, const uint64_t *fp,
                      const uint64_t *z, int64_t groups, int64_t reps,
                      int64_t levels, int64_t universe,
                      int64_t *out_idx, int64_t *out_val) {
    for (int64_t g = 0; g < groups; g++) {
        out_idx[g] = -1;
        out_val[g] = 0;
        /* reference scan order: repetition-major, level-descending */
        for (int64_t r = 0; r < reps && out_idx[g] < 0; r++) {
            for (int64_t l = levels - 1; l >= 0; l--) {
                int64_t c = (g * reps + r) * levels + l;
                int64_t s0v = s0[c];
                if (s0v == 0) continue;
                /* python floor division semantics (np.divmod) */
                int64_t q = s1[c] / s0v, rem = s1[c] % s0v;
                if (rem != 0 && ((rem < 0) != (s0v < 0))) { q -= 1; rem += s0v; }
                if (rem != 0 || q < 0 || q >= universe) continue;
                int64_t sm = s0v % (int64_t)RKP;
                if (sm < 0) sm += (int64_t)RKP;
                uint64_t expect =
                    rk_mulmod1((uint64_t)sm, rk_powmod1(z[r * levels + l], (uint64_t)(q + 1)));
                if (expect == fp[c]) {
                    out_idx[g] = q;
                    out_val[g] = s0v;
                    break;
                }
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* numpy-compatible pairwise summation (bitwise ndarray.sum)           */
/* ------------------------------------------------------------------ */

static double pw_sum(const double *a, int64_t n) {
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i + 0];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
            r4 += a[i + 4];
            r5 += a[i + 5];
            r6 += a[i + 6];
            r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pw_sum(a, n2) + pw_sum(a + n2, n - n2);
}

/* ------------------------------------------------------------------ */
/* Segment / scatter / gather primitives                               */
/* ------------------------------------------------------------------ */

void rk_gather_add2(const double *buf, const int64_t *ia, const int64_t *ib,
                    double *out, int64_t n) {
    for (int64_t i = 0; i < n; i++) out[i] = buf[ia[i]] + buf[ib[i]];
}

/* out[clear[c]] = 0 for the nclear listed entries, then out[src[t]] +=
 * w[t] for all t, then the same over dst: the exact accumulation order
 * of np.bincount on the concatenated index array. */
void rk_dual_scatter(double *out, const int64_t *clear, int64_t nclear,
                     const int64_t *src, const int64_t *dst,
                     const double *w, int64_t n) {
    for (int64_t c = 0; c < nclear; c++) out[clear[c]] = 0.0;
    for (int64_t t = 0; t < n; t++) out[src[t]] += w[t];
    for (int64_t t = 0; t < n; t++) out[dst[t]] += w[t];
}

void rk_index_scatter(double *out, const int64_t *idx, const double *w, int64_t n) {
    for (int64_t t = 0; t < n; t++) out[idx[t]] += w[t];
}

/* Step planes arrive as addresses: steps[i] is instance i's (n_i, L_i)
 * plane, whose entry j - vl_off[i] belongs to VL cell j, or 0 for none. */
static inline const double *rk_plane(const int64_t *planes, int64_t i) {
    return (const double *)(intptr_t)planes[i];
}

/* x = x * (1 - sigma_i) + sigma_i * step_i at the cells of each
 * instance with a step, cell_vl[cell_ptr[v_off[i]] .. cell_ptr[v_off[i+1]]).
 * The caller keeps x and every step zero off the cells, where the blend
 * would leave 0 * (1 - sigma) + sigma * 0 = +0.0 anyway. */
void rk_blend(double *x, const int64_t *steps, const double *sig,
              const int64_t *cell_vl, const int64_t *cell_ptr,
              const int64_t *v_off, const int64_t *vl_off, int64_t B) {
    for (int64_t i = 0; i < B; i++) {
        const double *o = rk_plane(steps, i);
        if (!o) continue;
        double s = sig[i], t = 1.0 - s;
        int64_t base = vl_off[i];
        for (int64_t c = cell_ptr[v_off[i]]; c < cell_ptr[v_off[i + 1]]; c++) {
            int64_t j = cell_vl[c];
            x[j] = x[j] * t + s * o[j - base];
        }
    }
}

/* box_i = max over instance i's has_ik cells (cell_hik[c] >= 0) of
 * (2 step_i (+ zload_i)) / wk; 0.0 for an instance without a step
 * or without such cells, NaN if any term is.  The max is taken as
 * `(f > m) ? f : m`, which compiles to a branch-free maxsd, and NaNs
 * are counted apart. */
void rk_width_box(const int64_t *steps, const int64_t *zloads,
                  const int64_t *cell_vl, const int64_t *cell_ptr,
                  const int64_t *cell_hik, const int64_t *v_off,
                  const int64_t *vl_off, const double *wk, int64_t B,
                  double *box) {
    for (int64_t i = 0; i < B; i++) {
        const double *o = rk_plane(steps, i);
        const double *zl = zloads ? rk_plane(zloads, i) : NULL;
        double m = -INFINITY;
        int64_t seen = 0, nan = 0, base = vl_off[i];
        for (int64_t c = cell_ptr[v_off[i]]; o && c < cell_ptr[v_off[i + 1]]; c++) {
            int64_t t = cell_hik[c];
            if (t < 0) continue;
            int64_t j = cell_vl[c] - base;
            double f = 2.0 * o[j];
            if (zl) f += zl[j];
            f /= wk[t];
            m = (f > m) ? f : m;
            nan |= (f != f);
            seen = 1;
        }
        box[i] = nan ? NAN : (seen ? m : 0.0);
    }
}

/* ------------------------------------------------------------------ */
/* Inner-tick fused stages (exp stays in numpy between pre and post)   */
/* ------------------------------------------------------------------ */

/* shifted = clip(alpha_i * (cov/wk - min_i(cov/wk)), 0, 60).  The min
 * is NaN if any ratio is, as numpy's .min() is: the compare skips a
 * NaN, so NaNs are counted apart, in the same pass. */
void rk_tick_stored_shift(const double *cov, const double *wk, const int64_t *off,
                          int64_t B, const double *alphas, double *shifted) {
    for (int64_t i = 0; i < B; i++) {
        int64_t lo = off[i], hi = off[i + 1];
        if (hi <= lo) continue;
        double rmin = cov[lo] / wk[lo];
        int64_t nan = 0;
        for (int64_t j = lo; j < hi; j++) {
            double r = cov[j] / wk[j];
            shifted[j] = r;
            if (r < rmin) rmin = r;
            nan |= (r != r);
        }
        if (nan) rmin = NAN;
        double a = alphas[i];
        for (int64_t j = lo; j < hi; j++) {
            double t = a * (shifted[j] - rmin);
            if (t < 0.0) t = 0.0;
            if (t > 60.0) t = 60.0;
            shifted[j] = t;
        }
    }
}

/* support_vals = (e/wk)/probs; usc_i = pairwise-sum(support_vals*wk) */
void rk_tick_stored_post(const double *e, const double *wk, const double *probs,
                         const int64_t *off, int64_t B, double *support_vals,
                         double *scratch, double *usc) {
    for (int64_t i = 0; i < B; i++) {
        int64_t lo = off[i], hi = off[i + 1];
        for (int64_t j = lo; j < hi; j++) {
            double u = e[j] / wk[j];
            double sv = u / probs[j];
            support_vals[j] = sv;
            scratch[j] = sv * wk[j];
        }
        usc[i] = pw_sum(scratch + lo, hi - lo);
    }
}

/* arg = alpha_p_i * ((2x[g] (+ zload[g])) / (3 wk) - max_i(...)), max
 * only for flagged instances (numpy leaves fmax = 0 elsewhere).  Like
 * numpy's .max(), the max is NaN if any term is (NaNs counted apart). */
void rk_tick_pack_arg(const double *x, const double *zload, int64_t any_z,
                      const int64_t *hik_idx, const double *wk,
                      const double *alpha_p, const int64_t *off, int64_t B,
                      const uint8_t *active, double *arg) {
    for (int64_t i = 0; i < B; i++) {
        int64_t lo = off[i], hi = off[i + 1];
        if (hi <= lo) continue;
        double fmax = 0.0;
        int64_t nan = 0;
        for (int64_t t = lo; t < hi; t++) {
            double f = 2.0 * x[hik_idx[t]];
            if (any_z) f += zload[hik_idx[t]];
            f /= 3.0 * wk[t];
            arg[t] = f;
            if (active[i] && (t == lo || f > fmax)) fmax = f;
            nan |= (f != f);
        }
        if (active[i] && nan) fmax = NAN;
        double a = alpha_p[i];
        for (int64_t t = lo; t < hi; t++) arg[t] = a * (arg[t] - fmax);
    }
}

/* zmul = e / (3 wk); qo_i = pw(zmul * (3 wk)) */
void rk_tick_pack_post(const double *e, const double *wk, const int64_t *off,
                       int64_t B, double *zmul, double *scratch, double *qo) {
    for (int64_t i = 0; i < B; i++) {
        int64_t lo = off[i], hi = off[i + 1];
        for (int64_t t = lo; t < hi; t++) {
            double po3 = 3.0 * wk[t];
            double zm = e[t] / po3;
            zmul[t] = zm;
            scratch[t] = zm * po3;
        }
        qo[i] = pw_sum(scratch + lo, hi - lo);
    }
}

/* ------------------------------------------------------------------ */
/* Fused Algorithm 5 (steps 1-8) over the ragged batch layout          */
/* ------------------------------------------------------------------ */

/* `keep ? v : 0.0` without a branch, by masking v's bits.  The sign
 * tests of the oracle mispredict as branches: about half of the has_ik
 * cells have a positive net.  rk_pos(v) is exactly `(v > 0.0) ? v :
 * 0.0`, NaN and -0.0 included (both give +0.0). */
static inline double rk_mask(double v, int keep) {
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    bits &= (uint64_t)0 - (uint64_t)keep;
    memcpy(&v, &bits, sizeof v);
    return v;
}

static inline double rk_pos(double v) { return rk_mask(v, v > 0.0); }

/* Returns flags: bit 0 = some instance passed the gamma > 0 gate,
 * bit 1 = some instance took the vertex route.  Outputs follow the
 * full-buffer semantics of the numpy reference: pos_net and k* are
 * written for every instance (inactive ones see rho = 0), gamma_v and
 * the route for every go instance, step_x only when a vertex route
 * fires.
 *
 * Each vertex row visits only its candidate cells: the VL ids
 * cell_vl[cell_ptr[r] .. cell_ptr[r+1]), increasing, with cell_hik[c]
 * the cell's position in hik_idx/zmul or -1.  zeta is zmul at the
 * has_ik cells and zero elsewhere, and the caller guarantees that s
 * vanishes off the cells, so there net = +0.0 and:
 * - the running sums P (of wk * pos) and C (of pos) are unchanged by
 *   the skipped cells, since adding +0.0 to a nonnegative sum is exact;
 * - the row total is numpy's pairwise sum over all L entries, so the
 *   row is scattered into the zeroed `row` buffer for pw_sum (dropping
 *   the zeros would change the pairwise tree), then cleared again;
 * - pos_net and step_x are written only at the cells: the caller keeps
 *   them zero elsewhere.
 * `pc` holds P and C at each cell of the current row; `tmp_l` holds
 * the gamma terms, then a vertex-route instance's value table.
 */
int64_t rk_oracle_eval(
    int64_t B, const int64_t *l_off, const int64_t *v_off,
    const int64_t *row_off, const int64_t *row_len,
    const double *wk_l, const double *b_vl,
    const int64_t *cell_vl, const int64_t *cell_ptr, const int64_t *cell_hik,
    const double *us_mass, const double *zsum, const double *s,
    const int64_t *hik_idx, const int64_t *hik_off, const double *zmul,
    const uint8_t *active, const double *rho, const double *beta, double eps,
    double *tmp_l, double *row, double *pc, double *gath, double *pobuf,
    uint8_t *goflag,
    double *gamma, double *gamma_v, int64_t *k_star_row, double *pos_net,
    uint8_t *route, double *step_x, double *po) {
    int64_t any_go = 0, any_vertex = 0;

    /* Step 1: gamma_i = pw(wk_l * (us_mass - 3 rho zsum)) */
    for (int64_t i = 0; i < B; i++) {
        goflag[i] = 0;
        if (!active[i]) continue;
        double r3 = 3.0 * rho[i];
        int64_t lo = l_off[i], hi = l_off[i + 1];
        for (int64_t j = lo; j < hi; j++) {
            double t = r3 * zsum[j];
            t = us_mass[j] - t;
            tmp_l[j - lo] = wk_l[j] * t;
        }
        gamma[i] = pw_sum(tmp_l, hi - lo);
        if (gamma[i] <= 0.0) {
            route[i] = 0;
            po[i] = 0.0;
        } else {
            goflag[i] = 1;
            any_go = 1;
        }
    }
    if (!any_go) return 0;

    /* Steps 2-3 for every instance (full-buffer numpy semantics), and
     * step 4 for the go instances as their rows complete. */
    for (int64_t i = 0; i < B; i++) {
        double r2 = 2.0 * rho[i];
        double gb = goflag[i] ? gamma[i] / beta[i] : 0.0;
        const double *wk = wk_l + l_off[i];
        int64_t cnt = 0;
        for (int64_t r = v_off[i]; r < v_off[i + 1]; r++) {
            int64_t base = row_off[r], L = row_len[r];
            int64_t c0 = cell_ptr[r], nc = cell_ptr[r + 1] - c0;
            const int64_t *cv = cell_vl + c0, *ch = cell_hik + c0;
            double P = 0.0, C = 0.0;
            for (int64_t c = 0; c < nc; c++) {
                int64_t j = cv[c], t = ch[c];
                double v = s[j];
                if (t >= 0) v = s[j] - r2 * zmul[t];
                v = rk_pos(v);
                pos_net[j] = v;
                row[j - base] = v;
                P += wk[j - base] * v; /* sequential scans == np.cumsum */
                C += v;
                pc[2 * c] = P;
                pc[2 * c + 1] = C;
            }
            double row_tot = pw_sum(row, L);
            for (int64_t c = 0; c < nc; c++) row[cv[c] - base] = 0.0;
            /* k* = last column with delta > threshold: scan down from
             * L - 1 with P and C of the last cell at or left of q */
            double gbb = gb * b_vl[base];
            int64_t ks = -1, c = nc - 1;
            double d = 0.0;
            for (int64_t q = L - 1; q >= 0; q--) {
                while (c >= 0 && cv[c] - base > q) c--;
                double Pq = (c >= 0) ? pc[2 * c] : 0.0;
                double Cq = (c >= 0) ? pc[2 * c + 1] : 0.0;
                d = row_tot - Cq;
                d = wk[q] * d;
                d = Pq + d; /* delta(i, q) */
                if (d > gbb * wk[q]) {
                    ks = q;
                    break;
                }
            }
            k_star_row[r] = ks;
            if (goflag[i] && ks >= 0) gath[cnt++] = d;
        }
        if (!goflag[i]) continue;
        double gv = (cnt > 0) ? pw_sum(gath, cnt) : 0.0;
        gamma_v[i] = gv;
        double thr = eps * gamma[i];
        thr /= 24.0;
        if (gv >= thr) {
            route[i] = 1;
            any_vertex = 1;
        } else {
            route[i] = 2;
        }
    }
    if (!any_vertex) return 1;

    /* Steps 5-8: vertex route.  The step at column q is
     * (gamma wk[min(q, k*)]) / Gamma_V, tabulated once per instance;
     * cells of other instances get +0.0, as numpy's masked multiply
     * writes there. */
    for (int64_t i = 0; i < B; i++) {
        int64_t clo = cell_ptr[v_off[i]], chi = cell_ptr[v_off[i + 1]];
        if (!(goflag[i] && route[i] == 1)) {
            for (int64_t c = clo; c < chi; c++) step_x[cell_vl[c]] = 0.0;
            continue;
        }
        double g = gamma[i], gv = gamma_v[i];
        const double *wk = wk_l + l_off[i];
        int64_t L = l_off[i + 1] - l_off[i];
        for (int64_t q = 0; q < L; q++) {
            double v = g * wk[q];
            v /= gv;
            tmp_l[q] = v;
        }
        for (int64_t r = v_off[i]; r < v_off[i + 1]; r++) {
            int64_t base = row_off[r], ks = k_star_row[r];
            int64_t c0 = cell_ptr[r], c1 = cell_ptr[r + 1];
            if (ks < 0) {
                for (int64_t c = c0; c < c1; c++) step_x[cell_vl[c]] = 0.0;
                continue;
            }
            for (int64_t c = c0; c < c1; c++) {
                int64_t j = cell_vl[c], q = j - base;
                step_x[j] = rk_mask(tmp_l[q < ks ? q : ks], pos_net[j] > 0.0);
            }
        }
        int64_t cnt = 0;
        for (int64_t t = hik_off[i]; t < hik_off[i + 1]; t++) {
            double pf = step_x[hik_idx[t]];
            pf *= 2.0;
            pf *= zmul[t];
            pobuf[cnt++] = pf;
        }
        po[i] = pw_sum(pobuf, cnt);
    }
    return 3;
}

/* ------------------------------------------------------------------ */
/* Maximum-weight matching: networkx's blossom (Galil 1986), ported    */
/* ------------------------------------------------------------------ */

/* A line-by-line port of networkx 3.6.1
 * `max_weight_matching(G, maxcardinality=False)` on float weights.
 * Results equal networkx's mate for mate, including which optimum it
 * picks among ties, because every order of the Python code is kept:
 *
 * - vertices in order 0..nv-1, neighbours in edge-array order (the
 *   adjacency insertion order of the networkx graph);
 * - blossoms in creation order wherever networkx iterates the
 *   `blossomparent` / `blossomdual` dicts (delta3 after the vertices,
 *   delta4, the dual update, the end-of-stage expansion snapshot).
 *   Blossom ids are reused, so creation order lives in a linked list;
 * - `leaves()` pops from a stack: children come out reversed;
 * - the queue is LIFO; `bestedgeto` keeps first-insertion order and
 *   the stored edge keeps its (v, w) orientation;
 * - strict `<` everywhere, an edge is allowable when slack <= 0, slack
 *   is (dual[v] + dual[w]) - 2 w and delta3 is slack / 2.0.
 *
 * An edge (v, w) is an oriented code c = 2k + o for edge k:
 * from(c) = ends[c], to(c) = ends[c ^ 1], and c ^ 1 is (w, v).  Ids
 * 0..nv-1 are vertices (trivial blossoms, sharing their label slot as
 * in networkx), ids nv..2nv-1 non-trivial blossoms.  networkx's two
 * trampolines are plain recursion here.  All state lives in one struct
 * per call: ctypes releases the GIL, so threads may call concurrently.
 */

#define BL_NONE ((int64_t)-1)

typedef struct {
    int64_t *a;
    int64_t n, cap;
} bl_vec;

typedef struct {
    int64_t nv, nb;
    const double *wt;
    int64_t *ends;      /* 2m endpoints: from(c) = ends[c]              */
    int64_t *adj_off;   /* nv + 1                                        */
    int64_t *adj;       /* codes leaving each vertex, in edge order      */
    int64_t *mate;      /* nv: code from v to its mate, or BL_NONE       */
    int64_t *inblossom; /* nv: top-level blossom of each vertex          */
    double *dualvar;    /* nv: 2 u(v)                                    */
    int8_t *label;      /* nb: 0 = none, 1 = S, 2 = T, 5 = breadcrumb   */
    int64_t *labeledge; /* nb                                            */
    int64_t *bestedge;  /* nb                                            */
    int64_t *bparent;   /* nb                                            */
    int64_t *bbase;     /* nb: base vertex                               */
    double *bdual;      /* nb: z(b)                                      */
    bl_vec *childs;     /* nb: sub-blossoms, base first                  */
    bl_vec *bedges;     /* nb: bedges[i] joins childs[i], childs[i+1]    */
    bl_vec *mbe;        /* nb: mybestedges, valid when has_mbe           */
    int8_t *has_mbe;
    int8_t *alive;
    int64_t *lprev, *lnext, lhead, ltail; /* live blossoms, creation order */
    int64_t *freeids, nfree;
    int64_t *allow, stage; /* allowedge: allow[k] == stage               */
    int64_t *queue, qlen, qcap;
    int64_t *stk, *leaves, *path, *path2;
    int64_t *bet, *bet_keys; /* bestedgeto: value per blossom, key order */
    int oom;
} bl_state;

static int bl_reserve(bl_vec *v, int64_t need) {
    if (need <= v->cap) return 0;
    int64_t cap = v->cap ? v->cap : 8;
    while (cap < need) cap *= 2;
    int64_t *a = (int64_t *)realloc(v->a, (size_t)cap * sizeof(int64_t));
    if (!a) return -1;
    v->a = a;
    v->cap = cap;
    return 0;
}

static inline double bl_slack(const bl_state *S, int64_t c) {
    return (S->dualvar[S->ends[c]] + S->dualvar[S->ends[c ^ 1]]) - 2.0 * S->wt[c >> 1];
}

static inline int64_t bl_wrap(int64_t j, int64_t L) { return (j < 0) ? j + L : j; }

static void bl_qpush(bl_state *S, int64_t v) {
    if (S->qlen == S->qcap) {
        int64_t cap = 2 * S->qcap + 16;
        int64_t *q = (int64_t *)realloc(S->queue, (size_t)cap * sizeof(int64_t));
        if (!q) {
            S->oom = 1;
            return;
        }
        S->queue = q;
        S->qcap = cap;
    }
    S->queue[S->qlen++] = v;
}

/* Blossom.leaves(): stack = [*childs]; pop; a blossom pushes its childs. */
static int64_t bl_leaves(bl_state *S, int64_t b, int64_t *out) {
    int64_t sp = 0, n = 0;
    const bl_vec *ch = &S->childs[b];
    for (int64_t i = 0; i < ch->n; i++) S->stk[sp++] = ch->a[i];
    while (sp) {
        int64_t t = S->stk[--sp];
        if (t >= S->nv) {
            const bl_vec *c2 = &S->childs[t];
            for (int64_t i = 0; i < c2->n; i++) S->stk[sp++] = c2->a[i];
        } else {
            out[n++] = t;
        }
    }
    return n;
}

static int64_t bl_index(const bl_vec *v, int64_t x) {
    for (int64_t i = 0; i < v->n; i++)
        if (v->a[i] == x) return i;
    return -1;
}

static void bl_reverse(int64_t *a, int64_t lo, int64_t hi) {
    for (hi--; lo < hi; lo++, hi--) {
        int64_t t = a[lo];
        a[lo] = a[hi];
        a[hi] = t;
    }
}

/* a[i:] + a[:i], in place */
static void bl_rotate(int64_t *a, int64_t n, int64_t i) {
    if (i <= 0 || i >= n) return;
    bl_reverse(a, 0, i);
    bl_reverse(a, i, n);
    bl_reverse(a, 0, n);
}

static int64_t bl_new_blossom(bl_state *S) {
    int64_t b = S->freeids[--S->nfree];
    S->alive[b] = 1;
    S->lprev[b] = S->ltail;
    S->lnext[b] = BL_NONE;
    if (S->ltail != BL_NONE) S->lnext[S->ltail] = b;
    else S->lhead = b;
    S->ltail = b;
    S->childs[b].n = S->bedges[b].n = S->mbe[b].n = 0;
    S->has_mbe[b] = 0;
    return b;
}

static void bl_free_blossom(bl_state *S, int64_t b) {
    if (S->lprev[b] != BL_NONE) S->lnext[S->lprev[b]] = S->lnext[b];
    else S->lhead = S->lnext[b];
    if (S->lnext[b] != BL_NONE) S->lprev[S->lnext[b]] = S->lprev[b];
    else S->ltail = S->lprev[b];
    S->alive[b] = 0;
    S->label[b] = 0;
    S->labeledge[b] = S->bestedge[b] = S->bparent[b] = S->bbase[b] = BL_NONE;
    S->bdual[b] = 0.0;
    S->has_mbe[b] = 0;
    S->freeids[S->nfree++] = b;
}

/* Assign label t to the top-level blossom containing w, coming through
 * edge c = (v, w), or c = BL_NONE. */
static void bl_assign_label(bl_state *S, int64_t w, int t, int64_t c) {
    int64_t b = S->inblossom[w];
    S->label[w] = S->label[b] = (int8_t)t;
    S->labeledge[w] = S->labeledge[b] = c;
    S->bestedge[w] = S->bestedge[b] = BL_NONE;
    if (t == 1) {
        if (b >= S->nv) {
            int64_t n = bl_leaves(S, b, S->leaves);
            for (int64_t i = 0; i < n; i++) bl_qpush(S, S->leaves[i]);
        } else {
            bl_qpush(S, b);
        }
    } else if (t == 2) {
        int64_t mc = S->mate[S->bbase[b]];
        bl_assign_label(S, S->ends[mc ^ 1], 1, mc);
    }
}

/* Trace back from v and w: base of a new blossom, or BL_NONE when an
 * augmenting path was found. */
static int64_t bl_scan_blossom(bl_state *S, int64_t v, int64_t w) {
    int64_t np = 0, base = BL_NONE;
    while (v != BL_NONE) {
        int64_t b = S->inblossom[v];
        if (S->label[b] & 4) {
            base = S->bbase[b];
            break;
        }
        S->path[np++] = b;
        S->label[b] = 5;
        if (S->labeledge[b] == BL_NONE) {
            v = BL_NONE;
        } else {
            v = S->ends[S->labeledge[b]];
            b = S->inblossom[v];
            v = S->ends[S->labeledge[b]];
        }
        if (w != BL_NONE) {
            int64_t t = v;
            v = w;
            w = t;
        }
    }
    for (int64_t i = 0; i < np; i++) S->label[S->path[i]] = 1;
    return base;
}

/* One nblist entry of addBlossom's least-slack bookkeeping. */
static inline void bl_bestedgeto(bl_state *S, int64_t b, int64_t k, int64_t *nk) {
    int64_t j = S->ends[k ^ 1];
    if (S->inblossom[j] == b) j = S->ends[k];
    int64_t bj = S->inblossom[j];
    if (bj != b && S->label[bj] == 1) {
        int64_t cur = S->bet[bj];
        if (cur == BL_NONE) {
            S->bet_keys[(*nk)++] = bj;
            S->bet[bj] = k;
        } else if (bl_slack(S, k) < bl_slack(S, cur)) {
            S->bet[bj] = k;
        }
    }
}

/* New S-blossom with the given base, through S-vertices joined by c. */
static void bl_add_blossom(bl_state *S, int64_t base, int64_t c) {
    const int64_t nv = S->nv;
    int64_t v = S->ends[c], w = S->ends[c ^ 1];
    int64_t bb = S->inblossom[base], bv = S->inblossom[v], bw = S->inblossom[w];
    int64_t b = bl_new_blossom(S);
    S->bbase[b] = base;
    S->bparent[b] = BL_NONE;
    S->bparent[bb] = b;
    int64_t *path = S->path, *edgs = S->path2, np = 0, ne = 0;
    edgs[ne++] = c;
    while (bv != bb) {
        S->bparent[bv] = b;
        path[np++] = bv;
        edgs[ne++] = S->labeledge[bv];
        v = S->ends[S->labeledge[bv]];
        bv = S->inblossom[v];
    }
    path[np++] = bb;
    bl_reverse(path, 0, np);
    bl_reverse(edgs, 0, ne);
    while (bw != bb) {
        S->bparent[bw] = b;
        path[np++] = bw;
        edgs[ne++] = S->labeledge[bw] ^ 1;
        w = S->ends[S->labeledge[bw]];
        bw = S->inblossom[w];
    }
    bl_vec *ch = &S->childs[b], *ed = &S->bedges[b];
    if (bl_reserve(ch, np) || bl_reserve(ed, ne)) {
        S->oom = 1;
        return;
    }
    memcpy(ch->a, path, (size_t)np * sizeof(int64_t));
    memcpy(ed->a, edgs, (size_t)ne * sizeof(int64_t));
    ch->n = np;
    ed->n = ne;
    S->label[b] = 1;
    S->labeledge[b] = S->labeledge[bb];
    S->bdual[b] = 0.0;
    /* relabel: T-vertices turn S and join the queue */
    int64_t nl = bl_leaves(S, b, S->leaves);
    for (int64_t i = 0; i < nl; i++) {
        int64_t x = S->leaves[i];
        if (S->label[S->inblossom[x]] == 2) bl_qpush(S, x);
        S->inblossom[x] = b;
    }
    /* least-slack edges to neighbouring S-blossoms */
    int64_t nk = 0;
    for (int64_t p = 0; p < ch->n; p++) {
        int64_t sub = ch->a[p];
        if (sub >= nv && S->has_mbe[sub]) {
            const bl_vec *mb = &S->mbe[sub];
            for (int64_t q = 0; q < mb->n; q++) bl_bestedgeto(S, b, mb->a[q], &nk);
            S->has_mbe[sub] = 0;
        } else if (sub >= nv) {
            int64_t ns = bl_leaves(S, sub, S->leaves);
            for (int64_t i = 0; i < ns; i++) {
                int64_t x = S->leaves[i];
                for (int64_t a = S->adj_off[x]; a < S->adj_off[x + 1]; a++)
                    bl_bestedgeto(S, b, S->adj[a], &nk);
            }
        } else {
            for (int64_t a = S->adj_off[sub]; a < S->adj_off[sub + 1]; a++)
                bl_bestedgeto(S, b, S->adj[a], &nk);
        }
        S->bestedge[sub] = BL_NONE;
    }
    bl_vec *mb = &S->mbe[b];
    if (bl_reserve(mb, nk)) {
        S->oom = 1;
        return;
    }
    for (int64_t i = 0; i < nk; i++) {
        mb->a[i] = S->bet[S->bet_keys[i]];
        S->bet[S->bet_keys[i]] = BL_NONE;
    }
    mb->n = nk;
    S->has_mbe[b] = 1;
    int64_t best = BL_NONE;
    double bestslack = 0.0;
    for (int64_t i = 0; i < nk; i++) {
        double ks = bl_slack(S, mb->a[i]);
        if (best == BL_NONE || ks < bestslack) {
            best = mb->a[i];
            bestslack = ks;
        }
    }
    S->bestedge[b] = best;
}

/* Expand the top-level blossom b. */
static void bl_expand_blossom(bl_state *S, int64_t b, int endstage) {
    const int64_t nv = S->nv;
    const bl_vec *ch = &S->childs[b], *ed = &S->bedges[b];
    const int64_t L = ch->n;
    for (int64_t i = 0; i < L; i++) {
        int64_t s = ch->a[i];
        S->bparent[s] = BL_NONE;
        if (s < nv) {
            S->inblossom[s] = s;
        } else if (endstage && S->bdual[s] == 0.0) {
            bl_expand_blossom(S, s, endstage);
        } else {
            int64_t n = bl_leaves(S, s, S->leaves);
            for (int64_t q = 0; q < n; q++) S->inblossom[S->leaves[q]] = s;
        }
    }
    if (!endstage && S->label[b] == 2) {
        /* relabel the sub-blossoms of an expanding T-blossom, starting at
         * the child through which it got its label */
        int64_t entry = S->inblossom[S->ends[S->labeledge[b] ^ 1]];
        int64_t j = bl_index(ch, entry), jstep;
        if (j & 1) {
            j -= L;
            jstep = 1;
        } else {
            jstep = -1;
        }
        int64_t vw = S->labeledge[b]; /* (v, w) */
        while (j != 0) {
            int64_t e, q;
            if (jstep == 1) {
                e = ed->a[bl_wrap(j, L)];
                q = S->ends[e ^ 1];
            } else {
                e = ed->a[bl_wrap(j - 1, L)];
                q = S->ends[e];
            }
            S->label[S->ends[vw ^ 1]] = 0;
            S->label[q] = 0;
            bl_assign_label(S, S->ends[vw ^ 1], 2, vw);
            S->allow[e >> 1] = S->stage;
            j += jstep;
            if (jstep == 1) {
                e = ed->a[bl_wrap(j, L)];
                vw = e;
            } else {
                e = ed->a[bl_wrap(j - 1, L)];
                vw = e ^ 1;
            }
            S->allow[e >> 1] = S->stage;
            j += jstep;
        }
        int64_t w = S->ends[vw ^ 1], bw = ch->a[bl_wrap(j, L)];
        S->label[w] = S->label[bw] = 2;
        S->labeledge[w] = S->labeledge[bw] = vw;
        S->bestedge[bw] = BL_NONE;
        j += jstep;
        while (ch->a[bl_wrap(j, L)] != entry) {
            int64_t bv = ch->a[bl_wrap(j, L)];
            if (S->label[bv] == 1) {
                j += jstep;
                continue;
            }
            int64_t v = BL_NONE;
            if (bv >= nv) {
                int64_t n = bl_leaves(S, bv, S->leaves);
                for (int64_t q = 0; q < n; q++)
                    if (S->label[S->leaves[q]]) {
                        v = S->leaves[q];
                        break;
                    }
            } else if (S->label[bv]) {
                v = bv;
            }
            if (v != BL_NONE) {
                S->label[v] = 0;
                S->label[S->ends[S->mate[S->bbase[bv]] ^ 1]] = 0;
                bl_assign_label(S, v, 2, S->labeledge[v]);
            }
            j += jstep;
        }
    }
    bl_free_blossom(S, b);
}

/* Swap matched/unmatched edges along the alternating path through
 * blossom b between vertex v and the base. */
static void bl_augment_blossom(bl_state *S, int64_t b, int64_t v) {
    const int64_t nv = S->nv;
    int64_t t = v;
    while (S->bparent[t] != b) t = S->bparent[t];
    if (t >= nv) bl_augment_blossom(S, t, v);
    bl_vec *ch = &S->childs[b], *ed = &S->bedges[b];
    const int64_t L = ch->n;
    int64_t i = bl_index(ch, t), j = i, jstep;
    if (i & 1) {
        j -= L;
        jstep = 1;
    } else {
        jstep = -1;
    }
    while (j != 0) {
        int64_t e, w, x;
        j += jstep;
        t = ch->a[bl_wrap(j, L)];
        if (jstep == 1) {
            e = ed->a[bl_wrap(j, L)]; /* (w, x) */
            w = S->ends[e];
            x = S->ends[e ^ 1];
        } else {
            e = ed->a[bl_wrap(j - 1, L)] ^ 1; /* stored as (x, w) */
            w = S->ends[e];
            x = S->ends[e ^ 1];
        }
        if (t >= nv) bl_augment_blossom(S, t, w);
        j += jstep;
        t = ch->a[bl_wrap(j, L)];
        if (t >= nv) bl_augment_blossom(S, t, x);
        S->mate[w] = e;
        S->mate[x] = e ^ 1;
    }
    bl_rotate(ch->a, L, i);
    bl_rotate(ed->a, L, i);
    S->bbase[b] = S->bbase[ch->a[0]];
}

/* Augment along the path through S-vertices v, w joined by c = (v, w). */
static void bl_augment_matching(bl_state *S, int64_t c) {
    for (int side = 0; side < 2; side++) {
        int64_t code = side ? (c ^ 1) : c; /* (s, j) */
        int64_t s = S->ends[code];
        for (;;) {
            int64_t bs = S->inblossom[s];
            if (bs >= S->nv) bl_augment_blossom(S, bs, s);
            S->mate[s] = code;
            if (S->labeledge[bs] == BL_NONE) break;
            int64_t bt = S->inblossom[S->ends[S->labeledge[bs]]];
            int64_t le = S->labeledge[bt];
            s = S->ends[le];
            int64_t j = S->ends[le ^ 1];
            if (bt >= S->nv) bl_augment_blossom(S, bt, j);
            S->mate[j] = le ^ 1;
            code = le;
        }
    }
}

static void bl_release(bl_state *S) {
    bl_vec *vecs[] = {S->childs, S->bedges, S->mbe};
    for (int i = 0; i < 3; i++)
        if (vecs[i])
            for (int64_t b = 0; b < S->nb; b++) free(vecs[i][b].a);
    void *bufs[] = {
        S->ends, S->adj_off, S->adj, S->mate, S->inblossom, S->dualvar,
        S->label, S->labeledge, S->bestedge, S->bparent, S->bbase, S->bdual,
        S->childs, S->bedges, S->mbe, S->has_mbe, S->alive, S->lprev, S->lnext,
        S->freeids, S->allow, S->queue, S->stk, S->leaves, S->path, S->path2,
        S->bet, S->bet_keys,
    };
    for (size_t i = 0; i < sizeof(bufs) / sizeof(bufs[0]); i++) free(bufs[i]);
}

static inline void bl_delta3(const bl_state *S, int64_t b, double *delta, int *deltatype,
                             int64_t *deltaedge) {
    if (S->bparent[b] == BL_NONE && S->label[b] == 1 && S->bestedge[b] != BL_NONE) {
        double d = bl_slack(S, S->bestedge[b]) / 2.0;
        if (d < *delta) {
            *delta = d;
            *deltatype = 3;
            *deltaedge = S->bestedge[b];
        }
    }
}

/* The main loop of max_weight_matching.  Returns 0, or -1 when out of
 * memory. */
static int bl_run(bl_state *S) {
    const int64_t nv = S->nv, nb = S->nb;
    for (;;) {
        /* a stage: labels, least-slack edges and allowedge are reset */
        S->stage++;
        memset(S->label, 0, (size_t)nb);
        for (int64_t b = 0; b < nb; b++) S->labeledge[b] = S->bestedge[b] = BL_NONE;
        for (int64_t b = S->lhead; b != BL_NONE; b = S->lnext[b]) S->has_mbe[b] = 0;
        S->qlen = 0;
        for (int64_t v = 0; v < nv; v++)
            if (S->mate[v] == BL_NONE && S->label[S->inblossom[v]] == 0)
                bl_assign_label(S, v, 1, BL_NONE);
        int augmented = 0;
        for (;;) {
            /* a substage: label until an augmenting path turns up */
            while (S->qlen && !augmented) {
                if (S->oom) return -1;
                int64_t v = S->queue[--S->qlen];
                for (int64_t a = S->adj_off[v]; a < S->adj_off[v + 1]; a++) {
                    int64_t c = S->adj[a], w = S->ends[c ^ 1];
                    int64_t bv = S->inblossom[v], bw = S->inblossom[w];
                    if (bv == bw) continue;
                    int64_t k = c >> 1;
                    double kslack = 0.0;
                    if (S->allow[k] != S->stage) {
                        kslack = bl_slack(S, c);
                        if (kslack <= 0) S->allow[k] = S->stage;
                    }
                    if (S->allow[k] == S->stage) {
                        if (S->label[bw] == 0) {
                            bl_assign_label(S, w, 2, c);
                        } else if (S->label[bw] == 1) {
                            int64_t base = bl_scan_blossom(S, v, w);
                            if (base != BL_NONE) {
                                bl_add_blossom(S, base, c);
                                if (S->oom) return -1;
                            } else {
                                bl_augment_matching(S, c);
                                augmented = 1;
                                break;
                            }
                        } else if (S->label[w] == 0) {
                            S->label[w] = 2;
                            S->labeledge[w] = c;
                        }
                    } else if (S->label[bw] == 1) {
                        if (S->bestedge[bv] == BL_NONE || kslack < bl_slack(S, S->bestedge[bv]))
                            S->bestedge[bv] = c;
                    } else if (S->label[w] == 0) {
                        if (S->bestedge[w] == BL_NONE || kslack < bl_slack(S, S->bestedge[w]))
                            S->bestedge[w] = c;
                    }
                }
            }
            if (S->oom) return -1;
            if (augmented) break;

            /* delta1: minimum vertex dual */
            int deltatype = 1;
            double delta = S->dualvar[0];
            int64_t deltaedge = BL_NONE, deltablossom = BL_NONE;
            for (int64_t v = 1; v < nv; v++)
                if (S->dualvar[v] < delta) delta = S->dualvar[v];
            /* delta2: least slack from an S-vertex to a free vertex */
            for (int64_t v = 0; v < nv; v++)
                if (S->label[S->inblossom[v]] == 0 && S->bestedge[v] != BL_NONE) {
                    double d = bl_slack(S, S->bestedge[v]);
                    if (d < delta) {
                        delta = d;
                        deltatype = 2;
                        deltaedge = S->bestedge[v];
                    }
                }
            /* delta3: half the least slack between S-blossoms; vertices,
             * then blossoms in creation order (blossomparent's keys) */
            for (int64_t b = 0; b < nv; b++) bl_delta3(S, b, &delta, &deltatype, &deltaedge);
            for (int64_t b = S->lhead; b != BL_NONE; b = S->lnext[b])
                bl_delta3(S, b, &delta, &deltatype, &deltaedge);
            /* delta4: least z of a top-level T-blossom */
            for (int64_t b = S->lhead; b != BL_NONE; b = S->lnext[b])
                if (S->bparent[b] == BL_NONE && S->label[b] == 2 && S->bdual[b] < delta) {
                    delta = S->bdual[b];
                    deltatype = 4;
                    deltablossom = b;
                }
            /* dual update */
            for (int64_t v = 0; v < nv; v++) {
                int8_t l = S->label[S->inblossom[v]];
                if (l == 1) S->dualvar[v] -= delta;
                else if (l == 2) S->dualvar[v] += delta;
            }
            for (int64_t b = S->lhead; b != BL_NONE; b = S->lnext[b])
                if (S->bparent[b] == BL_NONE) {
                    if (S->label[b] == 1) S->bdual[b] += delta;
                    else if (S->label[b] == 2) S->bdual[b] -= delta;
                }
            if (deltatype == 1) break; /* optimum reached */
            if (deltatype == 2 || deltatype == 3) {
                S->allow[deltaedge >> 1] = S->stage;
                bl_qpush(S, S->ends[deltaedge]);
            } else {
                bl_expand_blossom(S, deltablossom, 0);
            }
        }
        if (S->oom) return -1;
        if (!augmented) return 0;
        /* end of stage: expand S-blossoms with zero dual, over a
         * creation-ordered snapshot (nothing is created meanwhile) */
        int64_t ns = 0;
        for (int64_t b = S->lhead; b != BL_NONE; b = S->lnext[b]) S->path[ns++] = b;
        for (int64_t i = 0; i < ns; i++) {
            int64_t b = S->path[i];
            if (S->alive[b] && S->bparent[b] == BL_NONE && S->label[b] == 1 && S->bdual[b] == 0.0)
                bl_expand_blossom(S, b, 1);
        }
    }
}

/* Maximum-weight matching of the simple graph (src[k], dst[k], w[k]),
 * k < m, on vertices 0..nv-1 (self-loops are ignored, as in networkx).
 * Writes each vertex's matched edge index, or -1, to mate_edge.
 * Returns 0, or -1 when out of memory. */
int64_t rk_blossom_mates(int64_t nv, int64_t m, const int64_t *src, const int64_t *dst,
                         const double *w, int64_t *mate_edge) {
    for (int64_t v = 0; v < nv; v++) mate_edge[v] = -1;
    if (nv <= 0) return 0;
    bl_state st;
    bl_state *S = &st;
    memset(S, 0, sizeof(*S));
    const int64_t nb = 2 * nv;
    S->nv = nv;
    S->nb = nb;
    S->wt = w;
    S->qcap = nv + 16;
#define BL_ALLOC(p, n) ((p) = calloc((size_t)((n) > 0 ? (n) : 1), sizeof(*(p))))
    if (!BL_ALLOC(S->ends, 2 * m) || !BL_ALLOC(S->adj_off, nv + 1) ||
        !BL_ALLOC(S->adj, 2 * m) || !BL_ALLOC(S->mate, nv) ||
        !BL_ALLOC(S->inblossom, nv) || !BL_ALLOC(S->dualvar, nv) ||
        !BL_ALLOC(S->label, nb) || !BL_ALLOC(S->labeledge, nb) ||
        !BL_ALLOC(S->bestedge, nb) || !BL_ALLOC(S->bparent, nb) ||
        !BL_ALLOC(S->bbase, nb) || !BL_ALLOC(S->bdual, nb) ||
        !BL_ALLOC(S->childs, nb) || !BL_ALLOC(S->bedges, nb) || !BL_ALLOC(S->mbe, nb) ||
        !BL_ALLOC(S->has_mbe, nb) || !BL_ALLOC(S->alive, nb) ||
        !BL_ALLOC(S->lprev, nb) || !BL_ALLOC(S->lnext, nb) || !BL_ALLOC(S->freeids, nb) ||
        !BL_ALLOC(S->allow, m) || !BL_ALLOC(S->queue, S->qcap) ||
        !BL_ALLOC(S->stk, nb) || !BL_ALLOC(S->leaves, nv) || !BL_ALLOC(S->path, nb) ||
        !BL_ALLOC(S->path2, nb + 1) || !BL_ALLOC(S->bet, nb) || !BL_ALLOC(S->bet_keys, nb)) {
        bl_release(S);
        return -1;
    }
#undef BL_ALLOC
    /* adjacency in edge order; maxweight over non-loop edges */
    double maxweight = 0.0;
    for (int64_t k = 0; k < m; k++) {
        S->ends[2 * k] = src[k];
        S->ends[2 * k + 1] = dst[k];
        if (src[k] == dst[k]) continue;
        if (w[k] > maxweight) maxweight = w[k];
        S->adj_off[src[k] + 1]++;
        S->adj_off[dst[k] + 1]++;
    }
    for (int64_t v = 0; v < nv; v++) S->adj_off[v + 1] += S->adj_off[v];
    memcpy(S->stk, S->adj_off, (size_t)nv * sizeof(int64_t)); /* fill cursors */
    for (int64_t k = 0; k < m; k++) {
        if (src[k] == dst[k]) continue;
        S->adj[S->stk[src[k]]++] = 2 * k;
        S->adj[S->stk[dst[k]]++] = 2 * k + 1;
    }
    for (int64_t v = 0; v < nv; v++) {
        S->mate[v] = BL_NONE;
        S->inblossom[v] = v;
        S->bbase[v] = v;
        S->dualvar[v] = maxweight;
    }
    for (int64_t b = 0; b < nb; b++) S->bparent[b] = S->bet[b] = BL_NONE;
    for (int64_t b = nb - 1; b >= nv; b--) {
        S->bbase[b] = BL_NONE;
        S->freeids[S->nfree++] = b;
    }
    S->lhead = S->ltail = BL_NONE;
    int rc = bl_run(S);
    if (rc == 0)
        for (int64_t v = 0; v < nv; v++)
            mate_edge[v] = (S->mate[v] == BL_NONE) ? -1 : (S->mate[v] >> 1);
    bl_release(S);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Nagamochi-Ibaraki forest placement (Algorithm 6's inner loop)       */
/* ------------------------------------------------------------------ */

static inline int32_t rk_uf_find(int32_t *parent, int32_t x) {
    while (parent[x] != x) {
        parent[x] = parent[parent[x]]; /* path halving */
        x = parent[x];
    }
    return x;
}

/* Places edges (src[t], dst[t]), t < m, in order into first-fit forests.
 * `table` holds `cap` parent rows of n int32 slots; rows < *nf are in
 * use.  out[t] is the 1-based index of the first forest that separates
 * the endpoints, found by bisection (connected in forest j + 1 implies
 * connected in forest j), or k + 1 for a self-loop or an edge that all
 * k forests connect.  A hit at forest j links find(u) to find(v), with
 * find(v) run first, as the Python reference's assignment does; a miss
 * opens forest *nf + 1 with parent[u] = v.  Stops before the first edge
 * that needs a row beyond `cap` (only when cap < k) and returns the
 * number of edges placed; *nf is updated.  Endpoints must lie in
 * 0..n-1 (the Python wrapper checks). */
int64_t rk_forest_place(int32_t *table, int64_t n, int64_t cap, int64_t k,
                        int64_t *nf_io, const int64_t *src, const int64_t *dst,
                        int64_t m, int64_t *out) {
    int64_t nf = *nf_io;
    int64_t t = 0;
    for (; t < m; t++) {
        const int32_t u = (int32_t)src[t], v = (int32_t)dst[t];
        if (u == v) {
            out[t] = k + 1;
            continue;
        }
        int64_t lo = 0, hi = nf;
        while (lo < hi) {
            const int64_t mid = (lo + hi) / 2;
            int32_t *parent = table + mid * n;
            const int32_t ru = rk_uf_find(parent, u);
            if (ru == rk_uf_find(parent, v))
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo < nf) {
            int32_t *parent = table + lo * n;
            const int32_t rv = rk_uf_find(parent, v);
            parent[rk_uf_find(parent, u)] = rv;
            out[t] = lo + 1;
        } else if (nf < k) {
            if (nf == cap) break;
            int32_t *parent = table + nf * n;
            for (int64_t i = 0; i < n; i++) parent[i] = (int32_t)i;
            parent[u] = v;
            out[t] = ++nf;
        } else {
            out[t] = k + 1;
        }
    }
    *nf_io = nf;
    return t;
}
