/* The compiled kernels of repro, loaded through ctypes by repro.kernels,
 * whose docstring lists them with their callers and the references in
 * tests/oracles/ they are tested against.  Each is its loop's one
 * implementation: repro requires a working C compiler and fails its
 * import without one.
 *
 * Exactness: curves hold only finite values or +inf, never NaN.  On such
 * inputs "v < o ? v : o" is np.minimum, every cell is one IEEE add and a
 * minimum is exact in any order, so the min-plus kernels return exactly
 * what the node-graph reference's NumPy combine returns.  Built with
 * -ffp-contract=off and without -ffast-math so that the compiler keeps
 * those semantics.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Candidates folded per pass over the outputs: each pass loads and
 * stores out[] once for U candidates instead of once per candidate. */
#define U 4

static void fold(double *restrict out, const double *restrict a, double bj,
                 ptrdiff_t lo, ptrdiff_t hi)
{
    for (ptrdiff_t t = lo; t < hi; t++) {
        const double v = a[t] + bj;
        out[t] = v < out[t] ? v : out[t];
    }
}

/* out[t] = min over j of a[t + k0 - j] + b[j], for t in [0, nout), j in
 * [0, nb) and t + k0 - j in [0, na); +inf where no pair exists. */
void minplus_band(const double *a, ptrdiff_t na, const double *b, ptrdiff_t nb,
                  double *restrict out, ptrdiff_t nout, ptrdiff_t k0)
{
    if (nb > na) { /* min-plus commutes: put the narrower box on j */
        const double *p = a; a = b; b = p;
        ptrdiff_t n = na; na = nb; nb = n;
    }
    for (ptrdiff_t t = 0; t < nout; t++)
        out[t] = INFINITY;
    for (ptrdiff_t j = 0; j < nb; j += U) {
        ptrdiff_t lo[U], hi[U], m = nb - j < U ? nb - j : U;
        for (ptrdiff_t u = 0; u < m; u++) { /* outputs candidate j+u reaches */
            lo[u] = j + u - k0 > 0 ? j + u - k0 : 0;
            hi[u] = na + j + u - k0 < nout ? na + j + u - k0 : nout;
        }
        /* [L, H) is reached by all U candidates; the rest go one by one. */
        ptrdiff_t L = lo[m - 1], H = hi[0];
        if (m < U || L >= H)
            L = H = 0;
        for (ptrdiff_t u = 0; u < m; u++) {
            const double *aj = a + (k0 - j - u);
            fold(out, aj, b[j + u], lo[u], hi[u] < L ? hi[u] : L);
            fold(out, aj, b[j + u], lo[u] > H ? lo[u] : H, hi[u]);
        }
        if (L < H) {
            const double *restrict a0 = a + (k0 - j);
            const double b0 = b[j], b1 = b[j + 1], b2 = b[j + 2], b3 = b[j + 3];
            for (ptrdiff_t t = L; t < H; t++) {
                double o = out[t], v;
                v = a0[t] + b0;     o = v < o ? v : o;
                v = a0[t - 1] + b1; o = v < o ? v : o;
                v = a0[t - 2] + b2; o = v < o ? v : o;
                v = a0[t - 3] + b3; o = v < o ? v : o;
                out[t] = o;
            }
        }
    }
}

/* The first i minimising a[i] + b[n - 1 - i] (np.argmin's tie-break). */
ptrdiff_t minplus_split(const double *a, const double *b, ptrdiff_t n)
{
    ptrdiff_t best = 0;
    double m = a[0] + b[n - 1];
    for (ptrdiff_t i = 1; i < n; i++) {
        const double v = a[i] + b[n - 1 - i];
        if (v < m) {
            m = v;
            best = i;
        }
    }
    return best;
}

/* Header slots of the plan buffer (repro.core.packed_tree._HEADER). */
enum {
    NLEAVES, NROWS, ROOT, ROOT_S, HAS_PREV, ROWS_COMBINED, SPLITS, LEAF_WRITES, MISSING,
    HEADER
};

/* The sections of the plan buffer after the header (packed_tree's layout):
 * the per-row columns, nrows entries each, in packed_tree._COLUMNS order;
 * the per-leaf columns, nleaves entries each: the held curve's packed
 * buffer (its address; 0 before the first install) and the leaf's way cap;
 * the walk's output, (slot, c, f, w) quads; the walk's stack, 2 * (nrows +
 * 1) entries; and the settings, a (core, freq) pair per stored leaf cell.
 * Row ids put the leaves first (id = slot), then the combine rows level by
 * level, so every parent sorts after its children.  Row r stores ways nlo
 * .. nlo + nk - 1 at E[off] onwards (a leaf's settings at 2 * (off + i)),
 * and its finite box is [flo, fhi] (flo > fhi: all inf); every cell
 * outside the box is inf. */
typedef struct {
    int64_t *src_a, *src_b, *parent, *nlo, *nk, *off, *flo, *fhi, *stamp, *mark;
    int64_t *held, *cap, *out, *stack, *settings;
} Rows;

static Rows rows_of(int64_t *plan)
{
    const int64_t nleaves = plan[NLEAVES], n = plan[NROWS];
    int64_t *col = plan + HEADER, *leaf = col + 10 * n, *out = leaf + 2 * nleaves,
            *stack = out + 4 * nleaves;
    const Rows p = {col,  col + n,  col + 2 * n, col + 3 * n, col + 4 * n,
                    col + 5 * n, col + 6 * n, col + 7 * n, col + 8 * n, col + 9 * n,
                    leaf, leaf + nleaves, out, stack, stack + 2 * (n + 1)};
    return p;
}

/* Recombine row r from its children over their finite boxes.  Every
 * cell outside them is the sum of at least one inf entry, so the row
 * holds the node-graph reference's full combine over its stored range. */
static void combine(const Rows *p, double *E, int64_t r)
{
    const int64_t a = p->src_a[r], b = p->src_b[r];
    const int64_t aflo = p->flo[a], afhi = p->fhi[a], bflo = p->flo[b], bfhi = p->fhi[b];
    const int64_t lo = p->nlo[r], hi = lo + p->nk[r] - 1;
    const int64_t oflo = p->flo[r], ofhi = p->fhi[r];
    double *row = E + p->off[r];
    int64_t plo = aflo + bflo > lo ? aflo + bflo : lo;
    int64_t phi = afhi + bfhi < hi ? afhi + bfhi : hi;
    p->stamp[r] = -1;
    if (aflo > afhi || bflo > bfhi || plo > phi) { /* no finite pair */
        for (int64_t w = oflo; w <= ofhi; w++)
            row[w - lo] = INFINITY;
        p->flo[r] = 0;
        p->fhi[r] = -1;
        return;
    }
    p->flo[r] = plo;
    p->fhi[r] = phi;
    if (oflo <= ofhi) { /* also clear what the old box reached past the new */
        if (oflo < plo)
            plo = oflo;
        if (ofhi > phi)
            phi = ofhi;
    }
    minplus_band(E + p->off[a] + (aflo - p->nlo[a]), afhi - aflo + 1,
                 E + p->off[b] + (bflo - p->nlo[b]), bfhi - bflo + 1,
                 row + (plo - lo), phi - plo + 1, plo - aflo - bflo);
}

/* Left-child way count of row r's finite cell sh: the first minimum over
 * the box-clipped candidates, in ascending order. */
static int64_t split_at(const Rows *p, const double *E, int64_t r, int64_t sh)
{
    const int64_t a = p->src_a[r], b = p->src_b[r];
    int64_t lo = sh - p->fhi[b], hi = sh - p->flo[b];
    if (lo < p->flo[a])
        lo = p->flo[a];
    if (hi > p->fhi[a])
        hi = p->fhi[a];
    if (lo == hi)
        return lo;
    return lo + minplus_split(E + p->off[a] + (lo - p->nlo[a]),
                              E + p->off[b] + (sh - hi - p->nlo[b]), hi - lo + 1);
}

/* minplus_solve's results besides the walk's quad count, and
 * leaf_install's error (repro.core.packed_tree names them). */
enum { INFEASIBLE = -1, UNCHANGED = -2, INF_LEAF_CELL = -3, NO_CURVE = -4 };
enum { SHORT_CURVE = -1, BAD_SLOT = -2 };

/* A curve packed for leaf_install (repro.core.curves.EnergyCurve.packed):
 * its length W, then W epi values (float64), W freq_idx and W core_idx
 * entries. */
static int same_curve(const int64_t *a, const int64_t *b)
{
    const int64_t w = a[0];
    if (b[0] != w)
        return 0;
    const double *ea = (const double *)(a + 1), *eb = (const double *)(b + 1);
    for (int64_t i = 0; i < w; i++)
        if (ea[i] != eb[i]) /* value equality: -0.0 == 0.0, NaN != NaN */
            return 0;
    const int64_t *ia = a + 1 + w, *ib = b + 1 + w; /* freq_idx, then core_idx */
    for (int64_t i = 0; i < 2 * w; i++)
        if (ia[i] != ib[i])
            return 0;
    return 1;
}

/* Install the packed curve at leaf slot (BAD_SLOT, changing nothing, if
 * slot is not in [0, nleaves)).  Unless the leaf is marked or
 * holds no curve yet, a curve equal to the held one (same length, == on
 * every epi, freq_idx and core_idx entry) is only recorded as held and
 * returns 0.  Otherwise returns SHORT_CURVE, changing nothing, if the
 * curve is shorter than the leaf's way cap; else copies the leaf's stored
 * window of epi into E and of (core_idx, freq_idx) into the settings,
 * sets the finite box, marks the leaf, clears its stamp, counts the write
 * in LEAF_WRITES and returns 1.  The plan keeps the curve's address: the
 * caller keeps the curve alive while it is held. */
ptrdiff_t leaf_install(int64_t *plan, double *E, ptrdiff_t slot, const int64_t *curve)
{
    if (slot < 0 || slot >= plan[NLEAVES])
        return BAD_SLOT;
    const Rows p = rows_of(plan);
    const int64_t *prev = (const int64_t *)(intptr_t)p.held[slot];
    if (prev && !p.mark[slot] && same_curve(prev, curve)) {
        p.held[slot] = (int64_t)(intptr_t)curve;
        return 0;
    }
    const int64_t w = curve[0];
    if (w < p.cap[slot])
        return SHORT_CURVE;
    if (!prev)
        plan[MISSING]--;
    p.held[slot] = (int64_t)(intptr_t)curve;
    const double *epi = (const double *)(curve + 1);
    const int64_t *freq = curve + 1 + w, *core = freq + w;
    const int64_t nlo = p.nlo[slot], nk = p.nk[slot], off = p.off[slot];
    int64_t flo = 0, fhi = -1;
    for (int64_t i = 0; i < nk; i++) {
        const int64_t k = nlo - 1 + i;
        E[off + i] = epi[k];
        p.settings[2 * (off + i)] = core[k];
        p.settings[2 * (off + i) + 1] = freq[k];
        if (isfinite(epi[k])) {
            if (fhi < 0)
                flo = nlo + i;
            fhi = nlo + i;
        }
    }
    p.flo[slot] = flo;
    p.fhi[slot] = fhi;
    p.mark[slot] = 1;
    p.stamp[slot] = -1;
    plan[LEAF_WRITES]++;
    return 1;
}

/* One solve of the packed reduction over the plan buffer and the value
 * buffer E.  Returns NO_CURVE, changing nothing, if a leaf holds no curve.
 * Otherwise refreshes the union of the root paths of the leaves whose
 * mark is set (in row-id order, clearing every mark), then, unless the
 * root way total is -1 or its root cell is inf (returns INFEASIBLE) or
 * the root kept its last walk's way total while has_prev is set (returns
 * UNCHANGED), walks the back-track depth first, left child first,
 * skipping rows whose stamp already holds their incoming way total when
 * has_prev is set.  Each visited leaf's (slot, core, freq, ways) quad,
 * its setting read from the settings section, goes to the output section;
 * a walk that lands on an inf leaf cell writes (slot, ways) there instead
 * and returns INF_LEAF_CELL.  A completed walk sets has_prev and returns
 * the number of quads written.  Counts every recombined row in
 * ROWS_COMBINED and every split in SPLITS. */
ptrdiff_t minplus_solve(int64_t *plan, double *E)
{
    if (plan[MISSING])
        return NO_CURVE;
    const int64_t nleaves = plan[NLEAVES], n = plan[NROWS];
    const Rows p = rows_of(plan);
    int64_t *out = p.out, *stack = p.stack;

    /* Mark each dirty leaf's root path up to the first row already marked
     * (whose ancestors are marked too), then recombine the marked rows
     * bottom-up: children always have the smaller ids. */
    int64_t first = n;
    for (int64_t i = 0; i < nleaves; i++) {
        if (!p.mark[i])
            continue;
        p.mark[i] = 0;
        for (int64_t up = p.parent[i]; up >= 0 && !p.mark[up]; up = p.parent[up]) {
            p.mark[up] = 1;
            if (up < first)
                first = up;
        }
    }
    for (int64_t r = first; r < n; r++) {
        if (p.mark[r]) {
            p.mark[r] = 0;
            combine(&p, E, r);
            plan[ROWS_COMBINED]++;
        }
    }

    const int64_t root = plan[ROOT], s = plan[ROOT_S], has_prev = plan[HAS_PREV];
    if (s < 0 || E[p.off[root] + (s - p.nlo[root])] == INFINITY)
        return INFEASIBLE;
    if (has_prev && p.stamp[root] == s)
        return UNCHANGED;
    ptrdiff_t top = 1, touched = 0;
    stack[0] = root;
    stack[1] = s;
    while (top) {
        top--;
        const int64_t r = stack[2 * top], sh = stack[2 * top + 1];
        if (has_prev && p.stamp[r] == sh)
            continue; /* the subtree kept its assignment */
        p.stamp[r] = sh;
        if (r < nleaves) {
            const int64_t cell = p.off[r] + (sh - p.nlo[r]);
            if (!isfinite(E[cell])) {
                out[0] = r;
                out[1] = sh;
                return INF_LEAF_CELL;
            }
            int64_t *q = out + 4 * touched++;
            q[0] = r;
            q[1] = p.settings[2 * cell];
            q[2] = p.settings[2 * cell + 1];
            q[3] = sh;
            continue;
        }
        const int64_t sl = split_at(&p, E, r, sh);
        plan[SPLITS]++;
        stack[2 * top] = p.src_b[r];
        stack[2 * top + 1] = sh - sl;
        stack[2 * top + 2] = p.src_a[r];
        stack[2 * top + 3] = sl;
        top += 2;
    }
    plan[HAS_PREV] = 1;
    return touched;
}

/* Rows of the engine's lane buffer (repro.simulation.engine.core_state
 * _LANES), n entries each, followed by one slot for the step's dt. */
enum { INSTR, PENDING, ENERGY, TPI, EPI, PAD, LANES };

/* One event of the simulation engine over the lane buffer: the next
 * interval completion, the advance of every active lane by its span dt,
 * and the completing lane's exact retire.  Returns the completing lane j
 * and writes dt to lanes[LANES * n].  n_idle is the number of idle lanes
 * (pad = +inf on an idle lane, +0.0 on an active one).
 *
 * Exactness: the lane state is finite and non-negative, tpi and epi are
 * finite and (on active lanes) positive, and the pad is +0.0 or +inf,
 * so no operation below can produce NaN.  Each one is then the single
 * IEEE operation the scalar reference step (tests/oracles/engine_step.py,
 * lanes_step) performs on the same lane:
 *   - remaining = (interval - instr) * tpi + pending, the reference's
 *     pending + left * tpi (IEEE addition commutes); the pad, added
 *     only when some lane idles, sends an idle lane to +inf and leaves
 *     an active one unchanged (x + 0.0 == x for every x >= +0.0);
 *   - a strict "<" scan from lane 0 keeps the first minimum, the
 *     reference's lowest-lane tie-break; with every lane idle it returns
 *     (0, +inf);
 *   - served = min(pending, dt); on a lane with nothing pending it is
 *     +0.0 and dt - 0.0 == dt, so one formula covers the reference's
 *     stall and stall-free branches, and a lane whose stall absorbs the
 *     whole span retires 0.0 / tpi == +0.0 instructions, a bitwise no-op
 *     like the reference's early return;
 *   - an idle lane is skipped, as the reference skips it;
 *   - the retire reads e_j and left before the advance, and overwrites
 *     lane j's energy and pending after it: the reference's retire of a
 *     lane it never advanced.
 * Built with -ffp-contract=off, so no multiply-add is fused. */
ptrdiff_t engine_step(double *lanes, ptrdiff_t n, double interval, ptrdiff_t n_idle)
{
    double *restrict instr = lanes + INSTR * n, *restrict pending = lanes + PENDING * n,
                     *restrict energy = lanes + ENERGY * n;
    const double *restrict tpi = lanes + TPI * n, *restrict epi = lanes + EPI * n,
                           *restrict pad = lanes + PAD * n;
    ptrdiff_t j = 0;
    double dt = 0.0;
    for (ptrdiff_t k = 0; k < n; k++) {
        double r = (interval - instr[k]) * tpi[k];
        r = r + pending[k];
        if (n_idle)
            r = r + pad[k];
        if (k == 0 || r < dt) {
            dt = r;
            j = k;
        }
    }
    const double left = interval - instr[j], e_j = energy[j];
    if (dt > 0.0) {
        for (ptrdiff_t k = 0; k < n; k++) {
            if (pad[k] != 0.0)
                continue; /* idle */
            const double served = pending[k] < dt ? pending[k] : dt;
            const double x = (dt - served) / tpi[k];
            pending[k] = pending[k] - served;
            instr[k] = instr[k] + x;
            energy[k] = energy[k] + x * epi[k];
        }
    }
    energy[j] = e_j + left * epi[j];
    pending[j] = 0.0;
    lanes[LANES * n] = dt;
    return j;
}

/* Slots of the curve chain's plan (repro.core.local_opt.Plan): the
 * system's grid shape, its baseline point (way index 0-based), the
 * manager's core-size and VF choices and its way pin (0: none), then the
 * chosen core-size and VF indices. */
enum { NC, NF, NW, BASE_C, BASE_F, BASE_W, NC_SEL, NF_SEL, PIN_WAYS, PLAN };

/* Fields of an input row (repro.core.local_opt.ROW_FIELDS and
 * repro.core.batch_opt.MODEL_FIELDS): the select stage's slack, per-core
 * way pin (0: the plan's) and QoS target (written), then the model
 * stage's counter-snapshot fields, then mpki[W] and mlp[C * W]. */
enum { ROW_SLACK, ROW_PIN, ROW_TARGET, SELECT_FIELDS };
enum {
    ROW_ILP = SELECT_FIELDS, ROW_CORE, ROW_EXEC, ROW_LAT, ROW_EDYN, ROW_ACC, ROW_INSTR,
    MODEL_FIELDS
};

/* curve_chain's results: 0, or the failed check (the Python messages are
 * repro.core.local_opt._ERRORS). */
enum { OK, BAD_ILP, BAD_SLACK, BAD_CORE, BAD_STRIDE };

/* One core's TPI and EPI grids (C, F, W) from its model row, over the
 * model constants (repro.core.local_opt, from perf_model.tpi_constants
 * and energy_model.epi_constants): freqs[F],
 * 1 / width[C], ILP floors[C], speedups - floors[C], EPI factors[C],
 * vr2[F], leak[C * F], way-static[W], then the LLC access, DRAM access
 * and DRAM background coefficients. */
static void model_grids(const int64_t *plan, const double *k, const double *row,
                        double *restrict tpi, double *restrict epi)
{
    const int64_t C = plan[NC], F = plan[NF], W = plan[NW];
    const double *freqs = k, *inv_width = freqs + F, *floors = inv_width + C,
                 *dspeed = floors + C, *epi_factor = dspeed + C, *vr2 = epi_factor + C,
                 *leak = vr2 + F, *way_static = leak + C * F;
    const double llc_access = way_static[W], mem_access = way_static[W + 1],
                 background = way_static[W + 2];
    const double *mpki = row + MODEL_FIELDS, *mlp = mpki + W;
    const double ilp = row[ROW_ILP], e = row[ROW_EXEC], lat = row[ROW_LAT];
    const int64_t cur = (int64_t)row[ROW_CORE];
    const double cur_factor = floors[cur] + dspeed[cur] * ilp;
    const double lae_api = llc_access * (row[ROW_ACC] / row[ROW_INSTR]);
    for (int64_t c = 0; c < C; c++) {
        double x = (e * (floors[c] + dspeed[c] * ilp)) / cur_factor;
        x = x <= inv_width[c] ? inv_width[c] : x; /* np.maximum: NaN stays */
        const double dyn = row[ROW_EDYN] * epi_factor[c];
        for (int64_t f = 0; f < F; f++) {
            const double ef = x / freqs[f], d = dyn * vr2[f], lk = leak[c * F + f];
            double *restrict t = tpi + (c * F + f) * W, *restrict en = epi + (c * F + f) * W;
            for (int64_t w = 0; w < W; w++) {
                const double mpi = mpki[w] / 1000.0;
                const double v = ef + (mpi / mlp[c * W + w]) * lat;
                t[w] = v;
                en[w] = ((d + lk * v) + (lae_api + way_static[w] * v))
                        + (mem_access * mpi + background * v);
            }
        }
    }
}

/* One core's QoS target and local optimisation over its (C, F, W) grids:
 * per way count, the first minimum (np.argmin's rule: the first NaN if
 * there is one) of the QoS-masked EPI over the chosen (core size, VF)
 * pairs in index order.  A pinned-out or all-infeasible way keeps index
 * 0: +inf EPI at the first chosen core size and VF. */
static void select_curve(const int64_t *plan, double *row, const double *tpi,
                         const double *epi, double *out_epi, int64_t *out_f,
                         int64_t *out_c, double tol)
{
    const int64_t F = plan[NF], W = plan[NW], nc = plan[NC_SEL], nf = plan[NF_SEL];
    const int64_t *cores = plan + PLAN, *freqs = cores + nc;
    const double base = tpi[(plan[BASE_C] * F + plan[BASE_F]) * W + plan[BASE_W]];
    const double target = (base * (1.0 + row[ROW_SLACK])) * (1.0 + tol);
    const int64_t pin = row[ROW_PIN] != 0.0 ? (int64_t)row[ROW_PIN] : plan[PIN_WAYS];
    row[ROW_TARGET] = target;
    for (int64_t w = 0; w < W; w++) {
        int64_t best = 0;
        double m = INFINITY;
        if (!pin || w == pin - 1) {
            for (int64_t k = 0; k < nc * nf; k++) {
                const int64_t at = (cores[k / nf] * F + freqs[k % nf]) * W + w;
                const double v = tpi[at] <= target ? epi[at] : INFINITY;
                if (k == 0 || !(v >= m)) { /* a smaller value or a NaN */
                    m = v;
                    best = k;
                    if (v != v)
                        break;
                }
            }
        }
        out_epi[w] = m;
        out_f[w] = freqs[best % nf];
        out_c[w] = cores[best / nf];
    }
}

/* The managers' curve construction for n cores in one call.  rows holds
 * n input rows of stride doubles.  With the model constants k, rows are
 * model rows and the call first writes every core's TPI and EPI grids to
 * grids (2, n, C, F, W: TPI then EPI); without (k NULL), rows hold the
 * select fields only and grids already holds the grids (the oracle's).
 * Then each core's QoS target goes to its row and its curve to epi
 * (n, W) and idx (2, n, W: VF then core-size indices).  Every input is
 * checked before anything is written: each ILP index in [0, 1] and core
 * index in range (model rows), then each slack non-negative.
 *
 * Exactness: each grid cell is the NumPy reference's expression
 * (tests/oracles/model_chain.py) in its operation order, one IEEE
 * operation at a time (built with -ffp-contract=off, so none is fused),
 * and the target and the argmin follow qos_target_tpi and np.argmin. */
ptrdiff_t curve_chain(const int64_t *plan, const double *k, ptrdiff_t n, double *rows,
                      ptrdiff_t stride, double *grids, double *epi, int64_t *idx, double tol)
{
    const int64_t C = plan[NC], W = plan[NW], cells = C * plan[NF] * W;
    if (stride != (k ? MODEL_FIELDS + W + C * W : SELECT_FIELDS))
        return BAD_STRIDE;
    for (ptrdiff_t i = 0; k && i < n; i++) {
        const double ilp = rows[i * stride + ROW_ILP], core = rows[i * stride + ROW_CORE];
        if (!(ilp >= 0.0 && ilp <= 1.0))
            return BAD_ILP;
        if (!(core >= 0.0 && core < (double)C) || core != (double)(int64_t)core)
            return BAD_CORE;
    }
    for (ptrdiff_t i = 0; i < n; i++)
        if (!(rows[i * stride + ROW_SLACK] >= 0.0))
            return BAD_SLACK;
    double *tpi = grids, *epi_grid = grids + n * cells;
    for (ptrdiff_t i = 0; i < n; i++) {
        double *row = rows + i * stride;
        if (k)
            model_grids(plan, k, row, tpi + i * cells, epi_grid + i * cells);
        select_curve(plan, row, tpi + i * cells, epi_grid + i * cells, epi + i * W,
                     idx + i * W, idx + (n + i) * W, tol);
    }
    return OK;
}

/* repro.cache.atd.COLD: the distance of an access that misses at every
 * allocation. */
#define COLD INT32_MAX

/* Per-access LRU stack distances of a trace: the per-set MRU walk of
 * tests/oracles/lru_stack.py.  Set s keeps its lines most recent first
 * in stacks[s * max_ways ..], depth[s] of them (all zero on entry),
 * truncated at max_ways.  An access whose line sits at position d has
 * distance d + 1; any other access is a miss (COLD) and pushes its
 * line on, dropping the least recent line of a full set.  Either way
 * the line moves to the front.  Every set id lies in [0, nsets) of the
 * caller's buffers (repro.cache.atd.stack_distances checks it). */
void lru_stack_distances(const int64_t *set_ids, const int64_t *line_ids, ptrdiff_t n,
                         ptrdiff_t max_ways, int64_t *stacks, int64_t *depth, int32_t *dists)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        int64_t *restrict stack = stacks + set_ids[i] * max_ways;
        const int64_t line = line_ids[i], top = depth[set_ids[i]];
        ptrdiff_t d = 0;
        while (d < top && stack[d] != line)
            d++;
        if (d < top) {
            dists[i] = (int32_t)(d + 1);
        } else {
            dists[i] = COLD;
            if (top < max_ways)
                depth[set_ids[i]] = top + 1;
            else
                d = top - 1; /* the least recent line falls off */
        }
        memmove(stack + 1, stack, (size_t)d * sizeof *stack);
        stack[0] = line;
    }
}

/* Greedy leading-miss group count of the stream pos[sel[0..m)],
 * chains[sel[0..m)]: the loop of tests/oracles/leading_miss.py.  The
 * leader i admits the next miss while it lies inside its window
 * (pos < pos[leader] + window, one IEEE add), a miss register is free
 * and its chain is not in the group yet; the first miss refused leads
 * the next group. */
static int64_t greedy_groups(const int64_t *sel, ptrdiff_t m, const double *pos,
                             const int64_t *chains, double window, int64_t mshrs)
{
    int64_t groups = 0;
    ptrdiff_t i = 0;
    while (i < m) {
        const double end = pos[sel[i]] + window;
        ptrdiff_t j = i + 1;
        groups++;
        while (j < m && pos[sel[j]] < end && j - i < mshrs) {
            const int64_t chain = chains[sel[j]];
            ptrdiff_t k = i;
            while (k < j && chains[sel[k]] != chain)
                k++;
            if (k < j)
                break; /* dependent miss: waits for its parent */
            j++;
        }
        i = j;
    }
    return groups;
}

/* Leading-miss groups of a trace's miss streams, one per allocation: the
 * stream at w in [1, ways] is the first cap accesses with dists > w, and
 * for each of the ncs core sizes (windows[c], mshrs[c]) the call writes
 * groups[c * ways + w - 1] and lengths[w - 1], its miss count.  Stops at
 * the first empty stream (streams only shrink with w) and returns the
 * number of allocations written.
 *
 * Only distinct streams are grouped.  The stream at w keeps every miss
 * of the stream before it unless one of those has distance exactly w, so
 * a stream serves every allocation below the smallest distance among its
 * misses.  The next one drops the misses that became hits and refills to
 * the cap from where the last scan stopped: every access before that
 * point left out so far hits at w too.  sel holds min(cap, n) indices. */
ptrdiff_t mlp_groups(const int64_t *dists, const double *pos, const int64_t *chains,
                     ptrdiff_t n, ptrdiff_t ways, ptrdiff_t cap, const double *windows,
                     const int64_t *mshrs, ptrdiff_t ncs, int64_t *sel, int64_t *groups,
                     int64_t *lengths)
{
    ptrdiff_t m = 0, next = 0, w = 1;
    while (w <= ways) {
        ptrdiff_t kept = 0;
        for (ptrdiff_t t = 0; t < m; t++)
            if (dists[sel[t]] > w)
                sel[kept++] = sel[t];
        m = kept;
        for (; m < cap && next < n; next++)
            if (dists[next] > w)
                sel[m++] = next;
        if (m == 0)
            break;
        int64_t last = (int64_t)ways + 1; /* the first allocation of another stream */
        for (ptrdiff_t t = 0; t < m; t++)
            if (dists[sel[t]] < last)
                last = dists[sel[t]];
        for (ptrdiff_t c = 0; c < ncs; c++) {
            const int64_t g = greedy_groups(sel, m, pos, chains, windows[c], mshrs[c]);
            for (ptrdiff_t v = w; v < last; v++)
                groups[c * ways + v - 1] = g;
        }
        for (; w < last; w++)
            lengths[w - 1] = m;
    }
    return w - 1;
}
