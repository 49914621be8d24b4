/* The min-plus kernels of repro.core.packed_tree (loaded by
 * repro.core.minplus through ctypes): the box-local band combine, the
 * first-minimum split, and minplus_solve, which refreshes the dirty root
 * paths and walks the back-track of one solve in one call.  The same
 * library holds engine_step, one whole event of the simulation engine
 * (see its own comment at the end of this file).
 *
 * These are the one implementation of the solve and the step: repro
 * requires a working C compiler and fails its import without one.  The
 * references they are tested against are tests/oracles/node_graph.py
 * (the reduction) and tests/oracles/engine_step.py (the step).
 *
 * Exactness: curves hold only finite values or +inf, never NaN.  On such
 * inputs "v < o ? v : o" is np.minimum, every cell is one IEEE add and a
 * minimum is exact in any order, so both kernels return exactly what the
 * node-graph reference's NumPy combine returns.  Built with
 * -ffp-contract=off and without -ffast-math so that the compiler keeps
 * those semantics.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

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
enum { NLEAVES, NROWS, ROOT, ROOT_S, HAS_PREV, ROWS_COMBINED, SPLITS, HEADER };

/* The per-row columns that follow the header, nrows entries each, in
 * packed_tree._COLUMNS order.  Row ids put the leaves first (id = slot),
 * then the combine rows level by level, so every parent sorts after its
 * children.  Row r stores ways nlo .. nlo + nk - 1 at E[off] onwards, and its
 * finite box is [flo, fhi] (flo > fhi: all inf); every cell outside the
 * box is inf. */
typedef struct {
    int64_t *src_a, *src_b, *parent, *nlo, *nk, *off, *flo, *fhi, *stamp, *mark;
} Rows;

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

/* One solve of the packed reduction over the plan buffer and the value
 * buffer E.  Refreshes the union of the root paths of the leaves whose
 * mark is set (in row-id order, clearing every mark), then, unless the
 * root way total is -1 or its root cell is inf (returns -1) or the root
 * kept its last walk's way total while has_prev is set (returns -2),
 * walks the back-track depth first, left child first, skipping rows
 * whose stamp already holds their incoming way total when has_prev is
 * set.  Each visited leaf's (slot, ways) pair goes to the output section
 * after the columns (2 * nleaves entries, then the walk's stack of
 * 2 * (nrows + 1)); returns the number of pairs written.  Counts every
 * recombined row in ROWS_COMBINED and every split in SPLITS. */
ptrdiff_t minplus_solve(int64_t *plan, double *E)
{
    const int64_t nleaves = plan[NLEAVES], n = plan[NROWS];
    int64_t *col = plan + HEADER;
    const Rows p = {col, col + n, col + 2 * n, col + 3 * n, col + 4 * n,
                    col + 5 * n, col + 6 * n, col + 7 * n, col + 8 * n, col + 9 * n};
    int64_t *out = col + 10 * n, *stack = out + 2 * nleaves;

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
        return -1;
    if (has_prev && p.stamp[root] == s)
        return -2;
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
            out[2 * touched] = r;
            out[2 * touched + 1] = sh;
            touched++;
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
