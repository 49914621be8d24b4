/* Box-local min-plus kernels of repro.core.packed_tree (loaded by
 * repro.core.minplus through ctypes).
 *
 * Exactness: curves hold only finite values or +inf, never NaN.  On such
 * inputs "v < o ? v : o" is np.minimum, every cell is one IEEE add and a
 * minimum is exact in any order, so both kernels return exactly what the
 * NumPy sweep returns.  Built with -ffp-contract=off and without
 * -ffast-math so that the compiler keeps those semantics.
 */
#include <math.h>
#include <stddef.h>

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
