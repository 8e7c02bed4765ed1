/* Solver hot loops of repro.core: the SSS swap sweep, the Hungarian
   assignment solve and simulated annealing's swap-move Metropolis loop.
   Bound through ctypes by repro.core.cc_solvers, which also documents the
   bit-identity contract with the Python references. */

#include <stdint.h>
#include <math.h>

#define MAXW 8
#define MAXAPPS 64

void sweep_pass(
    const int64_t *sorted_tiles, int64_t n, int64_t w, int64_t max_step,
    const int64_t *perms, int64_t n_perms,
    int64_t *perm, int64_t *tile_thread,
    double *numerators,
    const double *c, const double *m,
    const double *tc, const double *tm,
    const int64_t *app_of_thread,
    const double *safe_volumes,
    const int64_t *active, int64_t n_active,
    int64_t n_apps,
    int64_t *counts)
{
    double cost[MAXW][MAXW];
    double base[MAXW];
    int64_t tiles[MAXW];
    int64_t threads[MAXW];
    int64_t apps[MAXW];
    int64_t new_tiles[MAXW];
    double app_delta[MAXAPPS];
    double best_delta[MAXAPPS];
    int64_t tried = 0, accepted = 0;

    for (int64_t step = 1; step <= max_step; step++) {
        int64_t span = (w - 1) * step;
        for (int64_t start = 0; start < n - span; start++) {
            for (int64_t a = 0; a < w; a++) {
                tiles[a] = sorted_tiles[start + step * a];
                threads[a] = tile_thread[tiles[a]];
                apps[a] = app_of_thread[threads[a]];
            }
            for (int64_t a = 0; a < w; a++) {
                double ca = c[threads[a]], ma = m[threads[a]];
                for (int64_t b = 0; b < w; b++)
                    cost[a][b] = ca * tc[tiles[b]] + ma * tm[tiles[b]];
                base[a] = cost[a][a];
            }
            /* Identity permutation (p = 0): exact zero delta, so the
               current max-APL seeds best_val and the strict < scan
               reproduces np.argmin's first-minimum tie-break. */
            double best_val = -INFINITY;
            for (int64_t k = 0; k < n_active; k++) {
                double vl = numerators[active[k]] / safe_volumes[active[k]];
                if (vl > best_val) best_val = vl;
            }
            int64_t best_p = 0;
            for (int64_t ap = 0; ap < n_apps; ap++) best_delta[ap] = 0.0;
            for (int64_t p = 1; p < n_perms; p++) {
                for (int64_t ap = 0; ap < n_apps; ap++) app_delta[ap] = 0.0;
                const int64_t *pp = perms + p * w;
                for (int64_t a = 0; a < w; a++)
                    app_delta[apps[a]] += cost[a][pp[a]] - base[a];
                double val = -INFINITY;
                for (int64_t k = 0; k < n_active; k++) {
                    int64_t ap = active[k];
                    double vl = (numerators[ap] + app_delta[ap]) / safe_volumes[ap];
                    if (vl > val) val = vl;
                }
                if (val < best_val) {
                    best_val = val;
                    best_p = p;
                    for (int64_t ap = 0; ap < n_apps; ap++) best_delta[ap] = app_delta[ap];
                }
            }
            tried++;
            if (best_p != 0) {
                accepted++;
                const int64_t *pp = perms + best_p * w;
                for (int64_t a = 0; a < w; a++) new_tiles[a] = tiles[pp[a]];
                for (int64_t a = 0; a < w; a++) perm[threads[a]] = new_tiles[a];
                for (int64_t a = 0; a < w; a++) tile_thread[new_tiles[a]] = threads[a];
                for (int64_t ap = 0; ap < n_apps; ap++) numerators[ap] += best_delta[ap];
            }
        }
    }
    counts[0] = tried;
    counts[1] = accepted;
}

/* Jonker-Volkgenant shortest augmenting path; op order matches
   repro.core.hungarian._solve_reference.  Returns 0 on success, 1 if no
   finite augmenting path exists. */
int64_t hungarian(
    const double *cost, int64_t n, int64_t m,
    int64_t *col_of_row, int64_t *row_of_col,
    double *u, double *v,
    double *shortest, int64_t *parent,
    uint8_t *in_row_tree, uint8_t *visited)
{
    for (int64_t i0 = 0; i0 < n; i0++) { col_of_row[i0] = -1; u[i0] = 0.0; }
    for (int64_t j = 0; j < m; j++) { row_of_col[j] = -1; v[j] = 0.0; parent[j] = -1; }

    for (int64_t cur_row = 0; cur_row < n; cur_row++) {
        for (int64_t j = 0; j < m; j++) { shortest[j] = INFINITY; visited[j] = 0; }
        for (int64_t i0 = 0; i0 < n; i0++) in_row_tree[i0] = 0;
        double min_val = 0.0;
        int64_t i = cur_row;
        int64_t sink = -1;
        while (sink == -1) {
            in_row_tree[i] = 1;
            double ui = u[i];
            const double *ci = cost + i * m;
            for (int64_t j = 0; j < m; j++) {
                if (visited[j]) continue;
                double reduced = min_val + ci[j] - ui - v[j];
                if (reduced < shortest[j]) { shortest[j] = reduced; parent[j] = i; }
            }
            int64_t jbest = -1;
            double best = INFINITY;
            for (int64_t j = 0; j < m; j++) {
                if (visited[j]) continue;
                if (shortest[j] < best) { best = shortest[j]; jbest = j; }
            }
            if (jbest == -1 || !isfinite(best)) return 1;
            min_val = best;
            visited[jbest] = 1;
            if (row_of_col[jbest] == -1) sink = jbest;
            else i = row_of_col[jbest];
        }
        u[cur_row] += min_val;
        for (int64_t r = 0; r < n; r++) {
            if (in_row_tree[r] && r != cur_row)
                u[r] += min_val - shortest[col_of_row[r]];
        }
        for (int64_t j = 0; j < m; j++) {
            if (visited[j])
                v[j] -= min_val - shortest[j];
        }
        int64_t j = sink;
        for (;;) {
            int64_t pi = parent[j];
            row_of_col[j] = pi;
            int64_t tmp = col_of_row[pi];
            col_of_row[pi] = j;
            j = tmp;
            if (pi == cur_row) break;
        }
    }
    return 0;
}

/* NumPy's bitgen_t (numpy/random/bitgen.h): the C face of every
   BitGenerator, reached from Python as
   Generator.bit_generator.ctypes.bit_generator. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* One Generator.integers(rng + 1) draw (int64 dtype), draw for draw:
   numpy's random_bounded_uint64_fill for a range that fits in 32 bits,
   i.e. buffered_bounded_lemire_uint32.  rng == 0 consumes nothing. */
static uint32_t bounded_uint32(bitgen_t *bg, uint32_t rng)
{
    if (rng == 0) return 0;
    if (rng == UINT32_MAX) return bg->next_uint32(bg->state);
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* count draws of Generator.integers(rng + 1) into out (stream tests). */
void bounded_draws(void *bitgen, uint32_t rng, int64_t count, int64_t *out)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = bounded_uint32((bitgen_t *)bitgen, rng);
}

/* Max-APL after swapping the tiles of threads a and b; the per-app deltas
   land in the zeroed `deltas`.  Same expressions and order as
   repro.core.baselines._AnnealState.propose_swap. */
static double sa_propose(
    int64_t a, int64_t b, const int64_t *perm, const double *numerators,
    const double *c, const double *m, const double *tc, const double *tm,
    const int64_t *app_of_thread, const double *volumes,
    const int64_t *active, int64_t n_active, int64_t n_apps, double *deltas)
{
    int64_t ta = perm[a], tb = perm[b];
    for (int64_t ap = 0; ap < n_apps; ap++) deltas[ap] = 0.0;
    deltas[app_of_thread[a]] +=
        (c[a] * tc[tb] + m[a] * tm[tb]) - (c[a] * tc[ta] + m[a] * tm[ta]);
    deltas[app_of_thread[b]] +=
        (c[b] * tc[ta] + m[b] * tm[ta]) - (c[b] * tc[tb] + m[b] * tm[tb]);
    double value = -INFINITY;
    for (int64_t k = 0; k < n_active; k++) {
        int64_t ap = active[k];
        double vl = (numerators[ap] + deltas[ap]) / volumes[ap];
        if (vl > value) value = vl;
    }
    return value;
}

/* One restart of simulated_annealing's swap-move loop on the caller's
   generator.  With n_probe > 0 it only runs the temperature probe: n_probe
   pairs drawn, the uphill deltas written to `uphill`, their count
   returned, state untouched.  Otherwise it runs n_iters Metropolis steps
   from io = [current, best], mutating perm/numerators in place, copying
   perm into best_perm at every new best, and returns the accepted count. */
int64_t sa_swap(
    void *bitgen, int64_t n, int64_t n_apps,
    int64_t *perm, double *numerators,
    const double *c, const double *m, const double *tc, const double *tm,
    const int64_t *app_of_thread, const double *volumes,
    const int64_t *active, int64_t n_active, double *deltas,
    int64_t n_probe, double *uphill,
    int64_t n_iters, double temperature, double cooling,
    double *io, int64_t *best_perm)
{
    bitgen_t *bg = (bitgen_t *)bitgen;
    const uint32_t rng = (uint32_t)(n - 1);
    double current = io[0];
    if (n_probe > 0) {
        int64_t n_up = 0;
        for (int64_t i = 0; i < n_probe; i++) {
            int64_t a = bounded_uint32(bg, rng), b = bounded_uint32(bg, rng);
            if (a == b) continue;
            double value = sa_propose(a, b, perm, numerators, c, m, tc, tm,
                                      app_of_thread, volumes, active,
                                      n_active, n_apps, deltas);
            if (value > current) uphill[n_up++] = value - current;
        }
        return n_up;
    }
    double best = io[1];
    int64_t accepted = 0;
    for (int64_t it = 0; it < n_iters; it++) {
        int64_t a = bounded_uint32(bg, rng), b = bounded_uint32(bg, rng);
        if (a != b) {
            double value = sa_propose(a, b, perm, numerators, c, m, tc, tm,
                                      app_of_thread, volumes, active,
                                      n_active, n_apps, deltas);
            /* Short-circuit as in Python: u is drawn only on uphill moves. */
            if (value <= current ||
                bg->next_double(bg->state) < exp(-(value - current) / temperature)) {
                int64_t t = perm[a];
                perm[a] = perm[b];
                perm[b] = t;
                for (int64_t ap = 0; ap < n_apps; ap++) numerators[ap] += deltas[ap];
                current = value;
                accepted++;
                if (current < best) {
                    best = current;
                    for (int64_t j = 0; j < n; j++) best_perm[j] = perm[j];
                }
            }
        }
        temperature *= cooling;
    }
    io[0] = current;
    io[1] = best;
    return accepted;
}
