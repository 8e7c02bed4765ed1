"""Self-compiled C backend for the solver kernels (no dependencies).

The SSS swap sweep and the Hungarian assignment solve are the two solver
hot loops whose per-iteration work is too small for NumPy dispatch to
amortise.  This module carries both as C source, builds them once per
machine with the system compiler (``cc -O2 -fPIC -shared``), and binds
them through ``ctypes`` — which releases the GIL for the duration of
every call, so the serve worker pool's threads scale solves across
cores.  Without a compiler the solvers run the batched NumPy fallback
in `repro.core.permkernels`.

Bit-identity: the C loops are transliterations of the per-window SSS
reference (`repro.core.sss._SwapState.try_window` in sweep order) and of
`repro.core.hungarian._solve_reference` — same expressions, same
accumulation order, same strict-``<`` first-minimum tie-breaks —
compiled with ``-ffp-contract=off`` so no fused multiply-adds change
IEEE rounding.  The golden and hypothesis suites exercise this backend
directly whenever a compiler is present.

Environment knobs:

* ``REPRO_CC=0`` (or ``off``) disables the backend entirely;
  ``REPRO_CC=<path>`` selects a specific compiler binary.
* ``REPRO_CC_CACHE=<dir>`` overrides where the shared object is built
  (default: a per-user directory under the system temp dir).  The build
  is keyed by a hash of source + compiler so upgrades rebuild cleanly.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading

import numpy as np

__all__ = [
    "CC_MAX_APPS",
    "CC_MAX_WINDOW",
    "compiler_path",
    "load_library",
    "cc_sweep_pass",
    "cc_hungarian",
]

#: Stack-buffer limits baked into the C source; the dispatcher falls back
#: to another backend beyond them (never hit by the paper's workloads).
CC_MAX_APPS = 64
CC_MAX_WINDOW = 8

C_SOURCE = r"""
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
"""

_I64 = ctypes.POINTER(ctypes.c_int64)
_F64 = ctypes.POINTER(ctypes.c_double)
_U8 = ctypes.POINTER(ctypes.c_uint8)

_lock = threading.Lock()
_lib = None
_lib_error: str | None = None
_loaded = False


def compiler_path() -> str | None:
    """The C compiler this backend would use, or ``None`` when disabled/absent."""
    env = os.environ.get("REPRO_CC", "").strip()
    if env.lower() in ("0", "off", "none", "false"):
        return None
    if env:
        return shutil.which(env) or (env if os.path.exists(env) else None)
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_CC_CACHE", "").strip()
    if override:
        return override
    tag = f"{os.getuid()}" if hasattr(os, "getuid") else "any"
    return os.path.join(tempfile.gettempdir(), f"repro-cc-{tag}")


def _build(compiler: str) -> str:
    """Compile the kernels into the cache dir; returns the .so path."""
    key = hashlib.sha256(
        (C_SOURCE + compiler + sys.platform).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"repro_solvers_{key}.so")
    if os.path.exists(so_path):
        return so_path
    os.makedirs(cache, exist_ok=True)
    src_path = os.path.join(cache, f"repro_solvers_{key}.c")
    tmp_path = so_path + f".tmp{os.getpid()}"
    with open(src_path, "w") as f:
        f.write(C_SOURCE)
    cmd = [
        compiler, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
        "-o", tmp_path, src_path,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd)} failed: {proc.stderr.strip()[:500]}"
        )
    os.replace(tmp_path, so_path)  # atomic: concurrent builders converge
    return so_path


def _bind(so_path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(so_path)
    lib.sweep_pass.restype = None
    lib.sweep_pass.argtypes = [
        _I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _I64, ctypes.c_int64,
        _I64, _I64, _F64,
        _F64, _F64, _F64, _F64,
        _I64, _F64,
        _I64, ctypes.c_int64,
        ctypes.c_int64, _I64,
    ]
    lib.hungarian.restype = ctypes.c_int64
    lib.hungarian.argtypes = [
        _F64, ctypes.c_int64, ctypes.c_int64,
        _I64, _I64, _F64, _F64, _F64, _I64, _U8, _U8,
    ]
    return lib


def load_library():
    """Build+bind the C kernels: ``(lib, None)`` or ``(None, reason)``.

    The first call compiles (once per machine, keyed by source hash);
    later calls reuse the cached shared object.  Failures are cached too,
    so a broken toolchain costs one attempt per process.
    """
    global _lib, _lib_error, _loaded
    if _loaded:
        return _lib, _lib_error
    with _lock:
        if _loaded:
            return _lib, _lib_error
        compiler = compiler_path()
        if compiler is None:
            _lib_error = "no C compiler found (set REPRO_CC, or install cc/gcc/clang)"
        else:
            try:
                _lib = _bind(_build(compiler))
            except Exception as exc:  # pragma: no cover - toolchain-specific
                _lib_error = f"C kernel build failed: {exc}"
        _loaded = True
    return _lib, _lib_error


def _ptr(array: np.ndarray):
    if array.dtype == np.int64:
        return array.ctypes.data_as(_I64)
    if array.dtype == np.float64:
        return array.ctypes.data_as(_F64)
    if array.dtype == np.uint8:
        return array.ctypes.data_as(_U8)
    raise TypeError(f"unsupported dtype {array.dtype}")


def cc_sweep_pass(
    lib,
    sorted_tiles,
    w,
    max_step,
    perms,
    perm,
    tile_thread,
    numerators,
    c,
    m,
    tc,
    tm,
    app_of_thread,
    safe_volumes,
    active,
    counts,
):
    """Call the C ``sweep_pass``: one full ``(step, start)`` SSS sweep.

    ``perm`` / ``tile_thread`` / ``numerators`` are mutated in place
    exactly like the per-window reference; window counters land in
    ``counts`` as ``[tried, accepted]``.
    """
    lib.sweep_pass(
        _ptr(sorted_tiles), ctypes.c_int64(sorted_tiles.shape[0]),
        ctypes.c_int64(w), ctypes.c_int64(max_step),
        _ptr(perms), ctypes.c_int64(perms.shape[0]),
        _ptr(perm), _ptr(tile_thread), _ptr(numerators),
        _ptr(c), _ptr(m), _ptr(tc), _ptr(tm),
        _ptr(app_of_thread), _ptr(safe_volumes),
        _ptr(active), ctypes.c_int64(active.shape[0]),
        ctypes.c_int64(numerators.shape[0]), _ptr(counts),
    )


def cc_hungarian(lib, cost, col_of_row, row_of_col, u, v, shortest, parent):
    """Call the C ``hungarian``; fills ``col_of_row``.  Returns 0/1."""
    n, m = cost.shape
    in_row_tree = np.empty(n, dtype=np.uint8)
    visited = np.empty(m, dtype=np.uint8)
    return int(
        lib.hungarian(
            _ptr(cost), ctypes.c_int64(n), ctypes.c_int64(m),
            _ptr(col_of_row), _ptr(row_of_col),
            _ptr(u), _ptr(v), _ptr(shortest), _ptr(parent),
            _ptr(in_row_tree), _ptr(visited),
        )
    )
