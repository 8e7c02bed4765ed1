"""Self-compiled C kernels (no dependencies): solver loops and the NoC cycle.

The SSS swap sweep, the Hungarian assignment solve and simulated
annealing's swap-move Metropolis loop are the three solver hot loops
whose per-iteration work is too small for NumPy dispatch to amortise;
the vector engine's per-cycle loop (mapped-traffic emission plus the
router sweep) is the fourth such loop.
Their C sources live in ``repro/csrc/``.  This module compiles them
together into one shared object, once per machine, with the system
compiler (``cc -O2 -fPIC -shared -lm``), and binds the solver entry points
through ``ctypes`` (`repro.noc.cc_kernel` binds the engine's).  ``ctypes``
releases the GIL for the duration of every call, so the serve worker
pool's threads scale solves and cycle loops across cores.  Without a
compiler the solvers run the pure-Python loops the kernels transliterate
(the ``reference`` backend of `repro.core.permkernels`), and simulations
run on the fast path.

Bit-identity: the solver loops are transliterations of the per-window SSS
reference (`repro.core.sss._SwapState.try_window` in sweep order) and of
`repro.core.hungarian._solve_reference` — same expressions, same
accumulation order, same strict-``<`` first-minimum tie-breaks —
compiled with ``-ffp-contract=off`` so no fused multiply-adds change
IEEE rounding.  The annealing loop transliterates
`repro.core.baselines._AnnealState.propose_swap` and the swap branch of
`repro.core.baselines.simulated_annealing`, and draws from the caller's
own NumPy ``Generator`` through its ``bitgen_t`` pointer, reproducing
``Generator.integers(n)`` (Lemire's bounded ``uint32`` draw) and
``Generator.random()`` draw for draw, so the generator is left in the
same state as the Python loop leaves it; both loops take ``exp`` from
the C library (``math.exp`` in Python).  The cycle kernel's traffic
emission is a loop of the same kind: it transliterates
`repro.noc.traffic.MappedWorkloadTraffic.emit`, drawing each instance's
``Generator.random()`` fill through ``next_double`` and its
``integers(n)`` destinations through the same bounded draw, on every
generator's own ``bitgen_t`` while holding its lock.  It then steps
routers in the object engine's order (see ``csrc/noc_cycle.c`` and
`repro.noc.vector_engine`).  The golden and hypothesis suites exercise
these kernels directly whenever a compiler is present.

Environment knobs:

* ``REPRO_CC=0`` (or ``off``, ``none``, ``false``) disables the backend
  entirely; ``REPRO_CC=1`` (or ``on``, ``true``, ``yes``), like an unset
  variable, searches for ``cc``/``gcc``/``clang``; any other value names
  a specific compiler binary.
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
    "cc_sa_swap",
    "cc_bounded_draws",
]

#: Stack-buffer limits baked into the C source; the dispatcher falls back
#: to the Python loop beyond them (never hit by the paper's workloads).
CC_MAX_APPS = 64
CC_MAX_WINDOW = 8

#: C sources compiled together into the one shared object, in this order.
_C_SOURCE_FILES = ("solvers.c", "noc_cycle.c")
_CSRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "csrc")


def _c_source() -> str:
    """The concatenated C source of every kernel in the shared object."""
    parts = []
    for name in _C_SOURCE_FILES:
        with open(os.path.join(_CSRC_DIR, name)) as f:
            parts.append(f.read())
    return "\n".join(parts)


_I64 = ctypes.POINTER(ctypes.c_int64)
_F64 = ctypes.POINTER(ctypes.c_double)
_U8 = ctypes.POINTER(ctypes.c_uint8)

_lock = threading.Lock()
_lib = None
_lib_error: str | None = None
_loaded = False


def _resolve_compiler() -> tuple[str | None, str | None]:
    """``(compiler, None)``, or ``(None, reason)`` when disabled or absent."""
    env = os.environ.get("REPRO_CC", "").strip()
    word = env.lower()
    if word in ("0", "off", "none", "false"):
        return None, f"disabled by REPRO_CC={env!r}"
    if env and word not in ("1", "on", "true", "yes"):
        found = shutil.which(env) or (env if os.path.exists(env) else None)
        return (found, None) if found else (None, f"REPRO_CC={env!r} names no compiler")
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found, None
    return None, "no C compiler found (set REPRO_CC, or install cc/gcc/clang)"


def compiler_path() -> str | None:
    """The C compiler this backend would use, or ``None`` when disabled/absent."""
    return _resolve_compiler()[0]


def _cache_dir() -> str:
    override = os.environ.get("REPRO_CC_CACHE", "").strip()
    if override:
        return override
    tag = f"{os.getuid()}" if hasattr(os, "getuid") else "any"
    return os.path.join(tempfile.gettempdir(), f"repro-cc-{tag}")


def _build(compiler: str) -> str:
    """Compile the kernels into the cache dir; returns the .so path."""
    source = _c_source()
    key = hashlib.sha256((source + compiler + sys.platform).encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"repro_solvers_{key}.so")
    if os.path.exists(so_path):
        return so_path
    os.makedirs(cache, exist_ok=True)
    src_path = os.path.join(cache, f"repro_solvers_{key}.c")
    tmp_path = so_path + f".tmp{os.getpid()}"
    with open(src_path, "w") as f:
        f.write(source)
    cmd = [
        compiler, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
        "-o", tmp_path, src_path, "-lm",
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
    lib.sa_swap.restype = ctypes.c_int64
    lib.sa_swap.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        _I64, _F64,
        _F64, _F64, _F64, _F64,
        _I64, _F64,
        _I64, ctypes.c_int64, _F64,
        ctypes.c_int64, _F64,
        ctypes.c_int64, ctypes.c_double, ctypes.c_double,
        _F64, _I64,
    ]
    lib.bounded_draws.restype = None
    lib.bounded_draws.argtypes = [
        ctypes.c_void_p, ctypes.c_uint32, ctypes.c_int64, _I64,
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
        compiler, _lib_error = _resolve_compiler()
        if compiler is not None:
            try:
                _lib = _bind(_build(compiler))
            except Exception as exc:  # pragma: no cover - toolchain-specific
                _lib_error = f"C kernel build failed: {exc}"
        _loaded = True
    return _lib, _lib_error


def _ptr(array: np.ndarray):
    if not array.flags.c_contiguous:
        raise TypeError("kernel arrays must be C-contiguous")
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


def cc_sa_swap(
    lib,
    rng: np.random.Generator,
    perm,
    numerators,
    c,
    m,
    tc,
    tm,
    app_of_thread,
    volumes,
    active,
    n_probe,
    uphill,
    n_iters,
    temperature,
    cooling,
    io,
    best_perm,
) -> int:
    """Call the C ``sa_swap``: one restart's probe or Metropolis loop.

    Draws from ``rng``'s own bit generator while holding its lock, so
    the stream continues exactly where NumPy's draws would have left it.
    With ``n_probe > 0`` it fills ``uphill`` and returns how many
    entries it wrote (``best_perm`` may be ``None``); otherwise it runs
    ``n_iters`` steps from ``io = [current, best]``, mutating ``perm`` /
    ``numerators`` / ``io`` / ``best_perm`` in place, and returns the
    accepted count (``uphill`` may be ``None``).
    """
    deltas = np.zeros(numerators.shape[0])
    c, m, tc, tm, volumes = (
        np.ascontiguousarray(a, dtype=np.float64) for a in (c, m, tc, tm, volumes)
    )
    app_of_thread, active = (
        np.ascontiguousarray(a, dtype=np.int64) for a in (app_of_thread, active)
    )
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        return int(
            lib.sa_swap(
                bit_generator.ctypes.bit_generator,
                ctypes.c_int64(perm.shape[0]), ctypes.c_int64(numerators.shape[0]),
                _ptr(perm), _ptr(numerators),
                _ptr(c), _ptr(m), _ptr(tc), _ptr(tm),
                _ptr(app_of_thread), _ptr(volumes),
                _ptr(active), ctypes.c_int64(active.shape[0]), _ptr(deltas),
                ctypes.c_int64(n_probe), None if uphill is None else _ptr(uphill),
                ctypes.c_int64(n_iters), ctypes.c_double(temperature),
                ctypes.c_double(cooling),
                _ptr(io), None if best_perm is None else _ptr(best_perm),
            )
        )


def cc_bounded_draws(lib, rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` draws of the kernel's ``Generator.integers(n)`` on ``rng``."""
    out = np.empty(count, dtype=np.int64)
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        lib.bounded_draws(
            bit_generator.ctypes.bit_generator, ctypes.c_uint32(n - 1),
            ctypes.c_int64(count), _ptr(out),
        )
    return out
