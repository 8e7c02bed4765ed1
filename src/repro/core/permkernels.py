"""Batched, optionally compiled kernels shared by the mapping solvers.

Two things live here:

* :class:`PermutationBatchEvaluator` — scores K permutations against one
  instance as a single ``(K, n)`` gather + ``reduceat`` producing a
  ``(K, n_apps)`` latency-sum matrix.  It is the one batch-scoring path
  behind Monte Carlo, the GA population loop, exhaustive enumeration in
  `repro.core.exact`, and random averaging — all of which previously
  carried their own copy of the same arithmetic (or worse, a Python
  list comprehension per permutation).  Metric semantics are bit-identical
  to :func:`repro.core.metrics.evaluate_mapping` / the old
  ``_batched_metrics``: same expressions, same reduction order.

* The solver kernel **backend dispatch**.  The SSS swap sweep (and the
  Hungarian solve in `repro.core.hungarian`) run through one of:

  - ``cc`` — the self-compiled ctypes C kernels
    (`repro.core.cc_solvers`) when a C compiler is present,
  - ``numpy`` — a batched multi-window NumPy fallback, always available,
  - ``reference`` — the original per-window / per-column pure-Python
    paths, selectable only via :func:`force_backend` (tests and the
    regression benchmarks use it as the measurement baseline).

  Resolution is ``cc`` when its library loads, else ``numpy``;
  ``REPRO_CC=0`` disables the C build and so forces ``numpy``.
  :func:`force_backend` overrides the choice for one context — a
  ``with`` block in one thread or task — so callers that share a process
  (two serve daemons, a test next to a daemon) never see each other's
  choice.  The C kernels release the GIL, so the serve worker pool's
  threads scale solves across cores.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from repro.core import cc_solvers
from repro.core.metrics import MappingEvaluation
from repro.core.workload import Workload

__all__ = [
    "PermutationBatchEvaluator",
    "resolve_backend",
    "force_backend",
    "backend_info",
    "warmup",
    "sweep_pass_inplace",
]

_FORCED: ContextVar[str | None] = ContextVar("repro_forced_backend", default=None)
_VALID_BACKENDS = ("cc", "numpy", "reference")


def _cc_available() -> bool:
    lib, _ = cc_solvers.load_library()
    return lib is not None


def resolve_backend() -> str:
    """The solver-kernel backend the dispatchers will use right now."""
    forced = _FORCED.get()
    if forced is not None:
        return forced
    return "cc" if _cc_available() else "numpy"


@contextmanager
def force_backend(name: str):
    """Pin the kernel backend for the duration of the ``with`` block.

    Accepts any of ``cc | numpy | reference``.  The pin lives in a
    context variable, so it covers only the current thread or task:
    tests and benchmarks compare backends in one process with it, and
    the serve daemon enters ``numpy`` inside a solve while that
    service's ``cc`` breaker is open.  All backends are bit-identical,
    so a pin changes cost, never bytes.
    """
    if name not in _VALID_BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {_VALID_BACKENDS}")
    token = _FORCED.set(name)
    try:
        yield
    finally:
        _FORCED.reset(token)


def backend_info() -> dict:
    """Availability snapshot for /healthz, benchmarks, and logs."""
    cc_lib, cc_reason = cc_solvers.load_library()
    return {
        "backend": resolve_backend(),
        "cc": cc_lib is not None,
        "cc_compiler": cc_solvers.compiler_path(),
        "cc_reason": cc_reason,
    }


_warm_lock = threading.Lock()
_warmed: dict | None = None


def warmup() -> dict:
    """Compile/build the selected backend eagerly; returns backend_info().

    The serve daemon calls this at startup so the first cache-miss request
    never pays the one-off C build (the same shared object carries the
    vector engine's cycle kernel, so simulations do not either).
    Idempotent and cheap after the first call.
    """
    global _warmed
    with _warm_lock:
        if _warmed is not None:
            return _warmed
        sorted_tiles = np.arange(4, dtype=np.int64)
        perms = np.array(
            [[0, 1], [1, 0]], dtype=np.int64
        )
        perm = np.arange(4, dtype=np.int64)
        tile_thread = np.arange(4, dtype=np.int64)
        numerators = np.zeros(1)
        ones = np.ones(4)
        sweep_pass_inplace(
            sorted_tiles, 2, 1, perms, perm, tile_thread, numerators,
            ones, ones, ones.copy(), ones.copy(),
            np.zeros(4, dtype=np.int64), np.ones(1),
            np.zeros(1, dtype=np.int64),
        )
        from repro.core.hungarian import solve_assignment

        solve_assignment(np.array([[0.0, 1.0], [1.0, 0.0]]))
        _warmed = backend_info()
        return _warmed


# ---------------------------------------------------------------------------
# Swap-sweep dispatch
# ---------------------------------------------------------------------------


def sweep_pass_inplace(
    sorted_tiles: np.ndarray,
    w: int,
    max_step: int,
    perms: np.ndarray,
    perm: np.ndarray,
    tile_thread: np.ndarray,
    numerators: np.ndarray,
    c: np.ndarray,
    m: np.ndarray,
    tc: np.ndarray,
    tm: np.ndarray,
    app_of_thread: np.ndarray,
    safe_volumes: np.ndarray,
    active: np.ndarray,
    backend: str | None = None,
) -> tuple[int, int]:
    """One full ``(step, start)`` greedy sweep, mutating the mapping state.

    Exactly replicates the per-window reference
    (`repro.core.sss._SwapState.try_window` called in sweep order):
    identical accept decisions, identical float accumulation.  Returns
    ``(windows_tried, windows_accepted)``.
    """
    backend = backend or resolve_backend()
    if backend == "cc" and (
        numerators.shape[0] <= cc_solvers.CC_MAX_APPS
        and w <= cc_solvers.CC_MAX_WINDOW
    ):
        lib, _ = cc_solvers.load_library()
        if lib is not None:
            counts = np.zeros(2, dtype=np.int64)
            cc_solvers.cc_sweep_pass(
                lib,
                np.ascontiguousarray(sorted_tiles), w, max_step,
                np.ascontiguousarray(perms), perm, tile_thread, numerators,
                np.ascontiguousarray(c), np.ascontiguousarray(m),
                np.ascontiguousarray(tc), np.ascontiguousarray(tm),
                np.ascontiguousarray(app_of_thread),
                np.ascontiguousarray(safe_volumes),
                np.ascontiguousarray(active), counts,
            )
            return int(counts[0]), int(counts[1])
    return _numpy_sweep_pass(
        sorted_tiles, w, max_step, perms, perm, tile_thread, numerators,
        c, m, tc, tm, app_of_thread, safe_volumes, active,
    )


def _numpy_sweep_pass(
    sorted_tiles, w, max_step, perms, perm, tile_thread, numerators,
    c, m, tc, tm, app_of_thread, safe_volumes, active,
) -> tuple[int, int]:
    """Batched multi-window NumPy sweep — the always-available fallback.

    Optimistic batching: all windows of one step are scored at once under
    the *frozen* current state.  Rejections never mutate state, so every
    window decided before the first acceptance is decided exactly as the
    sequential sweep would; the first accepted window is applied and the
    scan restarts just after it.  This preserves the greedy accept order
    and the first-minimum argmin tie-break bit for bit while replacing
    thousands of tiny NumPy dispatches with a handful of batched ones.
    """
    n = sorted_tiles.shape[0]
    n_perms = perms.shape[0]
    n_apps = numerators.shape[0]
    aw = np.arange(w)
    tried = 0
    accepted = 0
    for step in range(1, max_step + 1):
        span = (w - 1) * step
        n_windows = n - span
        if n_windows <= 0:
            continue
        windows = sorted_tiles[np.arange(n_windows)[:, None] + step * aw[None, :]]
        pos = 0
        while pos < n_windows:
            win = windows[pos:]
            batch = win.shape[0]
            threads = tile_thread[win]
            cost = (
                c[threads][:, :, None] * tc[win][:, None, :]
                + m[threads][:, :, None] * tm[win][:, None, :]
            )
            base = cost[:, aw, aw]
            deltas = cost[:, aw[None, :], perms] - base[:, None, :]
            apps = app_of_thread[threads]
            app_delta = np.zeros((batch, n_perms, n_apps))
            rows = np.arange(batch)
            # Ascending-position accumulation == np.add.at's scatter order
            # in the per-window reference (indices are unique per a).
            for a in range(w):
                app_delta[rows, :, apps[:, a]] += deltas[:, :, a]
            candidate = (numerators[None, None, :] + app_delta) / safe_volumes
            max_apls = candidate[:, :, active].max(axis=2)
            best = np.argmin(max_apls, axis=1)
            accepts = np.flatnonzero(best != 0)
            if accepts.size == 0:
                tried += batch
                break
            k = int(accepts[0])
            tried += k + 1
            accepted += 1
            b = int(best[k])
            win_tiles = win[k]
            win_threads = threads[k]
            new_tiles = win_tiles[perms[b]]
            perm[win_threads] = new_tiles
            tile_thread[new_tiles] = win_threads
            numerators += app_delta[k, b]
            pos += k + 1
    return tried, accepted


# ---------------------------------------------------------------------------
# Batched permutation scoring
# ---------------------------------------------------------------------------


class PermutationBatchEvaluator:
    """Score batches of thread-to-tile permutations against one instance.

    All derived arrays (rates, boundaries, volumes, active set) are
    gathered once at construction; every scoring call is then a single
    gather + ``reduceat`` over the whole batch.  Instances cache one on
    ``OBMInstance.batch_evaluator``.
    """

    def __init__(self, workload: Workload, tc: np.ndarray, tm: np.ndarray) -> None:
        self.workload = workload
        self.tc = tc
        self.tm = tm
        self.cache_rates = workload.cache_rates
        self.mem_rates = workload.mem_rates
        self.boundaries = workload.boundaries
        self.volumes = workload.app_volumes
        self.active = workload.active_apps
        self.n = workload.n_threads
        self.n_apps = workload.n_apps
        self._total_volume = float(self.volumes.sum())
        self._active_volumes = self.volumes[self.active]

    @classmethod
    def from_instance(cls, instance) -> "PermutationBatchEvaluator":
        return cls(instance.workload, instance.tc, instance.tm)

    def _as_batch(self, perms: np.ndarray) -> np.ndarray:
        perms = np.asarray(perms, dtype=np.int64)
        if perms.ndim == 1:
            perms = perms[None, :]
        if perms.ndim != 2 or perms.shape[1] != self.n:
            raise ValueError(
                f"perms must be (K, {self.n}), got shape {perms.shape}"
            )
        return perms

    def app_latency_sums(self, perms: np.ndarray) -> np.ndarray:
        """``(K, n_apps)`` per-application latency numerators (eq. 5 tops)."""
        perms = self._as_batch(perms)
        per_thread = (
            self.cache_rates[None, :] * self.tc[perms]
            + self.mem_rates[None, :] * self.tm[perms]
        )
        return np.add.reduceat(per_thread, self.boundaries[:-1], axis=1)

    def metrics(
        self, perms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised ``(max-APL, dev-APL, g-APL)`` columns for the batch.

        Bit-identical to the historical ``_batched_metrics``.
        """
        sums = self.app_latency_sums(perms)
        apls = sums[:, self.active] / self._active_volumes[None, :]
        max_apls = apls.max(axis=1)
        dev_apls = apls.std(axis=1)
        g_apls = sums.sum(axis=1) / self.volumes.sum()
        return max_apls, dev_apls, g_apls

    def max_apls(self, perms: np.ndarray) -> np.ndarray:
        """Just the max-APL column (the paper's objective)."""
        sums = self.app_latency_sums(perms)
        apls = sums[:, self.active] / self._active_volumes[None, :]
        return apls.max(axis=1)

    def evaluations(self, perms: np.ndarray) -> list[MappingEvaluation]:
        """Full :class:`MappingEvaluation` per row, batch-computed.

        The per-row construction replicates
        :func:`repro.core.metrics.evaluate_mapping` operation for
        operation (1-D sums per row), so arbitrary-callable objectives
        see bit-identical inputs to the per-permutation path.
        """
        perms = self._as_batch(perms)
        sums = self.app_latency_sums(perms)
        volumes = self.volumes
        safe = np.where(volumes > 0, volumes, 1.0)
        out: list[MappingEvaluation] = []
        if self.active.size == 0:
            raise ValueError("workload has no application with traffic")
        for row in sums:
            with np.errstate(invalid="ignore", divide="ignore"):
                apls = np.where(volumes > 0, row / safe, np.nan)
            active = apls[self.active]
            hi = float(active.max())
            apls.setflags(write=False)
            out.append(
                MappingEvaluation(
                    apls=apls,
                    max_apl=hi,
                    dev_apl=float(active.std()),
                    g_apl=float(row.sum()) / self._total_volume,
                    min_max_ratio=1.0 if hi == 0 else float(active.min()) / hi,
                )
            )
        return out

    def objective_values(
        self, perms: np.ndarray, objective, chunk: int = 512
    ) -> np.ndarray:
        """``objective`` applied to every permutation of the batch.

        ``objective`` is a callable ``MappingEvaluation -> float``;
        evaluations are materialised in bounded chunks so arbitrary
        callables never hold K dataclasses at once.
        """
        perms = self._as_batch(perms)
        values = np.empty(perms.shape[0])
        for lo in range(0, perms.shape[0], chunk):
            rows = perms[lo : lo + chunk]
            for offset, ev in enumerate(self.evaluations(rows)):
                values[lo + offset] = objective(ev)
        return values
