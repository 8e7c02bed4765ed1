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

* The solver kernel **backend dispatch**.  The SSS swap sweep, the
  Hungarian solve in `repro.core.hungarian`, simulated annealing's swap
  moves in `repro.core.baselines` and the vector engine's cycle loop
  (`repro.noc.cc_kernel`) run on one of two backends:

  - ``cc`` — the self-compiled ctypes C kernels
    (`repro.core.cc_solvers`) when a C compiler is present,
  - ``reference`` — the pure-Python per-window / per-column loops the
    kernels transliterate; without the library the vector engine is
    unavailable and simulations take the fast path.

  Resolution is ``cc`` when its library loads, else ``reference``;
  ``REPRO_CC=0`` disables the C build and so forces ``reference``.
  :func:`compiled_library` is the one place that answers "compiled or
  Python" for all four call sites.  :func:`force_backend` overrides the
  choice for one context — a ``with`` block in one thread or task — so
  callers that share a process (two serve daemons, a test next to a
  daemon) never see each other's choice.  The C kernels release the GIL,
  so the serve worker pool's threads scale solves across cores.
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
    "compiled_library",
    "force_backend",
    "backend_info",
    "warmup",
]

_FORCED: ContextVar[str | None] = ContextVar("repro_forced_backend", default=None)
_VALID_BACKENDS = ("cc", "reference")


def resolve_backend() -> str:
    """The solver-kernel backend the dispatchers will use right now."""
    forced = _FORCED.get()
    if forced is not None:
        return forced
    return "cc" if cc_solvers.load_library()[0] is not None else "reference"


def compiled_library():
    """The loaded C library when the backend resolves to ``cc``, else ``None``.

    ``None`` means the caller runs its Python loop.
    """
    if _FORCED.get() == "reference":
        return None
    return cc_solvers.load_library()[0]


@contextmanager
def force_backend(name: str):
    """Pin the kernel backend for the duration of the ``with`` block.

    Accepts ``cc`` or ``reference``.  The pin lives in a context
    variable, so it covers only the current thread or task: tests and
    benchmarks compare backends in one process with it.  Both backends
    are bit-identical, so a pin changes cost, never bytes.
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
    """Build and bind the C library eagerly; returns backend_info().

    The serve daemon calls this at startup so the first cache-miss request
    never pays the one-off C build (the same shared object carries the
    vector engine's cycle kernel, so simulations do not either).
    Idempotent and cheap after the first call.
    """
    global _warmed
    with _warm_lock:
        if _warmed is not None:
            return _warmed
        from repro.core.hungarian import solve_assignment

        solve_assignment(np.array([[0.0, 1.0], [1.0, 0.0]]))
        _warmed = backend_info()
        return _warmed


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
