"""Deterministic, crash-safe fan-out of experiment cells across processes.

The figure/table harnesses are embarrassingly parallel at the *cell*
level: one (workload config x algorithm-sweep) per C1..C8 name, one
simulation per algorithm, one SSS start per seed.  :func:`parallel_map`
runs such cells through a :class:`~concurrent.futures.ProcessPoolExecutor`
and returns results **in input order**, so a parallel run is byte-for-byte
identical to the serial one provided each cell is deterministic in its
inputs.  Determinism is the caller's contract and this module's helpers
make it easy to honour:

* derive every seed *before* fanning out (:func:`cell_seeds`, or by
  pre-drawing from the caller's generator in its original order), so the
  stream of random numbers a cell sees never depends on scheduling;
* results come back ordered, so reductions (best-of, tables, artifact
  JSON) see the same sequence as a serial loop.

``workers=1`` (the default everywhere) bypasses the executor entirely —
no processes, no pickling — which keeps the serial path the reference
implementation.  Cell functions must be module-level (picklable) when
``workers > 1``.

Long campaigns additionally get *supervised* failure handling:

* a per-task ``timeout`` (seconds) and a ``retries`` budget per cell,
  with capped exponential backoff and seeded jitter between attempts
  (:func:`~repro.experiments.resilience.backoff_delays`);
* a run-wide ``failure_budget`` that aborts a campaign drowning in
  failures instead of retrying forever;
* automatic pool replacement after a worker crash or timeout
  (``BrokenProcessPool`` / ``TimeoutError``), degrading to in-process
  serial execution once :data:`MAX_POOL_REPLACEMENTS` pools have died —
  a hostile machine slows a run down but does not kill it;
* optional journaling through a
  :class:`~repro.experiments.resilience.RunLedger`: each completed
  cell's result is fsynced to an append-only JSONL file, and a
  re-launched run replays finished cells instead of recomputing them.

Retry and resume semantics are safe precisely because of the determinism
contract above — re-running a cell yields the same value, so a retry or
a ledger replay can only turn a transient failure into the correct
result, never a different one.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import Future, ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

from repro.experiments.resilience import (
    FailureBudgetExceeded,
    RunInterrupted,
    RunReport,
    backoff_delays,
    resolve_backoff,
)
from repro.obs import reqtrace
from repro.utils.rng import stable_seed

__all__ = [
    "CellFailure",
    "MAX_POOL_REPLACEMENTS",
    "parallel_map",
    "cell_seeds",
    "resolve_failure_budget",
    "resolve_retries",
    "resolve_timeout",
    "resolve_workers",
    "supports_kwarg",
    "supports_workers",
]

#: Pool replacements tolerated in one ``parallel_map`` call before the
#: remaining cells run serially in the parent process instead.
MAX_POOL_REPLACEMENTS = 3


class _TracedCell:
    """Picklable wrapper returning ``(fn(cell), worker span histograms)``.

    A pooled cell runs in another process, where the parent's trace
    context cannot reach, so spans timed inside it (``noc.measure`` etc.)
    would vanish with the worker.  When the parent is tracing,
    ``parallel_map`` wraps the cell function in this class: the worker
    runs the cell as the root ``parallel.cell`` span of its own tracer
    and ships that tracer's span histograms back with the result for the
    parent to merge.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, cell):
        with reqtrace.profiled("parallel.cell") as registry:
            value = self.fn(cell)
        return value, reqtrace.span_histograms(registry)


class CellFailure(RuntimeError):
    """A cell exhausted its retry budget.  ``index``/``cell`` identify it."""

    def __init__(self, index: int, cell, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"cell {index} ({cell!r}) failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
        )
        self.index = index
        self.cell = cell
        self.attempts = attempts
        self.cause = cause


def resolve_timeout(timeout: float | None) -> float | None:
    """Normalise a per-task timeout (env fallback ``REPRO_TASK_TIMEOUT``)."""
    if timeout is None:
        raw = os.environ.get("REPRO_TASK_TIMEOUT", "")
        timeout = float(raw) if raw else None
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    return timeout


def resolve_retries(retries: int | None) -> int:
    """Normalise a per-task retry budget (env fallback ``REPRO_TASK_RETRIES``)."""
    if retries is None:
        retries = int(os.environ.get("REPRO_TASK_RETRIES", "0"))
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    return retries


def resolve_failure_budget(budget: int | None) -> int | None:
    """Normalise a run-wide failure budget (env fallback ``REPRO_FAILURE_BUDGET``)."""
    if budget is None:
        raw = os.environ.get("REPRO_FAILURE_BUDGET", "")
        budget = int(raw) if raw else None
    if budget is not None and budget < 0:
        raise ValueError(f"failure_budget must be >= 0, got {budget}")
    return budget


def resolve_workers(workers: int | None = None) -> int:
    """Normalise a ``workers`` knob to a positive process count.

    ``None`` falls back to the ``REPRO_WORKERS`` environment variable
    (default 1 — serial); ``0`` means "one per CPU".
    """
    if workers is None:
        workers = int(os.environ.get("REPRO_WORKERS", "1"))
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def parallel_map(
    fn: Callable,
    cells: Iterable,
    *,
    workers: int | None = 1,
    timeout: float | None = None,
    retries: int | None = None,
    on_failure: str = "raise",
    on_result: Callable[[int, object], None] | None = None,
    backoff: float | tuple[float, float] | None = None,
    failure_budget: int | None = None,
    ledger=None,
    cell_keys: Sequence | None = None,
    max_cells: int | None = None,
    report: RunReport | None = None,
    sleep: Callable[[float], None] | None = None,
) -> list:
    """``[fn(cell) for cell in cells]``, optionally across processes.

    Results are always returned in the order of ``cells`` regardless of
    which worker finishes first.  With ``workers <= 1`` this is exactly
    the list comprehension (no executor, no pickling), so the serial path
    stays the reference implementation and the parallel path is only ever
    a wall-clock optimisation.

    Failure handling (long campaigns):

    * ``timeout`` — seconds to wait for a cell's result once collection
      reaches it (``None``: wait forever; env fallback
      ``REPRO_TASK_TIMEOUT``).  A timed-out cell counts as a failed
      attempt; the executor is replaced, since the wedged worker cannot
      be reclaimed, and every unfinished cell is resubmitted.  Only the
      process pool can enforce this — the serial path ignores ``timeout``
      (nothing can preempt an in-process call).
    * ``retries`` — extra attempts per cell after its first failure
      (default 0; env fallback ``REPRO_TASK_RETRIES``).  Between attempts
      the run sleeps a capped exponential ``backoff`` with seeded jitter
      (``(base, cap)`` seconds or a bare base; env fallback
      ``REPRO_RETRY_BACKOFF="base[:cap]"``, ``"0"`` disables).  ``sleep``
      is injectable for fake-clock tests.
    * ``failure_budget`` — run-wide cap on *total* failed attempts across
      all cells (env fallback ``REPRO_FAILURE_BUDGET``); exceeding it
      raises :class:`~repro.experiments.resilience.FailureBudgetExceeded`
      immediately rather than grinding through a doomed campaign.
    * ``on_failure`` — ``"raise"`` (default) raises :class:`CellFailure`
      once a cell exhausts its budget; ``"none"`` records ``None`` for
      that cell and keeps going.

    A worker crash (:class:`BrokenProcessPool`) also replaces the
    executor and resubmits unfinished cells, charging an attempt only to
    the cell whose collection observed the crash.  After
    :data:`MAX_POOL_REPLACEMENTS` replacements in one call, the remaining
    cells run serially in the parent process (``report.degraded_serial``).

    Checkpoint/resume:

    * ``ledger`` — a :class:`~repro.experiments.resilience.RunLedger`;
      requires ``cell_keys`` (one unique string per cell).  Cells already
      journaled are *resumed* (their recorded result is returned without
      recomputation); freshly computed cells are journaled as they
      complete.  With a ledger active, every result — fresh or resumed —
      is the canonical JSON round-trip of the cell's return value, so
      resumed runs are byte-identical to uninterrupted ones.
    * ``max_cells`` — compute at most this many *fresh* cells, then raise
      :class:`~repro.experiments.resilience.RunInterrupted` (a deliberate
      partial run; everything computed is already in the ledger).
    * ``report`` — a :class:`~repro.experiments.resilience.RunReport` to
      accumulate cell/retry/degradation accounting into.

    ``on_result(index, result)`` is invoked once per cell, in input
    order, as results become available — the hook the figure harnesses
    use for progress reporting.  Failed cells under ``on_failure="none"``
    report ``None``.

    Every cell runs inside a ``parallel.cell`` span.  When a trace is
    active (:func:`repro.obs.reqtrace.is_active`, e.g. under
    ``--profile``), cells fanned to worker processes are wrapped so each
    worker's span histograms travel back with its result and are merged
    into the parent's trace (in input order) — ``--profile`` shows the
    same span names and call counts whether ``workers`` is 1 or 16, with
    ``seconds`` then meaning summed worker wall-clock.
    """
    cells = list(cells)
    workers = resolve_workers(workers)
    timeout = resolve_timeout(timeout)
    retries = resolve_retries(retries)
    backoff = resolve_backoff(backoff)
    failure_budget = resolve_failure_budget(failure_budget)
    if sleep is None:
        sleep = time.sleep
    if on_failure not in ("raise", "none"):
        raise ValueError(f"on_failure must be 'raise' or 'none', got {on_failure!r}")
    keys: list[str] | None = None
    if ledger is not None:
        if cell_keys is None:
            raise ValueError("ledger requires cell_keys (one stable key per cell)")
        keys = [str(k) for k in cell_keys]
        if len(keys) != len(cells):
            raise ValueError(
                f"cell_keys has {len(keys)} entries for {len(cells)} cells"
            )
        if len(set(keys)) != len(keys):
            raise ValueError("cell_keys must be unique")
    if max_cells is not None and max_cells < 0:
        raise ValueError(f"max_cells must be >= 0, got {max_cells}")
    if report is None:
        report = RunReport()
    report.cells_total += len(cells)

    n = len(cells)
    results: list = [None] * n
    done = [False] * n
    attempts: dict[int, int] = defaultdict(int)
    budget_spent = 0
    reported = 0
    worker_spans: dict[int, list] = {}

    def report_ready() -> None:
        # Fire on_result for the longest done prefix, keeping the callback
        # in input order even when cells complete out of order.
        nonlocal reported
        while reported < n and done[reported]:
            if on_result is not None:
                on_result(reported, results[reported])
            reported += 1

    def charge(index: int, exc: BaseException) -> bool:
        """Account one failed attempt; True when the cell should retry."""
        nonlocal budget_spent
        attempts[index] += 1
        budget_spent += 1
        report.record_failure(exc)
        if failure_budget is not None and budget_spent > failure_budget:
            raise FailureBudgetExceeded(
                failure_budget, list(report.failure_causes)
            ) from exc
        if attempts[index] <= retries:
            report.retries += 1
            delay = backoff_delays(index, attempts[index], backoff)
            if delay > 0:
                report.backoff_seconds += delay
                sleep(delay)
            return True
        if on_failure == "raise":
            raise CellFailure(index, cells[index], attempts[index], exc) from exc
        report.cells_failed += 1
        return False

    def complete(index: int, value):
        """Journal a freshly computed value; returns its canonical form."""
        report.cells_computed += 1
        if ledger is not None:
            return ledger.record(keys[index], value)
        return value

    # Resume finished cells from the ledger before any dispatch.
    for i in range(n):
        if ledger is not None and keys[i] in ledger:
            results[i] = ledger.get(keys[i])
            done[i] = True
            report.cells_resumed += 1

    run_idx = [i for i in range(n) if not done[i]]
    deferred = 0
    if max_cells is not None and len(run_idx) > max_cells:
        deferred = len(run_idx) - max_cells
        run_idx = run_idx[:max_cells]

    use_pool = workers > 1 and len(run_idx) > 1
    wrapped = use_pool and reqtrace.is_active()
    pooled_fn = _TracedCell(fn) if wrapped else fn

    def store(index: int, raw):
        if wrapped:
            value, worker_spans[index] = raw
        else:
            value = raw
        return complete(index, value)

    def run_serial(index: int) -> None:
        """Reference in-process execution of one cell (also the degraded path)."""
        while True:
            try:
                # In-process, so an active trace context flows straight
                # into the cell; pooled cells run in other processes and
                # open their own "parallel.cell" root span (_TracedCell).
                with reqtrace.span("parallel.cell", index=index):
                    value = fn(cells[index])
            except Exception as exc:
                if charge(index, exc):
                    continue
                done[index] = True  # on_failure="none": keep the None
                break
            results[index] = complete(index, value)
            done[index] = True
            break
        report_ready()

    def finish() -> list:
        report_ready()
        for index in sorted(worker_spans):
            reqtrace.merge_span_histograms(worker_spans[index])
        if deferred:
            raise RunInterrupted(sum(done), n)
        return results

    if not use_pool:
        for i in run_idx:
            run_serial(i)
        return finish()

    def submit(index: int) -> Future:
        # A worker can die while cells are still being submitted; the
        # pool then refuses further work.  Hand back a future that already
        # holds that crash so collection replaces the pool as usual.
        try:
            return executor.submit(pooled_fn, cells[index])
        except BrokenProcessPool as exc:
            crashed: Future = Future()
            crashed.set_exception(exc)
            return crashed

    replacements = 0
    degraded = False
    executor = ProcessPoolExecutor(max_workers=min(workers, len(run_idx)))
    try:
        futures = {i: submit(i) for i in run_idx}
        while not degraded:
            pending = [i for i in run_idx if not done[i]]
            if not pending:
                break
            replace_pool = False
            for i in pending:
                if done[i]:  # salvaged during a pool replacement below
                    continue
                try:
                    results[i] = store(i, futures[i].result(timeout=timeout))
                    done[i] = True
                    report_ready()
                    continue
                except (FutureTimeout, BrokenProcessPool) as exc:
                    failure = exc
                    replace_pool = True  # wedged/dead worker: pool is unusable
                except Exception as exc:
                    failure = exc  # the cell itself raised; pool is fine
                if replace_pool:
                    # Salvage everything that already finished *before*
                    # charging the failure: charging can abort the run
                    # (no retries left, budget spent), and delivered
                    # results must reach the ledger first.
                    for j in run_idx:
                        if not done[j] and j != i and futures[j].done():
                            try:
                                results[j] = store(j, futures[j].result())
                                done[j] = True
                            except Exception:
                                pass  # retried on the fresh pool
                    report_ready()
                retry = charge(i, failure)
                if not retry:
                    done[i] = True
                    report_ready()
                elif not replace_pool:
                    futures[i] = submit(i)
                if replace_pool:
                    executor.shutdown(wait=False, cancel_futures=True)
                    replacements += 1
                    report.pool_replacements += 1
                    if replacements > MAX_POOL_REPLACEMENTS:
                        # The machine keeps eating pools; stop feeding it
                        # and finish the campaign in-process.
                        degraded = True
                        report.degraded_serial = True
                        break
                    executor = ProcessPoolExecutor(
                        max_workers=min(workers, len(run_idx))
                    )
                    futures = {j: submit(j) for j in run_idx if not done[j]}
                    break  # restart collection over the new futures
        if degraded:
            for i in run_idx:
                if not done[i]:
                    run_serial(i)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    return finish()


def cell_seeds(tag: str, labels: Sequence) -> list[int]:
    """One stable 63-bit seed per cell label, independent of cell order.

    Seeds depend only on ``(tag, label)`` — not on how many cells run,
    in which order, or in how many processes — so adding or reordering
    cells never perturbs the others' results.
    """
    return [stable_seed(tag, str(label)) for label in labels]


def supports_kwarg(fn: Callable, name: str) -> bool:
    """Does ``fn`` declare an explicit keyword argument ``name``?

    Used by the artifact writer and CLI to forward knobs (``workers``,
    ``ledger``, ``max_cells``, ``engine``) only to experiments that
    actually honour them (``**kwargs`` catch-alls do not count — they
    ignore the knob).
    """
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins, partials without signature
        return False
    return name in params


def supports_workers(fn: Callable) -> bool:
    """Does ``fn`` declare an explicit ``workers`` keyword?"""
    return supports_kwarg(fn, "workers")
