"""Sort-select-swap (SSS) — the paper's Algorithm 2, its main contribution.

The algorithm solves the NP-complete OBM problem heuristically in O(N^3):

1. **Sort** all tiles by their L2-cache APL ``TC(k)`` (cache traffic
   dominates, so TC quality is the "coarse" notion of a good tile).
2. **Select**: for each application in turn, divide the remaining sorted
   tile list into as many equal sections as the application has threads and
   take the *middle* tile of each section.  Every application thus receives
   the same spread of good and bad tiles.  The application's threads are
   then placed on its tiles optimally with the Hungarian-based SAM solver.
3. **Swap**: fine tuning for the (so far ignored) memory traffic and for
   the residual cache imbalance.  A window of 4 positions slides over the
   sorted tile list with step sizes 1 .. N/4; all 24 permutations of the
   four threads currently on the window's tiles are evaluated and the one
   minimising the max-APL is kept (greedy).  Finally SAM runs once more per
   application to re-polish within each application's tile set.

All intermediate per-stage metrics are recorded in ``MappingResult.extra``
so ablation benchmarks can attribute the final quality to each stage.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.core import cc_solvers, permkernels
from repro.core.metrics import evaluate_mapping
from repro.core.problem import Mapping, OBMInstance
from repro.core.results import MappingResult
from repro.core.sam import assign_app_to_tiles
from repro.obs import reqtrace
from repro.utils.rng import as_rng

__all__ = [
    "SSSConfig",
    "sort_select_swap",
    "select_only_mapping",
]


@dataclass(frozen=True)
class SSSConfig:
    """Tuning knobs of sort-select-swap.

    The defaults reproduce the paper exactly; the alternatives exist for
    the ablation studies in ``benchmarks/``.
    """

    window: int = 4  #: tiles per sliding window (paper: 4, i.e. 24 perms)
    max_step: int | None = None  #: largest window stride; default N // 4
    swap_passes: int = 1  #: how many times to repeat the full swap sweep
    final_polish: bool = True  #: run the closing per-application SAM pass
    select: str = "middle"  #: section representative: middle | first | last | random
    app_order: str = "given"  #: given | heavy_first | light_first
    #: Extension beyond the paper: one more swap sweep *after* the final
    #: polish.  The polish minimises each application's APL individually,
    #: which can slightly re-spread the APLs; the extra sweep restores the
    #: balance at ~40% extra runtime.  Off by default (paper-faithful).
    rebalance_after_polish: bool = False

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"window must be at least 2, got {self.window}")
        if self.window > 6:
            raise ValueError(
                f"window of {self.window} would enumerate {self.window}! "
                "permutations per position; keep it <= 6"
            )
        if self.select not in ("middle", "first", "last", "random"):
            raise ValueError(f"unknown select policy {self.select!r}")
        if self.app_order not in ("given", "heavy_first", "light_first"):
            raise ValueError(f"unknown app_order policy {self.app_order!r}")
        if self.swap_passes < 0:
            raise ValueError("swap_passes must be non-negative")


def _tc_sorted_tiles(instance: OBMInstance) -> np.ndarray:
    """All tiles sorted by cache APL — the backbone of every SSS stage.

    Stable sort keeps the tie-breaking (many tiles share a TC value on a
    symmetric mesh) deterministic.  Computed once per ``sort_select_swap``
    call and threaded through the select/swap/rebalance stages, which all
    used to recompute it.
    """
    return np.argsort(instance.tc, kind="stable").astype(np.int64)


@lru_cache(maxsize=None)
def _window_perms(window: int) -> np.ndarray:
    """All permutations of ``window`` positions, identity first.

    Identity-first ordering makes exact ties resolve to "no change" in the
    greedy window step.  Cached: the enumeration is identical for every
    window position, sweep, restart and instance, yet used to be rebuilt
    per :class:`_SwapState`.  The array is frozen so sharing is safe.
    """
    perms = sorted(itertools.permutations(range(window)))
    perms.sort(key=lambda p: p != tuple(range(window)))
    array = np.array(perms, dtype=np.int64)
    array.setflags(write=False)
    return array


def _app_processing_order(instance: OBMInstance, config: SSSConfig) -> list[int]:
    order = list(range(instance.workload.n_apps))
    if config.app_order == "given":
        return order
    volumes = instance.workload.app_volumes
    reverse = config.app_order == "heavy_first"
    return sorted(order, key=lambda i: volumes[i], reverse=reverse)


def _select_tiles(
    remaining: np.ndarray, n_pick: int, policy: str, rng: np.random.Generator
) -> np.ndarray:
    """Pick one representative tile from each of ``n_pick`` equal sections."""
    sections = np.array_split(remaining, n_pick)
    picks = np.empty(n_pick, dtype=np.int64)
    for s, section in enumerate(sections):
        if policy == "middle":
            idx = len(section) // 2
        elif policy == "first":
            idx = 0
        elif policy == "last":
            idx = len(section) - 1
        else:  # random
            idx = int(rng.integers(len(section)))
        picks[s] = section[idx]
    return picks


def _select_phase(
    instance: OBMInstance,
    config: SSSConfig,
    rng: np.random.Generator,
    tc_order: np.ndarray | None = None,
) -> np.ndarray:
    """Steps 1+2: sorted stratified tile selection + per-app SAM placement."""
    wl = instance.workload
    sorted_tiles = _tc_sorted_tiles(instance) if tc_order is None else tc_order
    remaining = sorted_tiles.copy()
    perm = np.full(instance.n, -1, dtype=np.int64)

    for app_index in _app_processing_order(instance, config):
        n_threads = wl.applications[app_index].n_threads
        picked = _select_tiles(remaining, n_threads, config.select, rng)
        assign_app_to_tiles(
            perm,
            wl.thread_slice(app_index),
            wl.cache_rates,
            wl.mem_rates,
            picked,
            instance.tc,
            instance.tm,
        )
        keep = ~np.isin(remaining, picked)
        remaining = remaining[keep]
    assert remaining.size == 0 and not np.any(perm < 0)
    return perm


class _SwapState:
    """Incremental max-APL bookkeeping for the sliding-window swap phase.

    Maintains per-application latency numerators so a window permutation is
    evaluated in O(window + A) instead of O(N).
    """

    def __init__(self, instance: OBMInstance, perm: np.ndarray, window: int) -> None:
        wl = instance.workload
        self.instance = instance
        self.perm = perm.copy()
        self.tile_thread = np.empty(instance.n, dtype=np.int64)
        self.tile_thread[self.perm] = np.arange(instance.n)
        self.c = wl.cache_rates
        self.m = wl.mem_rates
        self.tc = instance.tc
        self.tm = instance.tm
        self.app_of_thread = wl.app_of_thread
        self.volumes = wl.app_volumes
        self.active = wl.active_apps
        per_thread = self.c * self.tc[self.perm] + self.m * self.tm[self.perm]
        self.numerators = np.add.reduceat(per_thread, wl.boundaries[:-1])
        self.perms = _window_perms(window)
        self._safe_volumes = np.where(self.volumes > 0, self.volumes, 1.0)
        #: Swap-acceptance telemetry: windows evaluated / windows where a
        #: non-identity permutation won.  Plain int bumps — the counters
        #: never touch the RNG or the mapping, so the disabled-tracing
        #: path stays bit-identical.
        self.windows_tried = 0
        self.windows_accepted = 0

    def current_max_apl(self) -> float:
        apls = self.numerators / self._safe_volumes
        return float(apls[self.active].max())

    def try_window(self, tiles: np.ndarray) -> None:
        """Greedily apply the best of all permutations of ``tiles``."""
        w = tiles.size
        threads = self.tile_thread[tiles]
        # Local eq.-13 cost block: thread a on tile position b.
        cost = (
            self.c[threads][:, None] * self.tc[tiles][None, :]
            + self.m[threads][:, None] * self.tm[tiles][None, :]
        )
        base = np.diagonal(cost)
        # deltas[p, a]: latency change of thread a under permutation p.
        deltas = cost[np.arange(w)[None, :], self.perms] - base[None, :]
        apps = self.app_of_thread[threads]
        n_perms = self.perms.shape[0]
        app_delta = np.zeros((n_perms, self.volumes.size))
        np.add.at(
            app_delta,
            (np.repeat(np.arange(n_perms), w), np.tile(apps, n_perms)),
            deltas.ravel(),
        )
        candidate_apls = (self.numerators[None, :] + app_delta) / self._safe_volumes
        max_apls = candidate_apls[:, self.active].max(axis=1)
        best = int(np.argmin(max_apls))
        self.windows_tried += 1
        if best == 0:  # identity: nothing to do
            return
        self.windows_accepted += 1
        chosen = self.perms[best]
        new_tiles = tiles[chosen]
        self.perm[threads] = new_tiles
        self.tile_thread[new_tiles] = threads
        self.numerators += app_delta[best]

    def sweep_compiled(self, lib, sorted_tiles: np.ndarray, max_step: int) -> None:
        """One whole ``(step, start)`` sweep in the C kernel.

        Bit-identical to :meth:`try_window` called in sweep order: same
        accept decisions, same float accumulation, same counters.
        """
        counts = np.zeros(2, dtype=np.int64)
        c = np.ascontiguousarray
        cc_solvers.cc_sweep_pass(
            lib, c(sorted_tiles), self.perms.shape[1], max_step, c(self.perms),
            self.perm, self.tile_thread, self.numerators, c(self.c), c(self.m),
            c(self.tc), c(self.tm), c(self.app_of_thread),
            c(self._safe_volumes), c(self.active), counts,
        )
        self.windows_tried += int(counts[0])
        self.windows_accepted += int(counts[1])

    def recompute(self) -> None:
        """Refresh numerators from scratch (clears float drift)."""
        wl = self.instance.workload
        per_thread = self.c * self.tc[self.perm] + self.m * self.tm[self.perm]
        self.numerators = np.add.reduceat(per_thread, wl.boundaries[:-1])


def _swap_phase(
    instance: OBMInstance,
    perm: np.ndarray,
    config: SSSConfig,
    tc_order: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int]:
    """Step 3's sliding-window sweep over the sorted tile list.

    Each pass runs as one C kernel call (:meth:`_SwapState.sweep_compiled`)
    when `repro.core.permkernels.compiled_library` returns the library and
    the instance fits the kernel's buffers, else as the per-window
    :meth:`_SwapState.try_window` loop; both give the same bits.
    ``recompute()`` runs between passes so float drift clears on the same
    cadence.

    Returns the new permutation plus the swap-acceptance counters
    (windows evaluated, windows where a non-identity permutation won).
    """
    n = instance.n
    w = config.window
    max_step = config.max_step if config.max_step is not None else max(1, n // w)
    sorted_tiles = _tc_sorted_tiles(instance) if tc_order is None else tc_order
    state = _SwapState(instance, perm, w)
    lib = permkernels.compiled_library()
    if state.numerators.size > cc_solvers.CC_MAX_APPS or w > cc_solvers.CC_MAX_WINDOW:
        lib = None
    for _ in range(config.swap_passes):
        if lib is not None:
            state.sweep_compiled(lib, sorted_tiles, max_step)
        else:
            for step in range(1, max_step + 1):
                span = (w - 1) * step
                for start in range(n - span):
                    positions = start + step * np.arange(w)
                    state.try_window(sorted_tiles[positions])
        state.recompute()
    return state.perm, state.windows_tried, state.windows_accepted


def sort_select_swap(
    instance: OBMInstance,
    config: SSSConfig | None = None,
    seed=None,
) -> MappingResult:
    """Run sort-select-swap on ``instance`` and return the mapping + metrics.

    ``seed`` only matters for non-default stochastic select policies; the
    paper's configuration is fully deterministic.

    Per-stage wall-clock is timed, when a trace is active, by the
    ``sss.sort`` / ``sss.select`` / ``sss.swap`` / ``sss.polish`` spans
    (:mod:`repro.obs.reqtrace`; ``--profile`` on the CLIs).
    """
    config = config or SSSConfig()
    rng = as_rng(seed)
    with reqtrace.span("sss.sort"):
        tc_order = _tc_sorted_tiles(instance)
    windows_tried = windows_accepted = 0
    t0 = time.perf_counter()

    with reqtrace.span("sss.select"):
        perm = _select_phase(instance, config, rng, tc_order)
    select_eval = evaluate_mapping(
        instance.workload, perm, instance.tc, instance.tm
    )

    with reqtrace.span("sss.swap") as swap_span:
        if config.swap_passes > 0:
            perm, windows_tried, windows_accepted = _swap_phase(
                instance, perm, config, tc_order
            )
        swap_span.set(windows=windows_tried, accepted=windows_accepted)
    swap_eval = evaluate_mapping(instance.workload, perm, instance.tc, instance.tm)

    with reqtrace.span("sss.polish"):
        if config.final_polish:
            wl = instance.workload
            for app_index in range(wl.n_apps):
                sl = wl.thread_slice(app_index)
                assign_app_to_tiles(
                    perm, sl, wl.cache_rates, wl.mem_rates,
                    perm[sl].copy(), instance.tc, instance.tm,
                )
            if config.rebalance_after_polish and config.swap_passes > 0:
                perm, tried, accepted = _swap_phase(
                    instance, perm, replace(config, swap_passes=1), tc_order
                )
                windows_tried += tried
                windows_accepted += accepted
    elapsed = time.perf_counter() - t0

    if reqtrace.is_active():
        reqtrace.count(
            "sss_swap_windows_total", windows_accepted,
            "swap windows where a non-identity permutation won", outcome="accepted",
        )
        reqtrace.count(
            "sss_swap_windows_total", windows_tried - windows_accepted,
            "swap windows where a non-identity permutation won", outcome="rejected",
        )

    mapping = Mapping(perm)
    return MappingResult(
        algorithm="SSS",
        mapping=mapping,
        evaluation=instance.evaluate(mapping),
        runtime_seconds=elapsed,
        extra={
            "config": config,
            "select_eval": select_eval,
            "swap_eval": swap_eval,
            "swap_windows": {"tried": windows_tried, "accepted": windows_accepted},
        },
    )


def select_only_mapping(
    instance: OBMInstance, config: SSSConfig | None = None, seed=None
) -> MappingResult:
    """The sort+select stages alone (coarse tuning) — an ablation baseline."""
    config = config or SSSConfig()
    rng = as_rng(seed)
    t0 = time.perf_counter()
    perm = _select_phase(instance, config, rng)
    elapsed = time.perf_counter() - t0
    mapping = Mapping(perm)
    return MappingResult(
        algorithm="SSS/select-only",
        mapping=mapping,
        evaluation=instance.evaluate(mapping),
        runtime_seconds=elapsed,
        extra={"config": config},
    )
