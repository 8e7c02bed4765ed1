"""Determinism of the parallel experiment runner.

The contract of :mod:`repro.experiments.parallel` is that ``workers=N``
is purely a wall-clock knob: every harness that accepts it must produce
byte-for-byte identical results for any worker count.  These tests pin
that contract at every integration point — the raw ``parallel_map``, the
figure harnesses, the artifact writer, and ``multi_start_sss``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, wait

import numpy as np
import pytest

from repro.core.latency import Mesh, MeshLatencyModel
from repro.core.problem import OBMInstance
from repro.core.sss import multi_start_sss
from repro.core.workload import Application, Workload
from repro.experiments.artifacts import write_artifacts
from repro.experiments.figures import fig9
from repro.experiments.parallel import (
    MAX_POOL_REPLACEMENTS,
    CellFailure,
    cell_seeds,
    parallel_map,
    resolve_workers,
    supports_kwarg,
    supports_workers,
)
from repro.experiments.resilience import (
    FailureBudgetExceeded,
    RunInterrupted,
    RunLedger,
    RunReport,
    backoff_delays,
    resolve_backoff,
)


def _square(x: int) -> int:  # module-level: picklable for worker processes
    return x * x


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("cell three always fails")
    return x + 1


def _wedge_on_two(x: int) -> int:
    if x == 2:
        time.sleep(60)  # far beyond any test timeout; the pool is replaced
    return x * 10


def _crash_on_one(x: int) -> int:
    if x == 1:
        # Let the healthy worker drain the other cells first: a pool
        # crash marks every in-flight future broken, so dying instantly
        # races against innocent cells' results reaching the parent.
        time.sleep(0.3)
        os._exit(13)  # hard worker death -> BrokenProcessPool upstream
    return x


def _timed_square(x: int) -> int:
    from repro.obs import reqtrace

    with reqtrace.span("cell.compute"):
        return x * x


def _small_instance() -> OBMInstance:
    rng = np.random.default_rng(7)
    model = MeshLatencyModel(Mesh.square(4))
    apps = tuple(
        Application(f"a{i}", rng.uniform(1, 5, 4), rng.uniform(0.1, 0.5, 4))
        for i in range(4)
    )
    return OBMInstance(model, Workload(apps))


class TestParallelMap:
    def test_serial_is_plain_map(self):
        assert parallel_map(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_parallel_preserves_input_order(self):
        cells = list(range(10))
        assert parallel_map(_square, cells, workers=4) == [c * c for c in cells]

    def test_parallel_matches_serial(self):
        cells = [5, 3, 8, 1]
        assert parallel_map(_square, cells, workers=2) == parallel_map(
            _square, cells, workers=1
        )

    def test_empty_and_single_cell(self):
        assert parallel_map(_square, [], workers=4) == []
        assert parallel_map(_square, [6], workers=4) == [36]


class TestFailureHandling:
    def test_exhausted_retries_raise_cell_failure(self):
        with pytest.raises(CellFailure) as excinfo:
            parallel_map(_fail_on_three, [1, 2, 3], workers=2, retries=1)
        assert excinfo.value.index == 2
        assert excinfo.value.cell == 3
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.cause, ValueError)

    def test_on_failure_none_keeps_remaining_cells(self):
        out = parallel_map(
            _fail_on_three, [1, 2, 3, 4], workers=2, on_failure="none"
        )
        assert out == [2, 3, None, 5]

    def test_serial_path_retries_transient_failures(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return x

        assert parallel_map(flaky, [7], workers=1, retries=5) == [7]
        assert calls["n"] == 3

    def test_serial_failure_semantics_match_parallel(self):
        for workers in (1, 2):
            with pytest.raises(CellFailure):
                parallel_map(_fail_on_three, [3, 3], workers=workers)
            assert parallel_map(
                _fail_on_three, [1, 3], workers=workers, on_failure="none"
            ) == [2, None]

    def test_timeout_recovers_other_cells(self):
        out = parallel_map(
            _wedge_on_two, [0, 1, 2, 3], workers=2, timeout=2, on_failure="none"
        )
        assert out == [0, 10, None, 30]

    def test_broken_pool_is_replaced(self):
        out = parallel_map(
            _crash_on_one,
            [0, 1, 2, 3],
            workers=2,
            timeout=30,
            retries=1,
            on_failure="none",
        )
        assert out[0] == 0 and out[2] == 2 and out[3] == 3
        assert out[1] is None  # crashes deterministically on every attempt

    def test_env_fallbacks(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "2")
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return x

        assert parallel_map(flaky, [1], workers=1) == [1]
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "-1")
        with pytest.raises(ValueError):
            parallel_map(_square, [1, 2], workers=2)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1], timeout=0)
        with pytest.raises(ValueError):
            parallel_map(_square, [1], retries=-1)
        with pytest.raises(ValueError):
            parallel_map(_square, [1], on_failure="explode")


class TestWorkerKnobs:
    def test_resolve_workers_passthrough_and_zero(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1  # one per CPU

    def test_resolve_workers_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None) == 1

    def test_resolve_workers_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_cell_seeds_stable_and_order_independent(self):
        seeds = cell_seeds("fig9", ["C1", "C2", "C3"])
        assert seeds == cell_seeds("fig9", ["C1", "C2", "C3"])
        assert len(set(seeds)) == 3
        # A cell's seed does not depend on which other cells run.
        assert cell_seeds("fig9", ["C2"])[0] == seeds[1]
        # ...but does depend on the tag.
        assert cell_seeds("fig10", ["C1"])[0] != seeds[0]

    def test_supports_workers_detection(self):
        assert supports_workers(fig9)
        assert not supports_workers(_square)
        assert not supports_workers(lambda fast=False: None)


class TestOnResult:
    def test_serial_reports_in_order(self):
        seen = []
        out = parallel_map(
            _square, [4, 2, 3], workers=1, on_result=lambda i, r: seen.append((i, r))
        )
        assert out == [16, 4, 9]
        assert seen == [(0, 16), (1, 4), (2, 9)]

    def test_parallel_reports_every_cell_in_order(self):
        seen = []
        cells = list(range(8))
        out = parallel_map(
            _square, cells, workers=4, on_result=lambda i, r: seen.append((i, r))
        )
        assert out == [c * c for c in cells]
        assert seen == [(i, c * c) for i, c in enumerate(cells)]

    def test_failed_cell_reports_none(self):
        seen = []
        out = parallel_map(
            _fail_on_three,
            [1, 3, 5],
            workers=1,
            on_failure="none",
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert out == [2, None, 6]
        assert seen == [(0, 2), (1, None), (2, 6)]


class TestWorkerProfiling:
    """Spans timed inside worker processes reach the parent's trace."""

    @staticmethod
    def _calls(spans) -> dict[str, int]:
        from repro.obs import reqtrace

        return {name: e["calls"] for name, e in reqtrace.span_summary(spans).items()}

    def test_worker_phases_merged_into_parent(self):
        from repro.obs import reqtrace

        with reqtrace.profiled("run") as pooled:
            out = parallel_map(_timed_square, [2, 3, 4, 5], workers=2)
        with reqtrace.profiled("run") as serial:
            parallel_map(_timed_square, [2, 3, 4, 5], workers=1)
        assert out == [4, 9, 16, 25]
        assert self._calls(pooled) == self._calls(serial) == {
            "run": 1, "parallel.cell": 4, "cell.compute": 4,
        }
        assert reqtrace.span_summary(pooled)["cell.compute"]["seconds"] >= 0.0

    def test_results_identical_with_profiling_enabled(self):
        from repro.obs import reqtrace

        with reqtrace.profiled("run"):
            fanned = parallel_map(_timed_square, [1, 2, 3], workers=2)
        assert fanned == parallel_map(_timed_square, [1, 2, 3], workers=1)

    def test_profiled_on_result_sees_unwrapped_values(self):
        from repro.obs import reqtrace

        seen = []
        with reqtrace.profiled("run"):
            parallel_map(
                _timed_square,
                [2, 3],
                workers=2,
                on_result=lambda i, r: seen.append((i, r)),
            )
        assert seen == [(0, 4), (1, 9)]

    def test_disabled_profiler_stays_empty(self, monkeypatch):
        from repro.experiments import parallel

        wrapped = []
        monkeypatch.setattr(
            parallel, "_TracedCell", lambda fn: wrapped.append(fn) or fn
        )
        assert parallel_map(_timed_square, [2, 3], workers=2) == [4, 9]
        assert wrapped == []


def _always_fail(x: int) -> int:
    raise RuntimeError(f"cell {x} is doomed")


def _crash_unless_parent(cell):
    # (x, parent_pid): dies in any pool worker, succeeds in the parent —
    # the degraded-serial path is the only way this ever completes.
    x, parent_pid = cell
    if os.getpid() != parent_pid:
        os._exit(13)
    return x * 3


class _SerialisedPool(ProcessPoolExecutor):
    # Lets each submitted cell finish before the next submission, so a
    # worker crash always lands while cells are still being submitted.
    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        wait([future], timeout=30)
        return future


class TestBackoff:
    def test_fake_clock_records_deterministic_delays(self):
        sleeps: list[float] = []
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return x

        report = RunReport()
        out = parallel_map(
            flaky, [9], workers=1, retries=5,
            backoff=(1.0, 4.0), sleep=sleeps.append, report=report,
        )
        assert out == [9]
        # Attempt 1 waits base*jitter in [0.5, 1.0); attempt 2 doubles.
        assert len(sleeps) == 2
        assert 0.5 <= sleeps[0] < 1.0
        assert 1.0 <= sleeps[1] < 2.0
        assert report.retries == 2
        assert report.backoff_seconds == pytest.approx(sum(sleeps))
        # Seeded jitter: the same (cell, attempt) always waits the same.
        rerun: list[float] = []
        calls["n"] = 0
        parallel_map(
            flaky, [9], workers=1, retries=5, backoff=(1.0, 4.0), sleep=rerun.append
        )
        assert rerun == sleeps

    def test_delays_cap_and_disable(self):
        for attempt in range(1, 12):
            assert backoff_delays(0, attempt, (0.1, 2.0)) <= 2.0
        assert backoff_delays(0, 5, (0.0, 2.0)) == 0.0
        assert backoff_delays(3, 1, (1.0, 8.0)) != backoff_delays(4, 1, (1.0, 8.0))

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.5:8")
        assert resolve_backoff(None) == (0.5, 8.0)
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        assert resolve_backoff(None)[0] == 0.0
        sleeps: list[float] = []
        parallel_map(
            _fail_on_three, [3], workers=1, retries=2,
            on_failure="none", sleep=sleeps.append,
        )
        assert sleeps == []  # disabled: retries happen but never sleep
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "junk")
        with pytest.raises(ValueError):
            resolve_backoff(None)
        with pytest.raises(ValueError):
            resolve_backoff((2.0, 1.0))  # cap below base


class TestSupervision:
    def test_failure_budget_aborts_run(self):
        with pytest.raises(FailureBudgetExceeded) as excinfo:
            parallel_map(
                _always_fail, [1, 2, 3], workers=1, retries=2,
                on_failure="none", failure_budget=4, backoff=0,
            )
        assert excinfo.value.budget == 4
        assert excinfo.value.causes  # carries the recent causes

    def test_failure_budget_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAILURE_BUDGET", "1")
        with pytest.raises(FailureBudgetExceeded):
            parallel_map(
                _always_fail, [1, 2], workers=1, retries=3,
                on_failure="none", backoff=0,
            )

    def test_degrades_to_serial_after_pool_replacements(self):
        cells = [(i, os.getpid()) for i in range(6)]
        report = RunReport()
        out = parallel_map(
            _crash_unless_parent, cells, workers=2, timeout=30,
            retries=2 * MAX_POOL_REPLACEMENTS + 6, backoff=0, report=report,
        )
        assert out == [i * 3 for i in range(6)]
        assert report.degraded_serial
        assert report.pool_replacements > MAX_POOL_REPLACEMENTS

    def test_crash_during_submission_replaces_pool(self, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.parallel.ProcessPoolExecutor", _SerialisedPool
        )
        cells = [(i, os.getpid()) for i in range(4)]
        report = RunReport()
        out = parallel_map(
            _crash_unless_parent, cells, workers=2, timeout=30,
            retries=2 * MAX_POOL_REPLACEMENTS + 6, backoff=0, report=report,
        )
        assert out == [i * 3 for i in range(4)]
        assert report.degraded_serial

    def test_report_accounts_cells(self):
        report = RunReport()
        parallel_map(_square, [1, 2, 3], workers=1, report=report)
        assert report.cells_total == 3
        assert report.cells_computed == 3
        assert report.cells_resumed == 0
        assert "3/3 cells computed" in report.summary()

    def test_supports_kwarg_detection(self):
        assert supports_kwarg(fig9, "ledger")
        assert supports_kwarg(fig9, "max_cells")
        assert not supports_kwarg(_square, "ledger")
        assert not supports_kwarg(lambda **kw: None, "ledger")


class TestLedgerResume:
    def _ledger(self, tmp_path, **kw):
        kw.setdefault("experiment", "t")
        kw.setdefault("fingerprint", "abc123")
        return RunLedger(tmp_path / "t.jsonl", **kw)

    def test_second_run_resumes_without_recompute(self, tmp_path):
        with self._ledger(tmp_path) as ledger:
            first = parallel_map(
                _square, [2, 3], workers=1, ledger=ledger, cell_keys=["a", "b"]
            )
        assert first == [4, 9]
        report = RunReport()
        with self._ledger(tmp_path) as ledger:
            second = parallel_map(
                _always_fail,  # would raise if any cell actually ran
                [2, 3],
                workers=1,
                ledger=ledger,
                cell_keys=["a", "b"],
                report=report,
            )
        assert second == first
        assert report.cells_resumed == 2
        assert report.cells_computed == 0

    def test_max_cells_interrupts_and_journals(self, tmp_path):
        with self._ledger(tmp_path) as ledger:
            with pytest.raises(RunInterrupted) as excinfo:
                parallel_map(
                    _square, [1, 2, 3, 4], workers=1,
                    ledger=ledger, cell_keys=list("wxyz"), max_cells=2,
                )
        assert excinfo.value.completed == 2
        assert excinfo.value.total == 4
        with self._ledger(tmp_path) as ledger:
            assert len(ledger) == 2
            out = parallel_map(
                _square, [1, 2, 3, 4], workers=1, ledger=ledger, cell_keys=list("wxyz")
            )
        assert out == [1, 4, 9, 16]

    def test_ledger_requires_sane_keys(self, tmp_path):
        with self._ledger(tmp_path) as ledger:
            with pytest.raises(ValueError):
                parallel_map(_square, [1, 2], ledger=ledger)
            with pytest.raises(ValueError):
                parallel_map(_square, [1, 2], ledger=ledger, cell_keys=["a"])
            with pytest.raises(ValueError):
                parallel_map(_square, [1, 2], ledger=ledger, cell_keys=["a", "a"])

    def test_parallel_run_journals_like_serial(self, tmp_path):
        cells = list(range(6))
        keys = [f"k{i}" for i in cells]
        with RunLedger(tmp_path / "p.jsonl", experiment="t", fingerprint="f") as led:
            parallel_map(_square, cells, workers=3, ledger=led, cell_keys=keys)
        with RunLedger(tmp_path / "s.jsonl", experiment="t", fingerprint="f") as led:
            parallel_map(_square, cells, workers=1, ledger=led, cell_keys=keys)
        # Same entries either way (order may differ: pool completion order).
        read = lambda p: sorted((p.read_text()).splitlines()[1:])
        assert read(tmp_path / "p.jsonl") == read(tmp_path / "s.jsonl")


class TestHarnessDeterminism:
    def test_fig9_workers_identical(self):
        serial = fig9(fast=True)
        fanned = fig9(fast=True, workers=4)
        assert fanned.data == serial.data
        assert fanned.text == serial.text

    def test_artifacts_byte_identical(self, tmp_path):
        write_artifacts(tmp_path / "serial", ["fig9"], fast=True, workers=1)
        write_artifacts(tmp_path / "fanned", ["fig9"], fast=True, workers=2)
        for name in ("fig9.json", "fig9.txt", "INDEX.txt"):
            assert (tmp_path / "fanned" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes()

    def test_multi_start_sss_workers_identical(self):
        instance = _small_instance()
        serial = multi_start_sss(instance, n_starts=4, seed=3)
        fanned = multi_start_sss(instance, n_starts=4, seed=3, workers=4)
        assert np.array_equal(fanned.mapping.perm, serial.mapping.perm)
        assert fanned.max_apl == serial.max_apl
        assert fanned.evaluation.apls == pytest.approx(serial.evaluation.apls)
