"""Determinism of the parallel experiment runner.

The contract of :mod:`repro.experiments.parallel` is that ``workers=N``
is purely a wall-clock knob: every harness that accepts it must produce
byte-for-byte identical results for any worker count.  These tests pin
that contract at every integration point — the raw ``parallel_map``, the
figure harnesses, the artifact writer, and ``multi_start_sss``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.latency import Mesh, MeshLatencyModel
from repro.core.problem import OBMInstance
from repro.core.sss import multi_start_sss
from repro.core.workload import Application, Workload
from repro.experiments.artifacts import write_artifacts
from repro.experiments.figures import fig9
from repro.experiments.parallel import parallel_map, resolve_workers, supports_workers


def _square(x: int) -> int:  # module-level: picklable for worker processes
    return x * x


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("cell three always fails")
    return x + 1


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cell_error_propagates(self, workers):
        with pytest.raises(ValueError, match="cell three"):
            parallel_map(_fail_on_three, [1, 2, 3, 4], workers=workers)


class TestWorkerKnobs:
    def test_resolve_workers_passthrough_and_zero(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1  # one per CPU

    def test_resolve_workers_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)

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
