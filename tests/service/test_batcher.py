"""Concurrency suite for the simulation micro-batcher (ISSUE satellite).

Covers the three contract points: concurrent requests coalesce into one
``run_batch`` call with results identical to serial runs; group keys
keep incompatible requests apart; a wedged worker trips the supervision
policy without stalling unrelated requests.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.latency import LatencyParams, Mesh, MeshLatencyModel
from repro.core.problem import OBMInstance
from repro.core.registry import ALGORITHMS
from repro.core.workload import Application, Workload
from repro.noc.simulator import NoCSimulator
from repro.noc.traffic import MappedWorkloadTraffic
from repro.obs.metrics import MetricsRegistry
from repro.service.batcher import SimulationBatcher
from repro.service.workers import WorkerPool


def run(coro):
    return asyncio.run(coro)


class FakeMesh:
    rows, cols = 4, 4


def recording_runner(record):
    """A runner that logs batch compositions and returns marker results."""

    def runner(mesh, traffics, *, warmup, measure):
        record.append(list(traffics))
        return [("result", t) for t in traffics]

    return runner


class TestCoalescing:
    def make(self, record, **kw):
        pool = WorkerPool(2)
        kw.setdefault("window", 0.02)
        return SimulationBatcher(pool, runner=recording_runner(record), **kw)

    def test_concurrent_requests_share_one_batch(self):
        record = []
        batcher = self.make(record)

        async def scenario():
            return await asyncio.gather(
                *[
                    batcher.submit(FakeMesh, f"t{i}", warmup=10, measure=50)
                    for i in range(6)
                ]
            )

        results = run(scenario())
        assert len(record) == 1 and len(record[0]) == 6
        # Each requester got the result of ITS traffic, in submit order.
        assert results == [("result", f"t{i}") for i in range(6)]
        assert batcher.batches_run == 1
        assert batcher.requests_batched == 6

    def test_max_batch_flushes_early(self):
        record = []
        batcher = self.make(record, max_batch=2, window=5.0)  # window never fires

        async def scenario():
            tasks = [
                asyncio.ensure_future(batcher.submit(FakeMesh, i, warmup=1, measure=1))
                for i in range(5)
            ]
            await asyncio.sleep(0.01)
            await batcher.drain()
            return await asyncio.gather(*tasks)

        results = run(scenario())
        assert [len(b) for b in record] == [2, 2, 1]
        assert results == [("result", i) for i in range(5)]

    def test_incompatible_requests_never_share_a_batch(self):
        """Different warmup/measure (or mesh) are distinct run_batch groups."""
        record = []
        batcher = self.make(record)

        class OtherMesh:
            rows, cols = 2, 8

        async def scenario():
            await asyncio.gather(
                batcher.submit(FakeMesh, "a", warmup=10, measure=50),
                batcher.submit(FakeMesh, "b", warmup=10, measure=99),
                batcher.submit(OtherMesh, "c", warmup=10, measure=50),
                batcher.submit(FakeMesh, "d", warmup=10, measure=50),
            )

        run(scenario())
        groups = sorted(tuple(b) for b in record)
        assert groups == [("a", "d"), ("b",), ("c",)]

    def test_cancelled_requests_are_dropped_at_flush(self):
        record = []
        batcher = self.make(record, window=0.02)

        async def scenario():
            keep = asyncio.ensure_future(
                batcher.submit(FakeMesh, "keep", warmup=1, measure=2)
            )
            drop = asyncio.ensure_future(
                batcher.submit(FakeMesh, "drop", warmup=1, measure=2)
            )
            await asyncio.sleep(0)  # both enqueued
            drop.cancel()
            result = await keep
            with pytest.raises(asyncio.CancelledError):
                await drop
            return result

        assert run(scenario()) == ("result", "keep")
        assert record == [["keep"]]

    def test_batch_occupancy_metric_is_observed(self):
        registry = MetricsRegistry()
        record = []
        pool = WorkerPool(2)
        batcher = SimulationBatcher(
            pool, window=0.02, registry=registry, runner=recording_runner(record)
        )

        async def scenario():
            await asyncio.gather(
                *[batcher.submit(FakeMesh, i, warmup=1, measure=1) for i in range(3)]
            )

        run(scenario())
        hist = registry.histogram(
            "serve_batch_occupancy", bounds=(1, 2, 4, 8, 16, 32, 64, 128)
        )
        assert hist.total == 1 and hist.sum == 3.0


class TestSupervision:
    def test_wedged_runner_times_out_without_stalling_others(self):
        """A wedged batch answers its members with a timeout; other batches run."""
        release = threading.Event()
        record = []

        def runner(mesh, traffics, *, warmup, measure):
            if "wedge" in traffics:
                release.wait(5)
            record.append(list(traffics))
            return [("ok", t) for t in traffics]

        pool = WorkerPool(2, timeout=0.1)
        batcher = SimulationBatcher(pool, window=0.005, runner=runner)

        async def scenario():
            wedge = asyncio.ensure_future(
                batcher.submit(FakeMesh, "wedge", warmup=1, measure=1)
            )
            await asyncio.sleep(0.02)  # let the wedged batch flush alone
            healthy = await batcher.submit(FakeMesh, "fine", warmup=9, measure=9)
            with pytest.raises(asyncio.TimeoutError):
                await wedge
            # The wedged batch's slot was reclaimed: later batches still run.
            later = await batcher.submit(FakeMesh, "later", warmup=9, measure=9)
            return healthy, later

        try:
            assert run(scenario()) == (("ok", "fine"), ("ok", "later"))
        finally:
            release.set()
        assert pool.report.pool_replacements >= 1
        assert ["fine"] in record

    def test_runner_error_is_relayed_to_every_member(self):
        def runner(mesh, traffics, *, warmup, measure):
            raise RuntimeError("engine exploded")

        pool = WorkerPool(1)
        batcher = SimulationBatcher(pool, window=0.005, runner=runner)

        async def scenario():
            futures = [
                asyncio.ensure_future(batcher.submit(FakeMesh, i, warmup=1, measure=1))
                for i in range(3)
            ]
            results = await asyncio.gather(*futures, return_exceptions=True)
            assert all(isinstance(r, RuntimeError) for r in results)

        run(scenario())


class TestBitIdenticalToSerial:
    """Concurrent batched simulation == serial single simulation, bytes-out."""

    def make_traffic(self, seed: int):
        model = MeshLatencyModel(Mesh.square(4), LatencyParams())
        # rates high enough that a short measure window delivers packets
        apps = (
            Application("a", [40.0, 30.0, 20.0], [12.0, 8.0, 4.0]),
            Application("b", [24.0, 16.0], [6.0, 2.0]),
        )
        instance = OBMInstance(model, Workload(apps, name=f"w{seed}"))
        mapping = ALGORITHMS["sss"](instance).mapping
        return instance, mapping

    def test_concurrent_clients_get_serial_results(self):
        instance, mapping = self.make_traffic(0)
        seeds = [0, 1, 2, 3]
        pool = WorkerPool(2)
        batcher = SimulationBatcher(pool, window=0.05)

        async def scenario():
            return await asyncio.gather(
                *[
                    batcher.submit(
                        instance.mesh,
                        MappedWorkloadTraffic(instance, mapping, seed=s),
                        warmup=50,
                        measure=200,
                    )
                    for s in seeds
                ]
            )

        batched = run(scenario())
        assert batcher.batches_run == 1  # they really shared one run_batch

        for seed, result in zip(seeds, batched):
            serial = NoCSimulator(
                instance.mesh,
                MappedWorkloadTraffic(instance, mapping, seed=seed),
                engine="vector",
            ).run(warmup=50, measure=200)
            from repro.service.app import measured_payload

            assert measured_payload(result) == measured_payload(serial)
            assert result.counts == serial.counts
