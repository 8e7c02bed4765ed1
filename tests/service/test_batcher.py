"""Concurrency suite for the group-commit simulation batcher.

Covers the contract points: concurrent requests coalesce into one
``run_batch`` call with results identical to serial runs; a group
dispatches at once when no batch of it is running, and requests that
queue behind a running batch go out together when it finishes; group
keys keep incompatible requests apart; a wedged worker trips the
supervision policy without stalling unrelated requests.
"""

from __future__ import annotations

import asyncio
import threading
from collections import Counter

import pytest

from repro.core.latency import LatencyParams, Mesh, MeshLatencyModel
from repro.core.problem import OBMInstance
from repro.core.registry import ALGORITHMS
from repro.core.workload import Application, Workload
from repro.noc.simulator import NoCSimulator
from repro.noc.traffic import MappedWorkloadTraffic
from repro.obs.metrics import MetricsRegistry
from repro.obs.reqtrace import SpanTracer
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


def held_runner(record, entered, release):
    """A recording runner that holds any batch containing ``"hold"``."""

    recording = recording_runner(record)

    def runner(mesh, traffics, *, warmup, measure):
        if "hold" in traffics:
            entered.set()
            assert release.wait(10), "held batch was never released"
        return recording(mesh, traffics, warmup=warmup, measure=measure)

    return runner


async def wait_entered(entered: threading.Event) -> None:
    assert await asyncio.to_thread(entered.wait, 10), "runner never started"


class TestCoalescing:
    def make(self, record, **kw):
        pool = WorkerPool(2)
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
        batcher = self.make(record)

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
            pool, registry=registry, runner=recording_runner(record)
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


class TestGroupCommit:
    """Dispatch at once when the group is idle; queue behind a running batch."""

    def make(self, record, entered, release, **kw):
        return SimulationBatcher(
            WorkerPool(2), runner=held_runner(record, entered, release), **kw
        )

    @staticmethod
    def forbid_timers(monkeypatch):
        def no_timer(*args, **kwargs):
            raise AssertionError("the batcher must not arm a timer")

        loop = asyncio.get_running_loop()
        monkeypatch.setattr(loop, "call_later", no_timer)
        monkeypatch.setattr(loop, "call_at", no_timer)

    def test_lone_submit_reaches_the_runner_without_a_timer(self, monkeypatch):
        record = []
        batcher = SimulationBatcher(WorkerPool(2), runner=recording_runner(record))

        async def scenario():
            self.forbid_timers(monkeypatch)
            return await batcher.submit(FakeMesh, "solo", warmup=1, measure=1)

        assert run(scenario()) == ("result", "solo")
        assert record == [["solo"]]

    def test_queue_behind_a_running_batch_splits_at_max_batch(self):
        record, entered, release = [], threading.Event(), threading.Event()
        batcher = self.make(record, entered, release, max_batch=2)

        async def scenario():
            first = asyncio.ensure_future(
                batcher.submit(FakeMesh, "hold", warmup=1, measure=1)
            )
            await wait_entered(entered)
            rest = [
                asyncio.ensure_future(batcher.submit(FakeMesh, i, warmup=1, measure=1))
                for i in range(5)
            ]
            await asyncio.sleep(0)  # all five queued behind the held batch
            release.set()
            return await asyncio.gather(first, *rest)

        results = run(scenario())
        assert [len(b) for b in record] == [1, 2, 2, 1]
        assert record[1:] == [[0, 1], [2, 3], [4]]
        assert results == [("result", "hold")] + [("result", i) for i in range(5)]

    def test_running_group_does_not_delay_another_group(self):
        record, entered, release = [], threading.Event(), threading.Event()
        batcher = self.make(record, entered, release)

        async def scenario():
            held = asyncio.ensure_future(
                batcher.submit(FakeMesh, "hold", warmup=1, measure=1)
            )
            await wait_entered(entered)
            other = await batcher.submit(FakeMesh, "other", warmup=1, measure=2)
            assert not held.done()
            release.set()
            return other, await held

        try:
            assert run(scenario()) == (("result", "other"), ("result", "hold"))
        finally:
            release.set()
        assert record == [["other"], ["hold"]]

    def test_no_batch_waits_while_the_engine_is_idle(self, monkeypatch):
        """A finished batch dispatches the queue behind it with no timer,
        no further submit and no drain."""
        record, entered, release = [], threading.Event(), threading.Event()
        batcher = self.make(record, entered, release)

        async def scenario():
            self.forbid_timers(monkeypatch)
            first = asyncio.ensure_future(
                batcher.submit(FakeMesh, "hold", warmup=1, measure=1)
            )
            await wait_entered(entered)
            queued = [
                asyncio.ensure_future(batcher.submit(FakeMesh, t, warmup=1, measure=1))
                for t in ("b", "c")
            ]
            await asyncio.sleep(0)
            assert record == []  # b and c wait behind the running batch
            release.set()
            return await asyncio.gather(first, *queued)

        assert run(scenario()) == [("result", t) for t in ("hold", "b", "c")]
        assert record == [["hold"], ["b", "c"]]
        assert batcher.batches_run == 2

    def test_follow_on_batch_runs_under_its_first_member(self):
        """The engine span of a batch that the previous batch's completion
        dispatched nests under its own first member's batch.enqueue."""
        record, entered, release = [], threading.Event(), threading.Event()
        batcher = self.make(record, entered, release)
        tracer = SpanTracer(clock="logical")
        traces = {}

        async def request(name):
            with tracer.trace() as ctx:
                traces[name] = ctx
                return await batcher.submit(FakeMesh, name, warmup=1, measure=1)

        async def scenario():
            a = asyncio.ensure_future(request("hold"))
            await wait_entered(entered)
            queued = [asyncio.ensure_future(request(t)) for t in ("b", "c")]
            await asyncio.sleep(0)
            release.set()
            await asyncio.gather(a, *queued)

        run(scenario())
        a, b, c = traces["hold"], traces["b"], traces["c"]

        def named(ctx, name):
            return [s for s in ctx.spans if s["name"] == name]

        [a_engine] = named(a, "engine.run_batch")
        assert a_engine["attrs"]["coalesced"] == [a.trace_id]
        [engine] = named(b, "engine.run_batch")
        assert engine["attrs"]["coalesced"] == [b.trace_id, c.trace_id]
        [b_enqueue] = named(b, "batch.enqueue")
        assert engine["parent_span"] == b_enqueue["span_id"]
        assert named(c, "engine.run_batch") == []

    def test_drain_waits_for_the_queue_without_overlapping_batches(self):
        record, entered, release = [], threading.Event(), threading.Event()
        lock = threading.Lock()
        running, overlap = Counter(), []
        held = held_runner(record, entered, release)

        def runner(mesh, traffics, *, warmup, measure):
            with lock:
                running[warmup] += 1
                overlap.append(running[warmup] > 1)
            try:
                return held(mesh, traffics, warmup=warmup, measure=measure)
            finally:
                with lock:
                    running[warmup] -= 1

        batcher = SimulationBatcher(WorkerPool(4), runner=runner, max_batch=2)

        async def scenario():
            tasks = [
                asyncio.ensure_future(batcher.submit(FakeMesh, "hold", warmup=1, measure=1))
            ]
            await wait_entered(entered)
            tasks += [
                asyncio.ensure_future(batcher.submit(FakeMesh, i, warmup=1, measure=1))
                for i in range(3)
            ]
            await asyncio.sleep(0)  # queued behind the held batch
            drain = asyncio.ensure_future(batcher.drain())
            await asyncio.sleep(0.05)
            assert not drain.done()
            assert record == []  # drain did not start a second batch beside it
            release.set()
            await drain
            assert all(t.done() for t in tasks)
            return [t.result() for t in tasks]

        results = run(scenario())
        assert results == [("result", "hold")] + [("result", i) for i in range(3)]
        assert record == [["hold"], [0, 1], [2]]
        assert overlap and not any(overlap)


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
        batcher = SimulationBatcher(pool, runner=runner)

        async def scenario():
            wedge = asyncio.ensure_future(
                batcher.submit(FakeMesh, "wedge", warmup=1, measure=1)
            )
            await asyncio.sleep(0.02)  # let the wedged batch start alone
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
        batcher = SimulationBatcher(pool, runner=runner)

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
        batcher = SimulationBatcher(pool)

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
