"""The request-span tracer: propagation, determinism, bounded buffers."""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading

import pytest

from repro.obs.exporters import chrome_trace_events
from repro.obs.metrics import MetricsRegistry
from repro.obs.reqtrace import NOOP_SPAN, SpanTracer
from repro.obs import reqtrace
from repro.obs.traceio import (
    TraceFile,
    format_span_tree,
    spans_by_trace,
    trace_file_kind,
    validate_trace,
)


def trace_file(tracer: SpanTracer) -> TraceFile:
    return TraceFile(
        header=tracer.header(),
        events=list(tracer.events()),
        footer=tracer.footer(),
    )


class TestDisabledPath:
    def test_span_outside_a_trace_is_the_shared_noop(self):
        s = reqtrace.span("anything", key="value")
        assert s is NOOP_SPAN
        with s as entered:
            assert entered is NOOP_SPAN
            entered.set(more="attrs")  # must not raise

    def test_helpers_are_noops_outside_a_trace(self):
        assert not reqtrace.is_active()
        assert reqtrace.current_trace_id() is None
        reqtrace.annotate(k=1)
        reqtrace.count("some_counter", 3)
        reqtrace.observe("some_histogram", 0.5)


class TestSpanNesting:
    def test_children_parent_under_the_enclosing_span(self):
        tracer = SpanTracer(clock="logical")
        with tracer.trace("serve.request") as ctx:
            with reqtrace.span("outer"):
                with reqtrace.span("inner"):
                    pass
            with reqtrace.span("sibling"):
                pass
        spans = {s["name"]: s for s in ctx.spans}
        root = spans["serve.request"]
        assert root["parent_span"] == -1
        assert spans["outer"]["parent_span"] == root["span_id"]
        assert spans["inner"]["parent_span"] == spans["outer"]["span_id"]
        assert spans["sibling"]["parent_span"] == root["span_id"]

    def test_exception_is_recorded_and_propagates(self):
        tracer = SpanTracer(clock="logical")
        with pytest.raises(RuntimeError):
            with tracer.trace("serve.request") as ctx:
                with reqtrace.span("failing"):
                    raise RuntimeError("boom")
        spans = {s["name"]: s for s in ctx.spans}
        assert spans["failing"]["attrs"]["error"] == "RuntimeError"
        assert spans["serve.request"]["attrs"]["error"] == "RuntimeError"

    def test_annotate_lands_on_the_context(self):
        tracer = SpanTracer(clock="logical")
        with tracer.trace("serve.request") as ctx:
            reqtrace.annotate(cache="hit")
        assert ctx.root_attrs["cache"] == "hit"

    def test_set_attaches_attributes_visible_in_the_event(self):
        tracer = SpanTracer(clock="logical")
        with tracer.trace() as ctx:
            with reqtrace.span("phase") as s:
                s.set(windows=7)
        spans = {s["name"]: s for s in ctx.spans}
        assert spans["phase"]["attrs"] == {"windows": 7}


class TestPropagation:
    def test_spans_nest_across_asyncio_create_task(self):
        tracer = SpanTracer(clock="logical")

        async def child() -> None:
            with reqtrace.span("task.child"):
                await asyncio.sleep(0)

        async def scenario() -> None:
            with tracer.trace("serve.request"):
                with reqtrace.span("spawner"):
                    task = asyncio.get_running_loop().create_task(child())
                await task

        asyncio.run(scenario())
        spans = {
            s["name"]: s for g in spans_by_trace(trace_file(tracer)).values() for s in g
        }
        assert spans["task.child"]["parent_span"] == spans["spawner"]["span_id"]

    def test_spans_nest_into_worker_threads_via_copied_context(self):
        tracer = SpanTracer(clock="logical")

        def worker() -> None:
            with reqtrace.span("thread.work"):
                pass

        with tracer.trace("serve.request") as ctx:
            with reqtrace.span("dispatch"):
                call_ctx = contextvars.copy_context()
                thread = threading.Thread(target=call_ctx.run, args=(worker,))
                thread.start()
                thread.join()
        spans = {s["name"]: s for s in ctx.spans}
        assert spans["thread.work"]["parent_span"] == spans["dispatch"]["span_id"]

    def test_concurrent_traces_keep_separate_identities(self):
        tracer = SpanTracer(clock="logical")

        async def request(tag: str) -> None:
            with tracer.trace("serve.request", tag=tag):
                with reqtrace.span("inner", tag=tag):
                    await asyncio.sleep(0)

        async def scenario() -> None:
            await asyncio.gather(request("a"), request("b"), request("c"))

        asyncio.run(scenario())
        groups = spans_by_trace(trace_file(tracer))
        assert sorted(groups) == [0, 1, 2]
        for spans in groups.values():
            tags = {s["attrs"]["tag"] for s in spans}
            assert len(tags) == 1  # no cross-trace bleed


class TestDeterminism:
    @staticmethod
    def run_burst(tracer: SpanTracer) -> None:
        for k in range(3):
            with tracer.trace("serve.request", index=k):
                with reqtrace.span("solve"):
                    with reqtrace.span("phase", step=k):
                        pass

    def test_logical_clock_output_is_byte_identical(self):
        streams = []
        for _ in range(2):
            tracer = SpanTracer(clock="logical")
            self.run_burst(tracer)
            t = trace_file(tracer)
            streams.append(
                "\n".join(
                    json.dumps(obj, sort_keys=True)
                    for obj in [t.header, *t.events, t.footer]
                )
            )
        assert streams[0] == streams[1]

    def test_wall_clock_is_microseconds_and_monotone(self):
        tracer = SpanTracer(clock="wall")
        self.run_burst(tracer)
        events = list(tracer.events())
        times = [e["t"] for e in events]
        assert times == sorted(times)
        assert all(isinstance(e["t"], int) and e["dur"] >= 0 for e in events)


class TestBoundedMemory:
    def test_ring_buffer_drops_oldest_events(self):
        tracer = SpanTracer(buffer=4, clock="logical")
        for k in range(6):
            with tracer.trace("serve.request", index=k):
                pass
        assert tracer.events_retained == 4
        assert tracer.events_dropped == 2
        kept = [e["trace_id"] for e in tracer.events()]
        assert kept == [2, 3, 4, 5]
        assert tracer.footer()["events_dropped"] == 2

    def test_flight_recorder_copy_is_bounded_per_trace(self):
        tracer = SpanTracer(clock="logical", max_spans_per_trace=3)
        with tracer.trace("serve.request") as ctx:
            for k in range(5):
                with reqtrace.span("phase", index=k):
                    pass
        # two phases dropped; the root itself no longer fits
        assert len(ctx.spans) == 3
        assert ctx.spans_dropped == 3
        # the ring buffer still holds everything
        assert tracer.events_retained == 6


class TestExportSurface:
    def test_jsonl_roundtrip_validates_as_schema_v2(self, tmp_path):
        from repro.obs.exporters import write_trace_jsonl
        from repro.obs.traceio import read_trace

        tracer = SpanTracer(clock="logical")
        TestDeterminism.run_burst(tracer)
        path = write_trace_jsonl(tracer, tmp_path / "spans.jsonl")
        trace = read_trace(path)
        assert validate_trace(trace) == []
        assert trace_file_kind(trace) == "spans"
        assert trace.header["version"] == 2

    def test_chrome_conversion_emits_complete_events_per_trace(self):
        tracer = SpanTracer(clock="logical")
        TestDeterminism.run_burst(tracer)
        t = trace_file(tracer)
        events = chrome_trace_events(t.header, t.events)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 9  # 3 requests x 3 spans
        assert {e["tid"] for e in complete} == {0, 1, 2}
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)

    def test_format_span_tree_indents_by_depth(self):
        tracer = SpanTracer(clock="logical")
        TestDeterminism.run_burst(tracer)
        groups = spans_by_trace(trace_file(tracer))
        lines = format_span_tree(groups[0])
        assert lines[0].startswith("serve.request")
        assert lines[1].startswith("  solve")
        assert lines[2].startswith("    phase")


class TestRegistryIntegration:
    def test_span_durations_feed_the_span_histogram(self):
        registry = MetricsRegistry()
        tracer = SpanTracer(clock="logical", registry=registry)
        with tracer.trace("serve.request"):
            with reqtrace.span("solve"):
                pass
        snapshot = registry.as_dict()["trace_span_seconds"]
        by_span = {entry["labels"]["span"]: entry for entry in snapshot}
        assert by_span["solve"]["count"] == 1
        assert by_span["serve.request"]["count"] == 1

    def test_count_and_observe_reach_the_registry_only_inside_a_trace(self):
        registry = MetricsRegistry()
        tracer = SpanTracer(clock="logical", registry=registry)
        reqtrace.count("solver_iterations_total", 5, solver="mc")
        assert "solver_iterations_total" not in registry.as_dict()
        with tracer.trace("serve.request"):
            reqtrace.count("solver_iterations_total", 5, solver="mc")
            reqtrace.observe("solver_bound_gap", 0.25, bounds=(0.1, 0.5, 1.0))
        snap = registry.as_dict()
        assert snap["solver_iterations_total"][0]["value"] == 5
        assert snap["solver_bound_gap"][0]["count"] == 1


def random_instance(seed: int, n: int = 4, n_apps: int = 2):
    import numpy as np

    from repro.core.latency import Mesh, MeshLatencyModel
    from repro.core.problem import OBMInstance
    from repro.core.workload import Application, Workload

    rng = np.random.default_rng(seed)
    model = MeshLatencyModel(Mesh.square(n))
    per_app = model.n_tiles // n_apps
    apps = tuple(
        Application(
            f"a{i}", rng.uniform(0.1, 5, per_app), rng.uniform(0.0, 1, per_app)
        )
        for i in range(n_apps)
    )
    return OBMInstance(model, Workload(apps))


class TestSolverInstrumentation:
    def test_sss_emits_phase_spans_and_swap_counters(self):
        from repro.core.sss import sort_select_swap

        instance = random_instance(7)
        registry = MetricsRegistry()
        tracer = SpanTracer(clock="logical", registry=registry)
        with tracer.trace("serve.request") as ctx:
            result = sort_select_swap(instance)
        names = [s["name"] for s in ctx.spans]
        for phase in ("sss.sort", "sss.select", "sss.swap", "sss.polish"):
            assert phase in names, names
        swaps = result.extra["swap_windows"]
        counted = {
            entry["labels"]["outcome"]: entry["value"]
            for entry in registry.as_dict()["sss_swap_windows_total"]
        }
        assert counted["accepted"] == swaps["accepted"]
        assert counted["accepted"] + counted["rejected"] == swaps["tried"]

    def test_solver_results_are_identical_with_tracing_on(self):
        from repro.core.sss import sort_select_swap

        instance = random_instance(7)
        baseline = sort_select_swap(instance)
        tracer = SpanTracer(clock="logical")
        with tracer.trace("serve.request"):
            traced = sort_select_swap(instance)
        assert traced.mapping.perm.tolist() == baseline.mapping.perm.tolist()
        assert traced.evaluation.max_apl == baseline.evaluation.max_apl
