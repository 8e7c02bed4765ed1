"""Service tracing: span topology, flight recorder, determinism."""

from __future__ import annotations

import json
import logging

import pytest

from repro.obs.traceio import TraceFile, spans_by_trace, validate_trace


def sim_spec(spec2, seed: int = 0) -> dict:
    return {
        **spec2,
        "simulate": True,
        "sim": {"warmup": 10, "measure": 50, "seed": seed},
    }


def trace_stream(service) -> str:
    """The service tracer's JSONL content as one string."""
    tracer = service.tracer
    objs = [tracer.header(), *tracer.events(), tracer.footer()]
    return "\n".join(json.dumps(o, sort_keys=True) for o in objs)


def span_groups(service):
    tracer = service.tracer
    trace = TraceFile(
        header=tracer.header(), events=list(tracer.events()), footer=tracer.footer()
    )
    assert validate_trace(trace) == []
    return spans_by_trace(trace)


@pytest.fixture
def traced(make_service):
    return make_service(trace=True, trace_clock="logical")


class TestFreshDaemonScrape:
    def test_hit_ratio_is_zero_not_nan_before_any_request(self, make_service):
        """A scrape racing the first request must parse as a number."""
        client = make_service()
        status, text = client.get("/metrics")
        assert status == 200
        [line] = [
            l for l in text.splitlines() if l.startswith("serve_cache_hit_ratio ")
        ]
        assert line.split()[1] == "0"
        assert "nan" not in text.lower()

    def test_traced_daemon_scrape_is_well_formed(self, traced):
        status, text = traced.get("/metrics")
        assert status == 200
        for line in text.splitlines():
            assert line == "" or line.startswith("#") or " " in line


class TestSolverBoundGap:
    def test_observed_once_per_newly_computed_solve_and_bound(self, traced, spec2):
        """A full miss observes the gap; so does a bound newly computed for
        a cached solve; a repeat hit observes nothing."""

        def observed() -> int:
            registry = traced.service.registry
            return sum(m.total for m in registry if m.name == "solver_bound_gap")

        other = {**spec2, "mesh": 5}
        steps = [
            (spec2, 1),  # solve and bound miss
            (spec2, 1),  # both hit
            ({**other, "bounds": False}, 1),  # a solve, no bound
            (other, 2),  # solve hit, bound miss
            (other, 2),  # both hit
        ]
        for doc, count in steps:
            traced.map(doc)
            assert observed() == count, doc


class TestSpanTopology:
    def test_request_spans_nest_solver_under_worker(self, traced, spec2):
        traced.map(dict(spec2))
        groups = span_groups(traced.service)
        spans = {s["name"]: s for s in groups[0]}
        root = spans["serve.request"]
        assert root["parent_span"] == -1
        assert root["attrs"]["cache"] == "miss"
        assert spans["canonicalize"]["parent_span"] == root["span_id"]
        assert spans["worker.solve"]["parent_span"] == root["span_id"]
        for phase in ("sss.sort", "sss.select", "sss.swap", "sss.polish"):
            assert spans[phase]["parent_span"] == spans["worker.solve"]["span_id"]
        assert spans["worker.bounds"]["parent_span"] == root["span_id"]

    def test_cache_hit_request_skips_the_solver(self, traced, spec2):
        traced.map(dict(spec2))
        traced.map(dict(spec2))
        groups = span_groups(traced.service)
        hit_names = {s["name"] for s in groups[1]}
        assert "worker.solve" not in hit_names
        assert "worker.bounds" not in hit_names
        lookups = [s["attrs"] for s in groups[1] if s["name"] == "cache.lookup"]
        assert [(a["stage"], a["outcome"]) for a in lookups] == [
            ("solve", "hit"), ("bounds", "hit"),
        ]

    def test_simulation_request_spans_reach_the_engine(self, traced, spec2):
        traced.map(sim_spec(spec2))
        groups = span_groups(traced.service)
        spans = {s["name"]: s for s in groups[0]}
        enqueue = spans["batch.enqueue"]
        engine = spans["engine.run_batch"]
        assert engine["parent_span"] == enqueue["span_id"]
        assert engine["attrs"]["coalesced"] == [0]
        assert spans["serve.request"]["attrs"]["batch_occupancy"] == 1
        for phase in ("noc.warmup", "noc.measure", "noc.drain"):
            assert spans[phase]["parent_span"] == engine["span_id"]

    def test_coalesced_burst_shares_one_engine_span(self, make_service, spec2):
        import concurrent.futures
        import threading
        import time

        from repro.noc.vector_engine import run_batch

        entered, release = threading.Event(), threading.Event()

        def held_first_batch(mesh, traffics, **kw):
            if not entered.is_set():
                entered.set()
                assert release.wait(30), "held batch was never released"
            return run_batch(mesh, traffics, **kw)

        client = make_service(
            trace=True, trace_clock="logical", batch_runner=held_first_batch
        )
        client.map(dict(spec2))  # solve once, so every sim below hits it
        # distinct sim seeds are distinct cache entries, but the same
        # mesh/windows, so they legally share one run_batch call
        docs = [sim_spec(spec2, seed=k) for k in range(4)]
        depth = client.service.registry.gauge("serve_queue_depth")
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            try:
                holder = pool.submit(client.map, docs[0])
                assert entered.wait(30)
                # The burst queues behind the held batch, then goes out as one.
                burst = [pool.submit(client.map, doc) for doc in docs[1:]]
                limit = time.monotonic() + 30
                while depth.value < 3 and time.monotonic() < limit:
                    time.sleep(0.01)
                assert depth.value == 3
            finally:
                release.set()
            for f in [holder, *burst]:
                f.result()
        groups = span_groups(client.service)
        engines = [
            s for g in groups.values() for s in g if s["name"] == "engine.run_batch"
        ]
        engines.sort(key=lambda e: e["attrs"]["occupancy"])
        assert [e["attrs"]["occupancy"] for e in engines] == [1, 3]
        burst_traces = sorted(groups)[2:]  # after the solve and the holder
        assert sorted(engines[1]["attrs"]["coalesced"]) == burst_traces
        for trace_id in burst_traces:
            root = next(s for s in groups[trace_id] if s["parent_span"] == -1)
            assert root["attrs"]["batch_occupancy"] == 3


class TestFlightRecorder:
    def test_debug_requests_dumps_completed_records(self, traced, spec2):
        traced.map(dict(spec2))
        traced.map(dict(spec2))
        status, dump = traced.get("/debug/requests")
        assert status == 200
        assert dump["schema"] == "repro-serve-requests"
        assert dump["version"] == 3
        assert dump["enabled"] is True
        assert dump["recorded"] == 2
        kinds = [r["cache"] for r in dump["requests"]]
        assert kinds == ["miss", "hit"]
        first = dump["requests"][0]
        assert first["status"] == 200
        assert "retries" not in first
        assert first["duration_us"] > 0
        assert any(s["name"] == "worker.solve" for s in first["spans"])

    def test_bad_request_is_recorded_with_its_error(self, traced):
        status, payload = traced.post("/map", {"apps": []})
        assert status == 400
        _, dump = traced.get("/debug/requests")
        [record] = dump["requests"]
        assert record["status"] == 400
        assert record["error"] == payload["error"]

    def test_5xx_is_recorded_and_logged(self, make_service, spec2, caplog):
        def broken_runner(*args, **kwargs):
            raise RuntimeError("engine on fire")

        client = make_service(
            trace=True, trace_clock="logical", batch_runner=broken_runner,
        )
        with caplog.at_level(logging.ERROR, logger="repro.serve"):
            status, payload = client.post("/map", sim_spec(spec2))
        assert status == 500
        assert "engine on fire" in payload["error"]
        _, dump = client.get("/debug/requests")
        [record] = dump["requests"]
        assert record["status"] == 500
        assert "engine on fire" in record["error"]
        logged = [r for r in caplog.records if "request failed" in r.getMessage()]
        assert logged, "5xx must dump the flight record to the error log"
        assert "trace=0" in logged[0].getMessage()

    def test_ring_keeps_only_the_last_n(self, make_service, spec2):
        client = make_service(
            trace=True, trace_clock="logical", flight_recorder=2
        )
        for _ in range(4):
            client.map(dict(spec2))
        _, dump = client.get("/debug/requests")
        assert dump["capacity"] == 2
        assert dump["recorded"] == 4
        assert dump["dropped"] == 2
        assert [r["trace_id"] for r in dump["requests"]] == [2, 3]

    def test_untraced_daemon_reports_disabled(self, make_service, spec2):
        client = make_service()
        client.map(dict(spec2))
        status, dump = client.get("/debug/requests")
        assert status == 200
        assert dump["enabled"] is False
        assert dump["requests"] == []


class TestDeterminism:
    def test_same_burst_produces_byte_identical_trace_jsonl(self, make_service, spec2):
        streams = []
        for _ in range(2):
            client = make_service(trace=True, trace_clock="logical")
            client.map(dict(spec2))
            client.map(dict(spec2))
            client.map(sim_spec(spec2))
            streams.append(trace_stream(client.service))
        assert streams[0] == streams[1]

    def test_responses_are_identical_with_tracing_on_and_off(
        self, make_service, spec2
    ):
        plain = make_service()
        traced = make_service(trace=True, trace_clock="logical")
        doc = sim_spec(spec2)
        assert traced.map(dict(doc)) == plain.map(dict(doc))
        assert traced.map(dict(spec2)) == plain.map(dict(spec2))


class TestServeReportCLI:
    def test_serve_report_renders_a_dump(self, traced, spec2, tmp_path, capsys):
        from repro.cli import main

        traced.map(dict(spec2))
        traced.map(dict(spec2))
        _, dump = traced.get("/debug/requests")
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(dump))
        assert main(["trace", "serve-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 recorded requests" in out
        assert "worker.solve" in out

    def test_span_trace_file_report_and_chrome_export(
        self, traced, spec2, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.obs.exporters import write_trace_jsonl

        traced.map(dict(spec2))
        path = write_trace_jsonl(traced.service.tracer, tmp_path / "spans.jsonl")
        chrome = tmp_path / "chrome.json"
        assert main(
            ["trace", str(path), "--validate", "--chrome", str(chrome)]
        ) == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "serve.request" in out
        doc = json.loads(chrome.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
