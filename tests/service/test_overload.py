"""Overload chaos: bursts, wedged and failing workers, deadlines, and graceful drain.

The daemon's survival contract under hostile conditions: shed with
retry hints instead of 500ing, never let expired or doomed work occupy
a worker, and drain deterministically on shutdown.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core import cc_solvers, permkernels


def _unique_spec(index: int) -> dict:
    """A distinct (never-cached) two-app problem per index."""
    bump = 1.0 + index * 0.01
    return {
        "mesh": 4,
        "apps": [
            {
                "name": "heavy",
                "cache_rates": [2.0 * bump, 1.5, 1.0, 0.5],
                "mem_rates": [0.4, 0.3, 0.2, 0.1],
            },
            {
                "name": "light",
                "cache_rates": [0.8, 0.6 * bump],
                "mem_rates": [0.2, 0.05],
            },
        ],
    }


def _sweep_spec(index: int) -> dict:
    """A distinct 8x8 four-app problem whose SSS solve runs the swap sweep."""
    return {
        "mesh": 8,
        "algorithm": "sss",
        "apps": [
            {
                "name": f"app{k}",
                "cache_rates": [1.0 + k + 0.1 * t + 0.01 * index for t in range(16)],
                "mem_rates": [0.1 * (k + 1)] * 16,
            }
            for k in range(4)
        ],
    }


def _slow_solve(service, delay: float):
    """Wrap the service's solve so every fill takes at least ``delay``."""
    orig = service._solve_sync

    def slow(*args, **kwargs):
        time.sleep(delay)
        return orig(*args, **kwargs)

    service._solve_sync = slow


class TestTimeoutCacheRegression:
    """Satellite 1: a timed-out unique problem is a cache hit on retry."""

    def test_timed_out_fill_completes_and_serves_retry(self, make_service, spec2):
        client = make_service()
        spec = {**spec2, "mesh": 8}
        _slow_solve(client.service, 0.3)
        status, headers, payload = client.request_full(
            "POST", "/map", {**spec, "timeout": 0.05}
        )
        assert status == 504
        assert "timed out" in payload["error"]
        # 504s carry a retry hint, in the header and the body.
        assert int(headers["retry-after"]) >= 1
        assert payload["retry_after"] == int(headers["retry-after"])

        # The fill detached the requester's deadline and keeps running;
        # the retry must land on its result, not re-solve.
        deadline = time.time() + 10
        while time.time() < deadline:
            doc = client.map(spec)
            if doc["meta"]["cache"] in ("hit", "coalesced"):
                break
            time.sleep(0.05)
        else:
            pytest.fail("retry after timeout never hit the cache")
        assert client.service.report.cells_computed == 1  # one solve total


class TestSaturationBurst:
    def test_4x_burst_sheds_cleanly(self, make_service):
        client = make_service(
            workers=2, max_inflight=2, max_queue=2, degrade="off"
        )
        _slow_solve(client.service, 0.15)
        capacity = 4  # 2 inflight + 2 queued
        burst = 4 * capacity
        results = []
        lock = threading.Lock()

        def fire(i: int) -> None:
            status, headers, payload = client.request_full(
                "POST", "/map", _unique_spec(i), timeout=60.0
            )
            with lock:
                results.append((status, headers, payload))

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(burst)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)

        assert len(results) == burst
        statuses = [s for s, _, _ in results]
        assert 500 not in statuses, "overload must never produce a 500"
        served = [r for r in results if r[0] == 200]
        shed = [r for r in results if r[0] == 429]
        assert served, "some of the burst must be served"
        assert shed, "a 4x burst over a bounded queue must shed"
        for _status, headers, payload in shed:
            assert int(headers["retry-after"]) >= 1
            assert payload["reason"] == "queue_full"
        registry = client.service.registry
        assert registry.counter("serve_shed_total", reason="queue_full").value == len(shed)

    def test_burst_with_degradation_serves_everyone(self, make_service):
        client = make_service(
            workers=2, max_inflight=2, max_queue=4, degrade="auto"
        )
        _slow_solve(client.service, 0.1)
        results = []
        lock = threading.Lock()

        def fire(i: int) -> None:
            status, _headers, payload = client.request_full(
                "POST", "/map", _unique_spec(i), timeout=60.0
            )
            with lock:
                results.append((status, payload))

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        statuses = [s for s, _ in results]
        assert 500 not in statuses
        # Everything not shed is answered — some fully, some degraded,
        # every degraded answer clearly marked.
        for status, payload in results:
            if status == 200 and "degraded" in payload["meta"]:
                assert payload["result"]["bounds"] is not None


class TestWedgedWorkers:
    def test_wedged_solve_times_out_then_the_next_problem_is_served(self, make_service):
        permkernels.warmup()  # keep a first-time kernel build out of the timeout
        client = make_service(task_timeout=0.5, max_queue=4)
        service = client.service
        real_solve = service._solve_sync
        release = threading.Event()
        wedged = []

        def wedge_first(*args, **kwargs):
            if not wedged:
                wedged.append(True)
                release.wait(30)
            return real_solve(*args, **kwargs)

        service._solve_sync = wedge_first
        try:
            s1, h1, _ = client.request_full("POST", "/map", _unique_spec(1))
            assert s1 == 504  # abandoned thread -> timeout, not a 500
            assert "retry-after" in h1
            # The slot was reclaimed and nothing refuses at the door: the
            # next unique problem gets a worker.
            s2, _h2, p2 = client.request_full("POST", "/map", _unique_spec(2))
            assert s2 == 200, p2
        finally:
            release.set()
        registry = service.registry
        assert registry.counter("serve_worker_wedged_total").value == 1
        _, health = client.get("/healthz")
        assert health["status"] == "ok"
        assert health["report"]["pool_replacements"] == 1
        assert health["report"]["cells_failed"] == 1


    @pytest.mark.skipif(
        not permkernels.backend_info()["cc"], reason="C solver kernels unavailable"
    )
    def test_wedged_solves_leave_the_solver_backend_alone(
        self, make_service, monkeypatch
    ):
        """Timeouts say nothing about the C kernels: after three wedged
        solves answer 504, the next unique problem still runs the C sweep."""
        permkernels.warmup()
        sweeps = []
        real_sweep = cc_solvers.cc_sweep_pass

        def counting_sweep(*args, **kwargs):
            sweeps.append(1)
            return real_sweep(*args, **kwargs)

        monkeypatch.setattr(cc_solvers, "cc_sweep_pass", counting_sweep)
        client = make_service(task_timeout=0.3)
        service = client.service
        real_solve = service._solve_sync
        release = threading.Event()
        wedged = []

        def wedge_three(*args, **kwargs):
            if len(wedged) < 3:
                wedged.append(True)
                release.wait(30)
                raise RuntimeError("abandoned solve released")
            return real_solve(*args, **kwargs)

        service._solve_sync = wedge_three
        try:
            for i in range(3):
                status, payload = client.post("/map", _sweep_spec(i))
                assert status == 504, payload
            status, payload = client.post("/map", _sweep_spec(3))
            assert status == 200, payload
        finally:
            release.set()
        assert sweeps


class TestFailedTasks:
    """A worker task runs once; its failure is a 500 naming the error."""

    def test_failed_solve_is_attempted_once_and_answers_500(
        self, make_service, monkeypatch
    ):
        # Former environment twins of the retry and failure-budget flags:
        # they must change nothing.
        monkeypatch.setenv("REPRO_TASK_RETRIES", "2")
        monkeypatch.setenv("REPRO_FAILURE_BUDGET", "0")
        client = make_service()
        service = client.service
        real_solve = service._solve_sync
        calls = []

        def fails_first(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("solver exploded")
            return real_solve(*args, **kwargs)

        service._solve_sync = fails_first
        status, payload = client.post("/map", _unique_spec(1))
        assert (status, payload) == (500, {"error": "RuntimeError: solver exploded"})
        assert len(calls) == 1
        assert service.report.cells_failed == 1
        status, payload = client.post("/map", _unique_spec(2))
        assert status == 200, payload
        assert len(calls) == 2


class TestDeadlines:
    def test_default_deadline_applies_server_side(self, make_service, spec2):
        client = make_service(default_deadline=0.05)
        _slow_solve(client.service, 0.5)
        status, headers, payload = client.request_full("POST", "/map", spec2)
        assert status == 504
        assert "retry-after" in headers

    def test_expired_deadline_is_counted(self, make_service, spec2):
        client = make_service()
        status, _headers, _payload = client.request_full(
            "POST", "/map", {**spec2, "timeout": 1e-6}
        )
        assert status == 504
        registry = client.service.registry
        total = sum(
            m.value
            for m in registry
            if m.name == "serve_deadline_expired_total"
        )
        assert total >= 1


    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timeout_is_400(self, client, spec2, timeout):
        """json.loads accepts NaN and Infinity; neither is a budget (a NaN
        deadline would otherwise expire at once and answer 504)."""
        status, payload = client.post("/map", {**spec2, "timeout": timeout})
        assert status == 400, payload
        assert "finite" in payload["error"]

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_default_deadline_refuses_to_start(self, budget):
        """A default deadline that cannot be a budget fails at startup,
        instead of turning every /map into a 500."""
        from repro.service.app import MappingService, run_service

        with pytest.raises(ValueError, match="default_deadline"):
            MappingService(default_deadline=budget)
        with pytest.raises(ValueError, match="default_deadline"):
            run_service("127.0.0.1", 0, default_deadline=budget)


class TestGracefulDrain:
    def test_drain_finishes_inflight_and_sheds_new(self, make_service, spec2):
        client = make_service(drain_timeout=10.0)
        _slow_solve(client.service, 0.4)
        inflight_result = {}

        def slow_request() -> None:
            inflight_result["r"] = client.request_full("POST", "/map", spec2)

        t = threading.Thread(target=slow_request)
        t.start()
        time.sleep(0.15)  # let it claim a worker
        status, payload = client.post("/shutdown")
        assert status == 200
        assert payload["status"] == "draining"
        # New work is refused immediately with a retry hint...
        s_new, h_new, p_new = client.request_full("POST", "/map", _unique_spec(9))
        assert s_new == 503
        assert p_new["reason"] == "draining"
        assert "retry-after" in h_new
        # ...readiness goes false...
        s_ready, ready_doc = client.get("/readyz")
        assert s_ready == 503
        assert ready_doc["status"] == "draining"
        # ...and the in-flight request still completes at full fidelity.
        t.join(30)
        status, _headers, doc = inflight_result["r"]
        assert status == 200
        assert doc["result"]["perm"] is not None
        # A second shutdown is a no-op progress report, not a second drain.
        status, payload = client.post("/shutdown")
        assert status == 200
        assert payload["status"] == "draining"

    def test_drain_timeout_dumps_flight_record_anyway(self, make_service, tmp_path):
        flight_out = tmp_path / "flight.json"
        client = make_service(
            trace=True, drain_timeout=0.1, flight_out=str(flight_out)
        )
        client.map(_unique_spec(0))  # one completed request on record
        _slow_solve(client.service, 5.0)

        def stuck_request() -> None:
            try:
                client.request_full("POST", "/map", _unique_spec(1), timeout=30)
            except Exception:
                pass  # the server may close the socket mid-drain

        t = threading.Thread(target=stuck_request, daemon=True)
        t.start()
        time.sleep(0.2)
        status, payload = client.post("/shutdown")
        assert status == 200
        # The drain gives up on the wedged request but still writes the
        # deterministic final dump before stopping.
        deadline = time.time() + 10
        while time.time() < deadline and not flight_out.exists():
            time.sleep(0.05)
        assert flight_out.exists()
        dump = json.loads(flight_out.read_text())
        assert dump["schema"] == "repro-serve-requests"
        assert dump["recorded"] >= 1


class TestReadiness:
    def test_ready_service_answers_200(self, client):
        status, payload = client.get("/readyz")
        assert status == 200
        assert payload["status"] == "ready"
        assert "backend" in payload

    def test_ready_service_reports_reference_without_kernels(
        self, make_service, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CC", "0")
        monkeypatch.setattr(cc_solvers, "_loaded", False)
        monkeypatch.setattr(cc_solvers, "_lib", None)
        monkeypatch.setattr(cc_solvers, "_lib_error", None)
        status, payload = make_service().get("/readyz")
        assert (status, payload["backend"]) == (200, "reference")

    def test_starting_service_answers_503(self, make_service):
        client = make_service()
        client.service.ready = False  # as before kernel warmup finishes
        status, payload = client.get("/readyz")
        assert status == 503
        assert payload["status"] == "starting"

    def test_healthz_reports_admission(self, client, spec2):
        client.map(spec2)
        _status, payload = client.get("/healthz")
        assert payload["admission"]["admitted"] == 1
        assert payload["admission"]["shed"] == 0
        assert payload["ready"] is True
        assert payload["draining"] is False
        assert payload["degrade_mode"] == "auto"
