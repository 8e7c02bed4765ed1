"""Admission control, and request timeouts end to end through ``map_request``."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.admission import AdmissionController, EwmaEstimate, ShedError
from repro.service.app import MappingService, RequestError


def run(coro):
    return asyncio.run(coro)


def expired_total(service) -> float:
    return sum(
        m.value for m in service.registry if m.name == "serve_deadline_expired_total"
    )


def hold_the_token(client, spec, hold: float) -> threading.Thread:
    """Send ``spec`` with every solve slowed by ``hold`` seconds; return once
    it holds the only admission token (``max_inflight=1``)."""
    service = client.service
    real_solve = service._solve_sync

    def slow(*args, **kwargs):
        time.sleep(hold)
        return real_solve(*args, **kwargs)

    service._solve_sync = slow
    holder = threading.Thread(target=client.map, args=(spec,))
    holder.start()
    limit = time.monotonic() + 10
    while service.admission.inflight < 1 and time.monotonic() < limit:
        time.sleep(0.005)
    assert service.admission.inflight == 1
    return holder


def other_problem(spec: dict) -> dict:
    """``spec`` with its first rate changed: a distinct cache entry."""
    apps = [dict(app) for app in spec["apps"]]
    apps[0]["cache_rates"] = [2.5, *apps[0]["cache_rates"][1:]]
    return {**spec, "apps": apps}


class TestDeadline:
    """A request's ``timeout`` is one wait around everything after parsing."""

    def test_unbounded_never_expires(self, make_service, spec2):
        client = make_service(max_inflight=1)
        holder = hold_the_token(client, spec2, 0.2)
        # No timeout and no --default-deadline: queue as long as it takes.
        doc = client.map(other_problem(spec2))
        holder.join(10)
        assert doc["meta"]["cache"] == "miss"
        assert expired_total(client.service) == 0

    def test_budget_counts_down(self, make_service, spec2):
        """The budget covers queue wait and solve together: 0.2 s queued
        plus a 0.2 s solve overruns a 0.3 s timeout that either fits."""
        client = make_service(max_inflight=1)
        holder = hold_the_token(client, spec2, 0.2)
        status, headers, _payload = client.request_full(
            "POST", "/map", {**other_problem(spec2), "timeout": 0.3}
        )
        holder.join(10)
        assert status == 504
        assert int(headers["retry-after"]) >= 1
        assert expired_total(client.service) == 1

    def test_tiny_budget_expires(self, spec2):
        async def main():
            service = MappingService()
            with pytest.raises(asyncio.TimeoutError):
                await service.map_request({**spec2, "timeout": 1e-9})
            assert service.admission.idle()
            assert expired_total(service) == 1

        run(main())

    def test_nonpositive_budget_rejected(self, spec2):
        async def main():
            service = MappingService()
            for timeout in (0, -1, 0.0):
                with pytest.raises(RequestError, match="positive"):
                    await service.map_request({**spec2, "timeout": timeout})
            assert service.admission.admitted_total == 0

        run(main())


class TestEwma:
    def test_first_observation_seeds(self):
        e = EwmaEstimate()
        assert e.value is None
        e.observe(2.0)
        assert e.value == 2.0

    def test_moves_toward_new_observations(self):
        e = EwmaEstimate(alpha=0.5)
        e.observe(2.0)
        e.observe(4.0)
        assert e.value == pytest.approx(3.0)


class TestAdmission:
    def test_tokens_granted_up_to_max_inflight(self):
        async def main():
            adm = AdmissionController(max_inflight=2, max_queue=0)
            async with adm.admit():
                async with adm.admit():
                    assert adm.inflight == 2
                    with pytest.raises(ShedError) as exc:
                        async with adm.admit():
                            pass
                    assert exc.value.status == 429
                    assert exc.value.reason == "queue_full"
                    assert exc.value.retry_after >= 1
            assert adm.idle()

        run(main())

    def test_queue_hands_token_fifo(self):
        async def main():
            adm = AdmissionController(max_inflight=1, max_queue=4)
            order = []

            async def user(tag, hold):
                async with adm.admit():
                    order.append(tag)
                    await asyncio.sleep(hold)

            await asyncio.gather(user("a", 0.02), user("b", 0), user("c", 0))
            assert order == ["a", "b", "c"]
            assert adm.idle()
            assert adm.admitted_total == 3

        run(main())

    def test_deadline_expires_while_queued(self, make_service, spec2):
        """A request queued behind the only token times out with a 504 and
        gives its seat back; the holder then finishes and admission idles."""
        client = make_service(max_inflight=1)
        holder = hold_the_token(client, spec2, 0.3)
        status, headers, payload = client.request_full(
            "POST", "/map", {**other_problem(spec2), "timeout": 0.05}
        )
        assert status == 504
        assert int(headers["retry-after"]) >= 1
        assert payload["retry_after"] == int(headers["retry-after"])
        admission = client.service.admission
        assert admission.waiting == 0
        holder.join(10)
        assert admission.idle()
        assert expired_total(client.service) == 1

    def test_health_hook_sheds_before_queueing(self):
        async def main():
            adm = AdmissionController(
                max_inflight=4, max_queue=4, health=lambda: ("draining", 503)
            )
            with pytest.raises(ShedError) as exc:
                async with adm.admit():
                    pass
            assert exc.value.status == 503
            assert exc.value.reason == "draining"

        run(main())

    def test_shed_counter_by_reason(self):
        async def main():
            registry = MetricsRegistry()
            adm = AdmissionController(max_inflight=1, max_queue=0, registry=registry)
            async with adm.admit():
                for _ in range(3):
                    with pytest.raises(ShedError):
                        async with adm.admit():
                            pass
            shed = registry.counter("serve_shed_total", reason="queue_full")
            assert shed.value == 3
            assert adm.shed_total == 3

        run(main())

    def test_pressure_spans_pipe(self):
        async def main():
            adm = AdmissionController(max_inflight=2, max_queue=2)
            assert adm.pressure == 0.0
            async with adm.admit():
                assert adm.pressure == pytest.approx(0.25)

        run(main())

    def test_retry_after_scales_with_queue(self):
        adm = AdmissionController(max_inflight=2, max_queue=8)
        adm.service_time.observe(4.0)
        base = adm.retry_after()
        assert 1 <= base <= 60
        adm._waiters.extend(object() for _ in range(6))  # type: ignore[arg-type]
        assert adm.retry_after() > base
        adm._waiters.clear()

    def test_wait_idle_times_out(self):
        async def main():
            adm = AdmissionController(max_inflight=1, max_queue=0)
            async with adm.admit():
                assert not await adm.wait_idle(0.05)
            assert await adm.wait_idle(0.05)

        run(main())

    def test_cancel_in_grant_tick_does_not_wedge(self):
        """Regression: cancelling a waiter in the tick its token is granted.

        map_request wraps admitted() in asyncio.wait_for, so deadlines
        cancel queued waiters exactly when tokens turn over under
        overload.  The abort path must hand the already-counted token to
        _release without re-incrementing inflight — the old code left a
        phantom holder (inflight=1, nobody holding) that queued every
        later request forever and made drain/wait_idle hang.
        """

        async def main():
            adm = AdmissionController(max_inflight=1, max_queue=4)
            await adm._acquire()  # hold the only token

            async def waiter():
                async with adm.admit():
                    pass

            w = asyncio.get_running_loop().create_task(waiter())
            await asyncio.sleep(0)  # let the waiter queue
            assert adm.waiting == 1
            adm._release()  # grants the waiter's future in this tick...
            w.cancel()  # ...and the cancel lands before it can resume
            with pytest.raises(asyncio.CancelledError):
                await w
            assert adm.inflight == 0
            assert adm.idle()
            # Admission must not be wedged: a fresh request gets the token.
            async with adm.admit():
                assert adm.inflight == 1
            assert adm.idle()
            assert await adm.wait_idle(0.05)

        run(main())
