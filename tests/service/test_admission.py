"""Admission control and deadlines."""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.admission import (
    AdmissionController,
    Deadline,
    DeadlineExpired,
    EwmaEstimate,
    ShedError,
    current_deadline,
    deadline_scope,
    detach_deadline,
)


def run(coro):
    return asyncio.run(coro)


class TestDeadline:
    def test_unbounded_never_expires(self):
        d = Deadline(None)
        assert d.remaining() is None
        assert not d.expired

    def test_budget_counts_down(self):
        d = Deadline(60.0)
        assert 0 < d.remaining() <= 60.0
        assert not d.expired

    def test_tiny_budget_expires(self):
        d = Deadline(1e-9)
        assert d.expired
        assert d.remaining() == 0.0

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-1)

    def test_scope_binds_and_restores(self):
        d = Deadline(10)
        assert current_deadline() is None
        with deadline_scope(d):
            assert current_deadline() is d
        assert current_deadline() is None

    def test_detach_clears_inside_task(self):
        async def main():
            d = Deadline(10)
            with deadline_scope(d):
                async def fill():
                    detach_deadline()
                    return current_deadline()

                # create_task copies the context: the fill sees the
                # deadline until it detaches, and the detach does not
                # leak back into the requester.
                inner = await asyncio.get_running_loop().create_task(fill())
                assert inner is None
                assert current_deadline() is d

        run(main())

    def test_expired_is_a_timeout_subclass(self):
        assert issubclass(DeadlineExpired, asyncio.TimeoutError)
        assert DeadlineExpired("queue").stage == "queue"


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

    def test_expired_deadline_never_queues(self):
        async def main():
            adm = AdmissionController(max_inflight=1, max_queue=4)
            with deadline_scope(Deadline(1e-9)):
                with pytest.raises(DeadlineExpired):
                    async with adm.admit():
                        pass
            assert adm.idle()

        run(main())

    def test_deadline_expires_while_queued(self):
        async def main():
            registry = MetricsRegistry()
            adm = AdmissionController(max_inflight=1, max_queue=4, registry=registry)

            async def holder():
                async with adm.admit():
                    await asyncio.sleep(0.1)

            task = asyncio.get_running_loop().create_task(holder())
            await asyncio.sleep(0.01)
            with deadline_scope(Deadline(0.02)):
                with pytest.raises(DeadlineExpired):
                    async with adm.admit():
                        pass
            await task
            assert adm.idle()
            expired = registry.counter("serve_deadline_expired_total", at="queue")
            assert expired.value == 1

        run(main())

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
