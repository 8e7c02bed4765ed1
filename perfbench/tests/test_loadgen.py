"""The load generator against a stub server that stalls on a script.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from loadgen import closed_loop, http_sender, open_loop  # noqa: E402

RESPONSE = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok"


class StubServer:
    """Answers every request at once, except that a request arriving
    inside ``[stall_from, stall_until)`` is held until ``stall_until``."""

    def __init__(self, stall_from: float = 0.0, stall_until: float = 0.0) -> None:
        self.stall_from = stall_from
        self.stall_until = stall_until
        self.open_now = 0
        self.open_peak = 0

    async def handle(self, reader, writer) -> None:
        self.open_now += 1
        self.open_peak = max(self.open_peak, self.open_now)
        try:
            await reader.readuntil(b"\r\n\r\n")
            now = time.perf_counter()
            if self.stall_from <= now < self.stall_until:
                await asyncio.sleep(self.stall_until - now)
            writer.write(RESPONSE)
            await writer.drain()
        finally:
            writer.close()
            self.open_now -= 1


async def _run_open(server: StubServer, count: int, rate: float, connections: int):
    srv = await asyncio.start_server(server.handle, "127.0.0.1", 0)
    port = srv.sockets[0].getsockname()[1]
    try:
        send = http_sender("127.0.0.1", port, "/map", [b"{}"] * count, timeout=5.0)
        return await asyncio.wait_for(open_loop(send, count, rate, connections), 30)
    finally:
        srv.close()
        await srv.wait_closed()


def test_queued_requests_are_charged_the_stall_from_their_due_time():
    t0 = time.perf_counter()
    stall_from, stall_until = t0 + 0.15, t0 + 0.35
    server = StubServer(stall_from, stall_until)
    result = asyncio.run(_run_open(server, count=100, rate=200.0, connections=2))

    assert len(result.samples) == 100
    assert all(s.status == 200 for s in result.samples)
    due_in_stall = [s for s in result.samples if stall_from <= s.due < stall_until]
    assert len(due_in_stall) >= 30
    for s in due_in_stall:
        # nothing due inside the stall can finish before it ends, and its
        # latency counts from when it was due, not from when it was sent
        assert s.done >= stall_until - 0.002
        assert s.latency >= (stall_until - s.due) - 0.002
    # most of them waited in the generator's queue, not on the wire
    assert sum(1 for s in due_in_stall if s.sent - s.due > 0.01) >= 20
    slow = [s for s in result.samples if s.latency > 0.05]
    assert len(slow) >= 20, "the stall must show in many requests, not only the two on the wire"


def test_connections_never_exceed_the_limit():
    t0 = time.perf_counter()
    server = StubServer(t0 + 0.1, t0 + 0.3)
    result = asyncio.run(_run_open(server, count=120, rate=400.0, connections=2))
    assert len(result.samples) == 120
    assert result.peak_connections <= 2
    assert server.open_peak <= 2


def test_lag_is_reported_and_not_charged_to_the_server_stall():
    t0 = time.perf_counter()
    server = StubServer(t0 + 0.1, t0 + 0.3)
    result = asyncio.run(_run_open(server, count=80, rate=200.0, connections=2))
    assert len(result.lag) == 80
    assert all(lag >= 0.0 for lag in result.lag)
    # the dispatcher keeps to its schedule while the server stalls
    assert sum(result.lag) / len(result.lag) < 0.02


def test_closed_loop_keeps_its_connections_busy():
    async def run():
        server = StubServer()
        srv = await asyncio.start_server(server.handle, "127.0.0.1", 0)
        port = srv.sockets[0].getsockname()[1]
        try:
            send = http_sender("127.0.0.1", port, "/map", [b"{}"] * 50, timeout=5.0)
            return server, await asyncio.wait_for(closed_loop(send, 50, 2), 30)
        finally:
            srv.close()
            await srv.wait_closed()

    server, result = asyncio.run(run())
    assert sorted(s.index for s in result.samples) == list(range(50))
    assert result.peak_connections == 2
    assert server.open_peak <= 2
