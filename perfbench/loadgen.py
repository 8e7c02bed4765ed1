"""Open- and closed-loop HTTP load from one process.

The open loop sends request ``i`` when it is due (``start + i / rate``)
whether or not earlier requests have been answered.  At most
``connections`` requests are on the wire at once; a due request that
finds every connection busy waits in the generator's queue, and its
latency is still taken from its due time, so a server stall is charged
to every request it delayed (no coordinated omission).

The closed loop keeps ``connections`` requests in flight and sends the
next one only when a previous one completes.

Both loops take ``send(i) -> (status, body)``, a coroutine that performs
request ``i``; :func:`http_sender` builds one for prepared POST bodies.
Times come from ``time.perf_counter``, which on Linux is the system-wide
monotonic clock, so they are comparable with span times recorded in the
server process.

Drive the loops through :func:`run`.  Its event loop waits with
``select()``, whose timeout has microsecond resolution; the default epoll
loop rounds every timer up to a whole millisecond, which made the open
loop dispatch about 0.7 ms late on average and put that lateness into
every latency it reported.
"""

from __future__ import annotations

import asyncio
import selectors
import time
from dataclasses import dataclass, field


def run(coro):
    """Run ``coro`` to completion on a ``select()``-based event loop
    (the generator holds at most a few sockets)."""
    with asyncio.Runner(
        loop_factory=lambda: asyncio.SelectorEventLoop(selectors.SelectSelector())
    ) as runner:
        return runner.run(coro)


@dataclass
class Sample:
    """One completed request."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from when the request was due until its answer."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """Seconds from when the request went on the wire until its answer."""
        return self.done - self.sent


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    #: per request: how late the generator dispatched it after its due time
    lag: list[float] = field(default_factory=list)
    #: most requests on the wire at one time
    peak_connections: int = 0
    started: float = 0.0
    finished: float = 0.0

    @property
    def wall(self) -> float:
        return self.finished - self.started


def http_sender(host: str, port: int, path: str, bodies, *, timeout: float = 60.0):
    """``send(i)``: POST ``bodies[i]`` (bytes) to ``path``; one connection
    per request, as the server closes every connection after answering."""

    async def send(i: int) -> tuple[int, bytes]:
        body = bodies[i]
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout
            )
        except (OSError, asyncio.TimeoutError):
            return 0, b""
        try:
            writer.write(head + body)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout)
        except (OSError, asyncio.TimeoutError):
            return 0, b""
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        head_end = raw.find(b"\r\n\r\n")
        try:
            status = int(raw.split(b" ", 2)[1])
        except (IndexError, ValueError):
            return 0, raw
        return status, raw[head_end + 4:] if head_end >= 0 else b""

    return send


class _Gauge:
    def __init__(self) -> None:
        self.now = 0
        self.peak = 0

    def __enter__(self):
        self.now += 1
        self.peak = max(self.peak, self.now)

    def __exit__(self, *exc):
        self.now -= 1


async def open_loop(send, count: int, rate: float, connections: int,
                    start_delay: float = 0.05) -> LoopResult:
    """Send ``count`` requests at ``rate`` per second over at most
    ``connections`` concurrent connections."""
    if rate <= 0 or connections < 1:
        raise ValueError("rate must be positive and connections >= 1")
    out = LoopResult()
    gauge = _Gauge()
    queue: asyncio.Queue = asyncio.Queue()
    start = time.perf_counter() + start_delay
    out.started = start

    async def dispatcher() -> None:
        for i in range(count):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            out.lag.append(max(0.0, time.perf_counter() - due))
            queue.put_nowait((i, due))
        for _ in range(connections):
            queue.put_nowait(None)

    async def worker() -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            i, due = item
            with gauge:
                sent = time.perf_counter()
                status, body = await send(i)
                out.samples.append(
                    Sample(i, due, sent, time.perf_counter(), status, body)
                )

    await asyncio.gather(dispatcher(), *(worker() for _ in range(connections)))
    out.finished = time.perf_counter()
    out.peak_connections = gauge.peak
    return out


async def closed_loop(send, count: int, connections: int) -> LoopResult:
    """Send requests ``0..count-1`` keeping ``connections`` in flight."""
    if connections < 1:
        raise ValueError("connections must be >= 1")
    out = LoopResult()
    gauge = _Gauge()
    indices = iter(range(count))
    out.started = time.perf_counter()

    async def worker() -> None:
        for i in indices:
            with gauge:
                sent = time.perf_counter()
                status, body = await send(i)
                out.samples.append(
                    Sample(i, sent, sent, time.perf_counter(), status, body)
                )

    await asyncio.gather(*(worker() for _ in range(connections)))
    out.finished = time.perf_counter()
    out.peak_connections = gauge.peak
    return out
