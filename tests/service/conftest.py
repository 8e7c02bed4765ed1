"""Fixtures for the mapping-service suite: a live daemon on a loopback port."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

from repro.service.app import MappingService, serve


class ServiceClient:
    """Tiny blocking HTTP client bound to one running service."""

    def __init__(self, service: MappingService, port: int) -> None:
        self.service = service
        self.port = port

    def request_full(self, method: str, path: str, doc=None, timeout: float = 60.0):
        """``(status, headers, payload)`` — headers for Retry-After checks."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        body = None if doc is None else json.dumps(doc)
        conn.request(method, path, body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        raw = resp.read()
        conn.close()
        headers = {k.lower(): v for k, v in resp.getheaders()}
        ctype = headers.get("content-type", "")
        payload = json.loads(raw) if ctype.startswith("application/json") else raw.decode()
        return resp.status, headers, payload

    def request(self, method: str, path: str, doc=None, timeout: float = 60.0):
        status, _headers, payload = self.request_full(method, path, doc, timeout)
        return status, payload

    def post(self, path: str, doc=None, **kw):
        return self.request("POST", path, doc, **kw)

    def get(self, path: str, **kw):
        return self.request("GET", path, **kw)

    def map(self, doc, **kw):
        """POST /map asserting success; returns the response document."""
        status, payload = self.post("/map", doc, **kw)
        assert status == 200, payload
        return payload


@pytest.fixture
def make_service():
    """Factory for a live service; every instance is torn down at exit."""
    clients: list[tuple[ServiceClient, threading.Thread, asyncio.AbstractEventLoop]] = []

    def factory(**config) -> ServiceClient:
        service = MappingService(**config)
        # The fixture bypasses run_service (no kernel warmup), so
        # readiness is declared here; tests of the starting state build
        # their own service.
        service.mark_ready()
        started = threading.Event()
        holder: dict = {}

        async def main() -> None:
            server, port, stop = await serve(service, "127.0.0.1", 0)
            holder["port"] = port
            holder["loop"] = asyncio.get_running_loop()
            holder["stop"] = stop
            started.set()
            try:
                await stop.wait()
            finally:
                server.close()
                await server.wait_closed()

        thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
        thread.start()
        assert started.wait(10), "service did not start"
        client = ServiceClient(service, holder["port"])
        clients.append((client, thread, holder))
        return client

    yield factory

    for _client, thread, holder in clients:
        loop, stop = holder["loop"], holder["stop"]
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            pass
        thread.join(10)


@pytest.fixture
def client(make_service) -> ServiceClient:
    """One default-configuration live service."""
    return make_service()


@pytest.fixture
def spec2():
    """A small fixed two-app problem spec on a 4x4 mesh."""
    return {
        "mesh": 4,
        "apps": [
            {
                "name": "heavy",
                "cache_rates": [2.0, 1.5, 1.0, 0.5],
                "mem_rates": [0.4, 0.3, 0.2, 0.1],
            },
            {
                "name": "light",
                "cache_rates": [0.8, 0.6],
                "mem_rates": [0.2, 0.05],
            },
        ],
    }
