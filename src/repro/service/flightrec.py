"""The service flight recorder: the last N completed requests, in full.

A bounded ring of per-request forensic records — problem fingerprint,
cache outcome, status, error, and the request's complete span tree as
collected by :mod:`repro.obs.reqtrace`.  The ring is dumped by
``GET /debug/requests``, logged on any 5xx response, and rendered
offline by ``python -m repro trace serve-report``.

Only populated when the service runs with tracing enabled; an untraced
service holds a capacity-0 recorder, which is disabled and dumps empty.
The ring itself is tiny (records are plain dicts, capacity defaults to
64), so a long-lived daemon cannot grow it without bound.
"""

from __future__ import annotations

from collections import deque

__all__ = ["FlightRecorder", "FLIGHT_SCHEMA", "FLIGHT_SCHEMA_VERSION"]

FLIGHT_SCHEMA = "repro-serve-requests"
FLIGHT_SCHEMA_VERSION = 3


class FlightRecorder:
    """Bounded ring of completed-request records; capacity 0 = disabled."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 0:
            raise ValueError("flight recorder capacity must be >= 0")
        self.capacity = capacity
        self._ring: deque[dict] = deque(maxlen=capacity)
        self.recorded = 0

    def record(self, record: dict) -> None:
        if self.capacity:
            self._ring.append(record)
            self.recorded += 1

    def dump(self) -> dict:
        """The ``GET /debug/requests`` document."""
        return {
            "schema": FLIGHT_SCHEMA,
            "version": FLIGHT_SCHEMA_VERSION,
            "enabled": self.capacity > 0,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.recorded - len(self._ring),
            "requests": list(self._ring),  # oldest first
        }
