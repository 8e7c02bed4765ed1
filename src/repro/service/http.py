"""HTTP/1.1 framing for the serve daemon (stdlib-only, one request per connection).

:func:`read_request` parses one request off an asyncio stream and
:func:`response_bytes` frames one response.  Both are pure framing: the
routes live in :mod:`repro.service.app`.  Malformed input raises
:class:`RequestError` (answered with HTTP 400); a body shorter than its
declared length raises :class:`asyncio.IncompleteReadError` and the
connection is closed without an answer.
"""

from __future__ import annotations

import asyncio
import json
from http import HTTPStatus

__all__ = [
    "MAX_BODY",
    "MAX_HEADERS",
    "MAX_SIM_CYCLES",
    "MAX_TILES",
    "RequestError",
    "read_request",
    "response_bytes",
]

MAX_BODY = 8 * 1024 * 1024
MAX_HEADERS = 256
#: The work one ``/map`` body may ask for: the mesh's tile count (16x16)
#: and a simulation's ``warmup + measure`` cycles.
MAX_TILES = 256
MAX_SIM_CYCLES = 100_000


class RequestError(ValueError):
    """A malformed request (answered with HTTP 400)."""


async def _readline(reader: asyncio.StreamReader, what: str) -> bytes:
    try:
        return await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise RequestError(f"{what} too long") from None


async def read_request(reader: asyncio.StreamReader):
    """``(method, path, headers, body)`` of one request, or None at EOF."""
    request_line = await _readline(reader, "request line")
    if not request_line:
        return None
    try:
        method, path, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise RequestError("malformed request line") from None
    headers = {}
    for _ in range(MAX_HEADERS):
        line = await _readline(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise RequestError("malformed header line")
        headers[name.strip().lower()] = value.strip()
    else:
        raise RequestError(f"more than {MAX_HEADERS} headers")
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise RequestError(f"invalid content-length {raw_length!r}") from None
    if length < 0:
        raise RequestError("negative content-length")
    if length > MAX_BODY:
        raise RequestError(f"body exceeds {MAX_BODY} bytes")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, headers, body


def response_bytes(
    status: int, payload, content_type: str, extra_headers: dict | None = None
) -> bytes:
    """One ``Connection: close`` response; dicts and lists go out as sorted JSON."""
    if isinstance(payload, (dict, list)):
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    else:
        body = str(payload).encode()
    lines = [
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    lines.append("Connection: close")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body
