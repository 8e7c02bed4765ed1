"""Hypothesis fuzz of the HTTP layer: garbage in, structured 4xx out.

Property: no byte sequence a client sends — malformed JSON, broken
headers, hostile request lines, lying content-lengths — may produce a
500, kill the daemon, or yield an unstructured error body.  Every
answered error is a JSON object with an ``"error"`` key; unanswerable
garbage (e.g. a body shorter than its declared length) just closes the
connection.  The framing module is also fuzzed on its own, through an
in-memory stream with no socket.
"""

from __future__ import annotations

import asyncio
import json
import socket

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.http import RequestError, read_request

FUZZ = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# latin-1 text with no CR/LF (header-safe); injection itself is tested
# with explicit newlines below.
_line_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=255),
    max_size=64,
)


def raw_roundtrip(port: int, data: bytes, timeout: float = 10.0) -> bytes:
    """One raw TCP exchange; returns whatever the server answered."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        try:
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        chunks = []
        try:
            while True:
                block = sock.recv(65536)
                if not block:
                    break
                chunks.append(block)
        except TimeoutError:
            pass
        return b"".join(chunks)


def response_status(response: bytes) -> int | None:
    if not response:
        return None
    parts = response.split(b"\r\n", 1)[0].decode("latin-1", "replace").split()
    return int(parts[1]) if len(parts) >= 2 and parts[1].isdigit() else None


def response_body(response: bytes) -> bytes:
    return response.partition(b"\r\n\r\n")[2]


def post_map(port: int, body: bytes, extra_headers: str = "") -> bytes:
    head = (
        f"POST /map HTTP/1.1\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n{extra_headers}\r\n"
    ).encode("latin-1")
    return raw_roundtrip(port, head + body)


def assert_never_5xx(response: bytes) -> None:
    status = response_status(response)
    if status is None:
        return  # unanswerable garbage: connection closed, daemon alive
    assert status < 500, response[:200]
    if status >= 400:
        payload = json.loads(response_body(response))
        assert isinstance(payload, dict)
        assert "error" in payload
        assert isinstance(payload["error"], str)


class TestBodyFuzz:
    @FUZZ
    @given(body=st.binary(max_size=512))
    def test_arbitrary_bytes_as_map_body(self, client, body):
        assert_never_5xx(post_map(client.port, body))

    @FUZZ
    @given(
        doc=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=10), inner, max_size=4),
            max_leaves=10,
        )
    )
    def test_wellformed_json_wrong_shape(self, client, doc):
        body = json.dumps(doc).encode()
        response = post_map(client.port, body)
        status = response_status(response)
        assert status in (200, 400), response[:200]
        if status == 400:
            payload = json.loads(response_body(response))
            assert "error" in payload

    def test_daemon_survives_the_fuzzing(self, client):
        # Run after-the-fact sanity inside each class: still serving.
        status = response_status(
            raw_roundtrip(client.port, b"GET /healthz HTTP/1.1\r\n\r\n")
        )
        assert status == 200


class TestHeaderFuzz:
    @FUZZ
    @given(name=_line_text, value=_line_text)
    def test_arbitrary_header_lines(self, client, name, value):
        assert_never_5xx(
            post_map(client.port, b"{}", extra_headers=f"{name}:{value}\r\n")
        )

    @FUZZ
    @given(value=_line_text)
    def test_arbitrary_content_length(self, client, value):
        head = (
            f"POST /map HTTP/1.1\r\nContent-Length: {value}\r\n\r\n"
        ).encode("latin-1")
        assert_never_5xx(raw_roundtrip(client.port, head + b"{}"))

    def test_lying_content_length_closes_quietly(self, client):
        head = b"POST /map HTTP/1.1\r\nContent-Length: 1000\r\n\r\n"
        response = raw_roundtrip(client.port, head + b"{}")
        assert response_status(response) is None
        _status, payload = client.get("/healthz")
        assert payload["status"] == "ok"

    def test_negative_content_length_is_400(self, client):
        head = b"POST /map HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        assert response_status(raw_roundtrip(client.port, head)) == 400

    def test_huge_content_length_is_400(self, client):
        head = b"POST /map HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n"
        assert response_status(raw_roundtrip(client.port, head)) == 400

    def test_too_many_headers_is_400(self, client):
        headers = "".join(f"x-{i}: 1\r\n" for i in range(400))
        data = f"GET /healthz HTTP/1.1\r\n{headers}\r\n".encode()
        assert response_status(raw_roundtrip(client.port, data)) == 400

    def test_overlong_header_line_is_400(self, client):
        data = b"GET /healthz HTTP/1.1\r\nx: " + b"a" * 100_000 + b"\r\n\r\n"
        assert response_status(raw_roundtrip(client.port, data)) == 400


class TestRequestLineFuzz:
    @FUZZ
    @given(line=_line_text)
    def test_arbitrary_request_lines(self, client, line):
        assert_never_5xx(raw_roundtrip(client.port, f"{line}\r\n\r\n".encode("latin-1")))

    @FUZZ
    @given(method=_line_text, path=_line_text)
    def test_arbitrary_method_and_path(self, client, method, path):
        data = f"{method} {path} HTTP/1.1\r\n\r\n".encode("latin-1")
        assert_never_5xx(raw_roundtrip(client.port, data))

    def test_empty_connection_is_ignored(self, client):
        assert raw_roundtrip(client.port, b"") == b""
        _status, payload = client.get("/healthz")
        assert payload["status"] == "ok"


def read_from_bytes(data: bytes, limit: int):
    """:func:`read_request` over an in-memory stream holding exactly ``data``."""

    async def read():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(read())


# Near-miss requests: a request line, header lines (some of them a
# Content-Length, possibly lying or negative), a blank line, a body.
_framed = st.builds(
    lambda line, headers, body: b"\r\n".join([line, *headers, b"", body]),
    st.just(b"POST /map HTTP/1.1") | st.binary(max_size=48),
    st.lists(
        st.binary(max_size=32)
        | st.builds(lambda n: b"Content-Length: %d" % n, st.integers(-2, 64))
        | st.builds(
            b"%s:%s".__mod__,
            st.tuples(st.sampled_from([b"Host", b" X-Y ", b"content-type"]),
                      st.binary(max_size=16)),
        ),
        max_size=4,
    ),
    st.binary(max_size=48),
)


class TestFramingFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=512) | _framed, limit=st.sampled_from([16, 2**16]))
    def test_read_request_parses_or_refuses(self, data, limit):
        try:
            request = read_from_bytes(data, limit)
        except (RequestError, asyncio.IncompleteReadError):
            return
        if request is None:
            assert data == b""
            return
        method, path, headers, body = request
        assert isinstance(method, str) and method == method.upper()
        assert isinstance(path, str) and path
        for name, value in headers.items():
            assert isinstance(name, str) and name == name.strip().lower()
            assert isinstance(value, str) and value == value.strip()
        assert isinstance(body, bytes)
        assert len(body) == int(headers.get("content-length", "0") or "0")
