"""repro.runtime.http: the request reader, response framing, and the
server contract every HTTP server in the repo binds.

:class:`ServerContract` holds the lifecycle, malformed-request and
bounded-drain cases once; ``tests/obs/test_server.py``,
``tests/service/test_app.py`` and ``tests/service/test_cluster.py`` bind
it to the metrics exporter, the service and the cluster router through
a ``make(port=0)`` fixture.
"""

import asyncio
import http.client
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.runtime.http import (
    MAX_BODY,
    MAX_HEADER_LINES,
    Request,
    frame_request,
    frame_response,
    json_body,
    json_response,
    read_request,
    read_response,
    retry_after_header,
)
from repro.service.router import do_forward
from repro.service.schemas import ShardUnavailableError


def parse(raw: bytes, reader_fn=read_request):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await reader_fn(reader)

    return asyncio.run(go())


class TestReadRequest:
    def test_parses_a_request(self):
        req = parse(b"post /compress?x=1 HTTP/1.1\r\nX-Client: A\r\n"
                    b"Content-Length: 3\r\n\r\nabc")
        assert req == Request("POST", "/compress",
                              {"x-client": "A", "content-length": "3"},
                              b"abc")

    def test_query_string_is_stripped(self):
        assert parse(b"GET /metrics?a=1&b=2 HTTP/1.1\r\n\r\n").path == \
            "/metrics"

    def test_header_names_are_lowercased(self):
        req = parse(b"GET / HTTP/1.1\r\nX-DEADLINE:  2.5 \r\n"
                    b"Content-TYPE: text/plain\r\n\r\n")
        assert req.headers == {"x-deadline": "2.5",
                               "content-type": "text/plain"}

    @pytest.mark.parametrize("line", [b"GARBAGE\r\n", b"\r\n", b""])
    def test_malformed_request_line(self, line):
        with pytest.raises(ValueError, match="malformed request line"):
            parse(line + b"\r\n")

    @pytest.mark.parametrize("length", ["abc", "-1", "1.5",
                                        str(MAX_BODY + 1)])
    def test_bad_content_length(self, length):
        with pytest.raises(ValueError, match="bad content-length"):
            parse(f"POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
                  .encode())

    def test_max_body_is_inclusive(self):
        # the length passes the bound; only the missing bytes fail
        with pytest.raises(asyncio.IncompleteReadError):
            parse(f"POST / HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\n"
                  .encode())

    def test_header_line_limit(self):
        def head(n):
            lines = "".join(f"X-H{i}: v\r\n" for i in range(n))
            return f"GET / HTTP/1.1\r\n{lines}\r\n".encode()

        assert len(parse(head(MAX_HEADER_LINES)).headers) == MAX_HEADER_LINES
        with pytest.raises(ValueError, match="header lines"):
            parse(head(MAX_HEADER_LINES + 1))


class TestFraming:
    def test_frame_response(self):
        raw = frame_response(404, [("Content-Type", "text/plain")], b"no")
        assert raw == (b"HTTP/1.1 404 Not Found\r\nContent-Type: text/plain"
                       b"\r\nContent-Length: 2\r\nConnection: close\r\n\r\n"
                       b"no")

    def test_unknown_status_reason(self):
        assert frame_response(418, [], b"").startswith(b"HTTP/1.1 418 Error\r\n")

    def test_response_round_trip(self):
        status, headers, body = parse(
            frame_response(*json_response(503, {"b": 1, "a": [2]},
                                          [retry_after_header(0.2)])),
            read_response)
        assert status == 503
        assert body == b'{"a": [2], "b": 1}\n'
        assert headers == {"content-type": "application/json; charset=utf-8",
                           "retry-after": "1",
                           "content-length": str(len(body)),
                           "connection": "close"}

    def test_json_body_is_sorted_with_newline(self):
        assert json_body({"z": None, "a": "é"}) == \
            b'{"a": "\\u00e9", "z": null}\n'

    @pytest.mark.parametrize("seconds, header", [
        (0.0, "1"), (0.2, "1"), (1.0, "1"), (1.5, "2"), (2.0, "2"),
        (30.0, "30")])
    def test_retry_after_rounds_up_to_whole_seconds(self, seconds, header):
        assert retry_after_header(seconds) == ("Retry-After", header)

    def test_frame_request_keeps_its_own_framing_headers(self):
        raw = frame_request("POST", "/estimate", "h:1",
                            {"host": "evil", "Content-Length": "9",
                             "x-client": "c"}, b"{}")
        assert raw == (b"POST /estimate HTTP/1.1\r\nHost: h:1\r\n"
                       b"Content-Length: 2\r\nConnection: close\r\n"
                       b"x-client: c\r\n\r\n{}")


def forward_to_stub(reply: bytes):
    """``do_forward`` against a one-shot shard that answers ``reply``."""
    async def go():
        async def shard(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(reply)
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(shard, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await do_forward(port, "GET", "/health", {}, b"",
                                    timeout=5.0)
        finally:
            server.close()

    return asyncio.run(go())


class TestForward:
    def test_relays_a_well_formed_response(self):
        status, headers, body = forward_to_stub(
            b"HTTP/1.1 200 OK\r\nX-Repro-Shard: 1\r\n"
            b"Content-Length: 3\r\n\r\nabc")
        assert (status, headers["x-repro-shard"], body) == (200, "1", b"abc")

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 OK\r\n\r\n",
        b"garbage\r\n\r\n",
        b"",
        b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: -4\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
    ], ids=["status-line", "garbage", "empty", "length-nan",
            "length-negative", "short-body"])
    def test_malformed_shard_response_is_shard_unavailable(self, reply):
        with pytest.raises(ShardUnavailableError):
            forward_to_stub(reply)


def test_http_core_is_stdlib_only():
    """``repro.runtime`` promises a bare interpreter can import it."""
    src = Path(repro.__file__).resolve().parents[1]
    code = ("import sys, repro.runtime.http; "
            "sys.exit(' '.join(m for m in sys.modules "
            "if m.split('.')[0] == 'numpy') or None)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------- #
def probe(port: int) -> int:
    """Status of ``GET /nope`` — a 404 on every server in the repo."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/nope")
        return conn.getresponse().status
    finally:
        conn.close()


class ServerContract:
    """Cases every :class:`~repro.runtime.http.HttpServer` must pass.

    A binding subclass (named ``Test*``) provides a ``make`` fixture:
    ``make(port=0)`` returns a new, unstarted server.
    """

    def test_ephemeral_port_bound(self, make):
        srv = make().start()
        try:
            assert srv.port not in (None, 0)
            assert probe(srv.port) == 404
        finally:
            srv.stop()

    def test_double_start_rejected(self, make):
        srv = make().start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                srv.start()
        finally:
            srv.stop()

    def test_bind_conflict_raises(self, make):
        first = make().start()
        try:
            with pytest.raises(RuntimeError, match="failed to bind"):
                make(first.port).start()
        finally:
            first.stop()

    def test_failed_bind_allows_retry(self, make):
        """A bind failure clears the thread handle, so the same instance
        starts once the port is free."""
        holder = make().start()
        contender = make(holder.port)
        with pytest.raises(RuntimeError, match="failed to bind"):
            contender.start()
        holder.stop()
        contender.start()
        try:
            assert contender.port == contender.requested_port
        finally:
            contender.stop()

    def test_restart_after_stop_rebinds(self, make):
        """A stopped instance resets its state on restart instead of
        reporting the stale port or startup error."""
        srv = make().start()
        srv.stop()
        srv.start()
        try:
            assert srv.port not in (None, 0)
            assert probe(srv.port) == 404
        finally:
            srv.stop()

    def test_stop_before_start_is_a_safe_noop(self, make):
        srv = make()
        srv.stop()
        srv.stop()
        srv.start()  # still startable afterwards
        try:
            assert probe(srv.port) == 404
        finally:
            srv.stop()

    def test_join_without_start_is_a_noop(self, make):
        make().join()

    def test_stop_is_idempotent(self, make):
        srv = make().start()
        srv.stop()
        srv.stop()
        with pytest.raises(ConnectionError):
            probe(srv.port)  # really down

    def test_close_then_join_frees_the_port(self, make):
        """close() does not block and may repeat; join() frees the port."""
        srv = make().start()
        port = srv.port
        srv.close()
        srv.close()
        srv.join()
        again = make(port).start()  # the port is bindable at once
        try:
            assert again.port == port
        finally:
            again.stop()

    def test_malformed_request_closes_without_response(self, make):
        srv = make().start()
        try:
            with socket.create_connection(("127.0.0.1", srv.port),
                                          timeout=10) as sock:
                sock.sendall(b"NONSENSE\r\n")
                assert sock.recv(1024) == b""
            assert probe(srv.port) == 404  # and the server lives on
        finally:
            srv.stop()

    def test_stop_bounds_a_wedged_upload(self, make):
        """A client that sends half its body and then holds the
        connection cannot keep stop() past the drain bound."""
        srv = make().start()
        with socket.create_connection(("127.0.0.1", srv.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /compress HTTP/1.1\r\n"
                         b"Content-Length: 1000\r\n\r\n" + b" " * 500)
            time.sleep(0.2)  # the handler is now parked in the body read
            t0 = time.monotonic()
            srv.stop()
            assert time.monotonic() - t0 < srv.drain_seconds + 2.0
