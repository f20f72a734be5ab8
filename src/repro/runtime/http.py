"""One small HTTP/1.1 server core shared by every server in the repo.

The ``/metrics`` exporter (:mod:`repro.obs.server`), the compression
service (:mod:`repro.service.app`) and the cluster router
(:mod:`repro.service.router`) are each a route function on top of
:class:`HttpServer`, which owns everything they have in common:

* the lifecycle — an asyncio loop on a daemon thread behind
  ``start``/``close``/``join``/``stop``; a stopped server may be started
  again, and stopping a never-started one is a no-op;
* the request reader — request line, at most :data:`MAX_HEADER_LINES`
  header lines (names lowercased), ``Content-Length`` in
  ``0..MAX_BODY``, query string stripped, with :data:`HEAD_TIMEOUT` on
  the head and :data:`BODY_TIMEOUT` on the body. A request it cannot
  parse closes the connection without a response;
* response framing — one reason table, ``Content-Length``,
  ``Connection: close`` and the route's own headers;
* the backstop — an exception out of the route becomes the server's
  :meth:`HttpServer._error_response` (a 500 unless overridden);
* a bounded drain — ``close()`` stops accepting, waits at most
  ``drain_seconds`` for in-flight handlers, then cancels the rest.

The client side the router uses to talk to shards (:func:`frame_request`,
:func:`read_response`) shares the same header-block and body readers.
Stdlib only, like the rest of :mod:`repro.runtime`.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Awaitable, Callable, Iterable, NamedTuple, Optional

__all__ = [
    "BODY_TIMEOUT",
    "HEAD_TIMEOUT",
    "HttpServer",
    "JSON_TYPE",
    "MAX_BODY",
    "MAX_HEADER_LINES",
    "REASONS",
    "Request",
    "Response",
    "frame_request",
    "frame_response",
    "json_body",
    "json_response",
    "read_body",
    "read_header_block",
    "read_request",
    "read_response",
    "retry_after_header",
]

MAX_HEADER_LINES = 100
MAX_BODY = 96 * 1024 * 1024
HEAD_TIMEOUT = 10.0  # seconds for the request line and each header line
BODY_TIMEOUT = 30.0
JSON_TYPE = "application/json; charset=utf-8"
REASONS = {200: "OK", 206: "Partial Content", 400: "Bad Request",
           404: "Not Found", 405: "Method Not Allowed",
           429: "Too Many Requests", 500: "Internal Server Error",
           502: "Bad Gateway", 503: "Service Unavailable",
           504: "Gateway Timeout"}
_BLANK = (b"\r\n", b"\n", b"")


class Request(NamedTuple):
    method: str  # upper-cased
    path: str  # query string stripped
    headers: dict[str, str]  # names lower-cased
    body: bytes


#: ``(status, [(header, value), ...], body)``; a route returning ``None``
#: drops the connection without a response.
Response = tuple[int, list[tuple[str, str]], bytes]
Route = Callable[[Request], Awaitable[Optional[Response]]]


# ---------------------------------------------------------------------- #
# wire format
async def read_header_block(reader: asyncio.StreamReader,
                            timeout: float | None = None) -> dict[str, str]:
    """Header lines up to the blank line; names lower-cased.

    Raises ``ValueError`` past :data:`MAX_HEADER_LINES` lines. ``timeout``
    bounds each line read.
    """
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES + 1):
        line = await asyncio.wait_for(reader.readline(), timeout)
        if line in _BLANK:
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raise ValueError(f"more than {MAX_HEADER_LINES} header lines")


async def read_body(reader: asyncio.StreamReader, headers: dict[str, str],
                    timeout: float | None = None) -> bytes:
    """The ``Content-Length`` bytes that follow a header block.

    Raises ``ValueError`` for a length that is not a decimal integer in
    ``0..MAX_BODY``, and ``asyncio.IncompleteReadError`` on a short body.
    """
    raw = headers.get("content-length", "").strip() or "0"
    if not (raw.isascii() and raw.isdigit()) or int(raw) > MAX_BODY:
        raise ValueError(f"bad content-length {raw!r}")
    length = int(raw)
    if not length:
        return b""
    return await asyncio.wait_for(reader.readexactly(length), timeout)


async def read_request(reader: asyncio.StreamReader) -> Request:
    """Parse one request; ``ValueError`` / ``EOFError`` / ``OSError`` if
    it is malformed, truncated or too slow."""
    line = await asyncio.wait_for(reader.readline(), HEAD_TIMEOUT)
    parts = line.decode("latin-1").split()
    if len(parts) < 2:
        raise ValueError(f"malformed request line {line!r}")
    headers = await read_header_block(reader, HEAD_TIMEOUT)
    body = await read_body(reader, headers, BODY_TIMEOUT)
    return Request(parts[0].upper(), parts[1].split("?", 1)[0], headers, body)


async def read_response(
        reader: asyncio.StreamReader) -> tuple[int, dict[str, str], bytes]:
    """Parse one response: ``(status, lower-cased headers, body)``."""
    line = await reader.readline()
    parts = line.decode("latin-1").split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise ValueError(f"malformed status line {line!r}")
    headers = await read_header_block(reader)
    return int(parts[1]), headers, await read_body(reader, headers)


def frame_response(status: int, headers: list[tuple[str, str]],
                   body: bytes) -> bytes:
    head = [f"HTTP/1.1 {status} {REASONS.get(status, 'Error')}",
            *(f"{k}: {v}" for k, v in headers),
            f"Content-Length: {len(body)}",
            "Connection: close"]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def frame_request(method: str, path: str, host: str,
                  headers: dict[str, str], body: bytes) -> bytes:
    """A one-shot request; ``headers`` may not override the framing ones."""
    head = [f"{method} {path} HTTP/1.1",
            f"Host: {host}",
            f"Content-Length: {len(body)}",
            "Connection: close"]
    head.extend(f"{k}: {v}" for k, v in headers.items()
                if k.lower() not in ("host", "content-length", "connection"))
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def json_body(doc) -> bytes:
    """The canonical JSON body: sorted keys, trailing newline."""
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def json_response(status: int, doc,
                  headers: Iterable[tuple[str, str]] = ()) -> Response:
    return status, [("Content-Type", JSON_TYPE), *headers], json_body(doc)


def retry_after_header(seconds: float) -> tuple[str, str]:
    """``Retry-After`` in whole seconds, rounded up, at least 1."""
    return "Retry-After", str(max(1, int(seconds + 0.999)))


# ---------------------------------------------------------------------- #
class HttpServer:
    """Threaded-asyncio HTTP/1.1 server around one route function.

    ``port=0`` binds an ephemeral port; read the real one from ``.port``
    after :meth:`start`. ``route`` runs on the loop thread for every
    parsed request. Subclasses set :attr:`thread_name` and may override
    :meth:`_error_response`.
    """

    thread_name = "repro-http"

    def __init__(self, host: str, port: int, route: Route, *,
                 drain_seconds: float) -> None:
        self.host = host
        self.requested_port = int(port)
        self.port: int | None = None
        self.drain_seconds = float(drain_seconds)
        self._route_request = route
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None
        self._handlers: set[asyncio.Task] = set()  # loop thread only
        self._lifecycle = threading.Lock()

    # ------------------------------------------------------------------ #
    def start(self):
        """Bind and serve on a daemon thread; returns self when ready.

        Raises ``RuntimeError`` on a double start, and ``RuntimeError``
        chained from the ``OSError`` when the port cannot be bound.
        """
        name = type(self).__name__
        with self._lifecycle:
            if self._thread is not None:
                raise RuntimeError(f"{name} already started")
            self._started.clear()
            self._error = None
            self._loop = None
            self._stop = None
            self.port = None
            self._thread = threading.Thread(
                target=lambda: asyncio.run(self._serve()),
                name=self.thread_name, daemon=True)
            self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError(f"{name} failed to start within 10s")
        if self._error is not None:
            with self._lifecycle:
                thread, self._thread = self._thread, None
            if thread is not None:
                thread.join()
            raise RuntimeError(
                f"{name} failed to bind {self.host}:"
                f"{self.requested_port}") from self._error
        return self

    def close(self) -> None:
        """Begin shutdown without blocking; safe to call more than once."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already closed
                pass

    def join(self, timeout: float = 30.0) -> None:
        """Wait for the server thread to exit; frees the port on return.

        Raises ``RuntimeError`` if the thread is still alive after
        ``timeout``: a leaked port must fail loudly.
        """
        with self._lifecycle:
            thread = self._thread
        if thread is None:
            return
        thread.join(timeout=timeout)
        if thread.is_alive():
            raise RuntimeError(f"{type(self).__name__} thread did not exit "
                               f"within {timeout}s")
        with self._lifecycle:
            if self._thread is thread:
                self._thread = None

    def stop(self) -> None:
        """Drain and stop; a no-op when not running."""
        with self._lifecycle:
            if self._thread is None:
                return
        self.close()
        self.join()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    async def _serve(self) -> int:
        """Serve until :meth:`close`; returns the handlers cut off by the
        drain bound."""
        self._stop = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        try:
            server = await asyncio.start_server(
                self._handle, self.host, self.requested_port)
        except OSError as exc:
            self._error = exc
            self._started.set()
            return 0
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        await self._stop.wait()
        # stop accepting, then give in-flight requests the drain bound to
        # answer. Server.wait_closed() is never awaited: since 3.12.1 it
        # also waits for every open connection, so one wedged client
        # would hold the drain open forever.
        server.close()
        pending = set(self._handlers)
        if pending:
            _, pending = await asyncio.wait(
                pending, timeout=max(0.0, self.drain_seconds))
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.wait(pending)
        return len(pending)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            try:
                request = await read_request(reader)
            except (ValueError, EOFError, OSError, asyncio.TimeoutError):
                return  # unparseable: close without a response
            try:
                response = await self._route_request(request)
            # the backstop: a route bug degrades to an error response,
            # never a dropped connection or a dead server task.
            except Exception as exc:  # noqa: BLE001
                response = self._error_response(exc)
            if response is None:
                return
            writer.write(frame_response(*response))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):  # client went away mid-response
            pass
        finally:
            self._handlers.discard(task)
            writer.close()

    def _error_response(self, exc: Exception) -> Response:
        """The response for an exception the route raised."""
        return (500, [("Content-Type", "text/plain; charset=utf-8")],
                f"internal error: {type(exc).__name__}: {exc}\n".encode())
