"""The protocol core of the results service: a tiny asyncio HTTP/1.1 server.

This module knows nothing about stores or manifests — it parses requests,
writes responses and manages connections, and hands every parsed
:class:`Request` to one handler that returns a :class:`Response`.
The split mirrors the store layering (manifest = data, store = I/O): the
routing and caching semantics live in :mod:`repro.serve.app`, so the
protocol layer can be tested with throwaway handlers and the handler layer
with a real store.

Each connection is one :class:`asyncio.Protocol`.  It buffers the bytes it
receives and parses the request head line by line as the lines complete;
once a request (head and body) is whole, it calls the handler — a plain
function: serving recorded results never waits on anything but small file
reads — and writes the response with one ``transport.write``.  A request
is answered inside the event-loop callback that delivered its last byte.

Scope is deliberately the subset the results service needs, done carefully:

* request parsing with hard limits (request line, header count/size, body),
  returning ``400``/``413``/``431``/``505`` instead of dying on bad input;
  leading blank lines are skipped, and EOF in the middle of a request head
  answers ``400``;
* keep-alive by HTTP/1.1 default (``Connection: close`` and HTTP/1.0
  semantics honoured); pipelined requests are answered one at a time, in
  order;
* ``Content-Length`` responses for byte bodies and ``Transfer-Encoding:
  chunked`` for iterable bodies, with ``HEAD`` sending headers only;
* back-pressure: while the transport holds more unsent bytes than its
  high-water mark, the connection stops reading and answering, and carries
  on once the peer has read them;
* graceful shutdown: :meth:`HttpServer.close` stops accepting, closes idle
  connections at once, lets every other connection flush the responses
  already written, and aborts those still flushing after the timeout.

No dependency beyond the standard library, matching the repo's rule that
the "millions of readers" path must not drag in a web framework.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import Callable, Dict, Iterable, Optional, Set, Tuple, Union
from urllib.parse import parse_qsl, unquote

from repro.version import __version__

#: Parsing limits — small enough to bound memory per connection, large
#: enough for any URL the service legitimately serves (fingerprints are 64
#: hex characters).  A line's limit counts its terminator.
MAX_REQUEST_LINE_BYTES = 8192
MAX_HEADER_COUNT = 100
MAX_BODY_BYTES = 1 << 20

SUPPORTED_VERSIONS = ("HTTP/1.0", "HTTP/1.1")

#: Statuses that must not carry a message body (RFC 7230 §3.3.3).
BODYLESS_STATUSES = frozenset({204, 304})

SERVER_NAME = f"repro-serve/{__version__}"

#: Lines that end a request head, or that precede a request line.
_BLANK_LINES = (b"\r\n", b"\n")

AccessLog = Callable[[str], None]

#: Structured per-request hook: ``observer(peer, method, path, status,
#: written_bytes, elapsed_s)``.  This is what the metrics registry and the
#: structured access logger hang off — the protocol layer stays free of
#: both policies.
RequestObserver = Callable[[str, str, str, int, int, float], None]


class ProtocolError(Exception):
    """A malformed or over-limit request; carries the status to answer with."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request (headers lower-cased, path percent-decoded)."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    version: str = "HTTP/1.1"
    body: bytes = b""

    @property
    def wants_keep_alive(self) -> bool:
        """Connection persistence per the request's own version and headers."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def if_none_match(self) -> Optional[str]:
        return self.headers.get("if-none-match")


@dataclass
class Response:
    """One response: a byte body (``Content-Length``) or chunk iterable.

    ``headers`` are extra headers beyond the ones the writer owns
    (``Content-Length`` / ``Transfer-Encoding``, ``Connection``,
    ``Server``).  A ``bytes`` body is sent with ``Content-Length``; any
    other iterable of byte chunks streams as ``Transfer-Encoding: chunked``
    on HTTP/1.1 (and is materialized for HTTP/1.0, which predates chunking).
    """

    status: int = 200
    body: Union[bytes, Iterable[bytes]] = b""
    content_type: Optional[str] = None
    headers: Tuple[Tuple[str, str], ...] = ()

    @property
    def reason(self) -> str:
        try:
            return HTTPStatus(self.status).phrase
        except ValueError:
            return "Unknown"


#: The application behind the server: called once per request, on the
#: event loop, so it must not block for long.
Handler = Callable[[Request], Response]


def encode_response(
    response: Response,
    *,
    head_only: bool = False,
    keep_alive: bool = True,
    version: str = "HTTP/1.1",
) -> Tuple[bytes, int]:
    """One response's bytes on the wire, and how many of them are body."""
    body = response.body
    chunked = not isinstance(body, (bytes, bytearray, memoryview))
    if chunked and version == "HTTP/1.0":
        body = b"".join(body)  # HTTP/1.0 peers cannot decode chunking
        chunked = False

    headers = [("Server", SERVER_NAME)]
    if response.content_type is not None:
        headers.append(("Content-Type", response.content_type))
    headers.extend(response.headers)
    if response.status in BODYLESS_STATUSES:
        body = b""
        chunked = False
    elif chunked:
        headers.append(("Transfer-Encoding", "chunked"))
    else:
        headers.append(("Content-Length", str(len(body))))
    headers.append(("Connection", "keep-alive" if keep_alive else "close"))

    head = [f"{version} {response.status} {response.reason}"]
    head.extend(f"{name}: {value}" for name, value in headers)
    parts = [("\r\n".join(head) + "\r\n\r\n").encode("latin-1")]

    written = 0
    if not head_only:
        if chunked:
            for chunk in body:
                if not chunk:
                    continue
                parts.append(f"{len(chunk):x}\r\n".encode("latin-1"))
                parts.append(bytes(chunk) + b"\r\n")
                written += len(chunk)
            parts.append(b"0\r\n\r\n")
        elif body:
            parts.append(bytes(body))
            written = len(body)
    return b"".join(parts), written


class _Connection(asyncio.Protocol):
    """One client connection: request parsing, answering and back-pressure.

    Parsing state between callbacks: ``_start`` is ``(method, target,
    version)`` once the request line is in, ``_headers`` the header lines
    so far, and ``_body_length`` the ``Content-Length`` of the body to
    read once the head is complete (``None`` while reading the head).
    """

    def __init__(self, server: "HttpServer") -> None:
        self._server = server
        self.transport: asyncio.Transport  # set by connection_made
        self.closed = asyncio.get_running_loop().create_future()
        self._peer = ""
        self._buffer = bytearray()
        self._start: Optional[Tuple[str, str, str]] = None
        self._headers: Dict[str, str] = {}
        self._body_length: Optional[int] = None
        self._writing_paused = False

    # ------------------------------------------------------------------ #
    # asyncio.Protocol callbacks
    # ------------------------------------------------------------------ #
    def connection_made(self, transport: asyncio.Transport) -> None:  # type: ignore[override]
        self.transport = transport
        server = self._server
        if server._closing:  # accepted just before close() stopped the listener
            transport.close()
            return
        server._connections.add(self)
        peer = transport.get_extra_info("peername")
        self._peer = peer[0] if isinstance(peer, tuple) else str(peer)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        if buffer:
            buffer += data
            if self._body_length is not None and len(buffer) < self._body_length:
                return  # a body still arriving
            data = bytes(buffer)
            buffer.clear()
        self._answer_buffered(data)

    def eof_received(self) -> bool:
        # Reading stops while writing is paused, so every complete request
        # has been answered by now.  What is left is a clean end between
        # requests, a body cut short (dropped unanswered), or part of a head:
        # a trailing partial line is parsed as a line, as a line reader
        # would return it, and the head is still unfinished — a 400.
        if self._body_length is None and (self._start is not None or self._buffer):
            try:
                if self._buffer:
                    self._parse_line(bytes(self._buffer))
                raise ProtocolError("connection closed mid-headers")
            except ProtocolError as exc:
                self._answer_error(exc)
        return False  # close once the responses written so far are flushed

    def pause_writing(self) -> None:
        self._writing_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._writing_paused = False
        data = bytes(self._buffer)
        self._buffer.clear()
        self._answer_buffered(data)
        if not self._writing_paused and not self.transport.is_closing():
            self.transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._server._connections.discard(self)
        self._buffer.clear()
        if not self.closed.done():
            self.closed.set_result(None)

    # ------------------------------------------------------------------ #
    # Parsing and answering
    # ------------------------------------------------------------------ #
    def _answer_buffered(self, data: bytes) -> None:
        """Answer every complete request in ``data``, in order; keep the rest.

        ``data`` is what the connection has received and not yet parsed.
        Stops when no complete request is left, when the transport is
        closing (a ``Connection: close`` answer, an error, shutdown) and
        while writing is paused.  The rest is kept for the next call: a
        partial head line, the part of a body that has arrived, or, while
        writing is paused, requests not yet answered.
        """
        transport = self.transport
        pos = 0
        try:
            while not self._writing_paused and not transport.is_closing():
                if self._body_length is None:
                    end = data.find(b"\n", pos)
                    if end < 0:
                        if len(data) - pos > MAX_REQUEST_LINE_BYTES:
                            raise ProtocolError("request line too long", status=431)
                        break
                    line = data[pos : end + 1]
                    pos = end + 1
                    if len(line) > MAX_REQUEST_LINE_BYTES:
                        raise ProtocolError("request line too long", status=431)
                    self._parse_line(line)
                    if self._body_length != 0:
                        continue  # more head lines, or a body, to come
                elif len(data) - pos < self._body_length:
                    break
                body = data[pos : pos + self._body_length]
                pos += self._body_length
                self._answer(body)
        except ProtocolError as exc:
            self._answer_error(exc)
        if pos < len(data):
            self._buffer += memoryview(data)[pos:]

    def _parse_line(self, line: bytes) -> None:
        """Take one head line; sets ``_body_length`` when the head is whole."""
        if self._start is None:
            if line in _BLANK_LINES:  # tolerate leading blank lines (RFC 7230 §3.5)
                return
            try:
                method, target, version = line.decode("latin-1").split()
            except ValueError:
                raise ProtocolError(f"malformed request line: {line[:80]!r}") from None
            if version not in SUPPORTED_VERSIONS:
                raise ProtocolError(
                    f"unsupported protocol version {version!r}", status=505
                )
            self._start = (method, target, version)
            return
        headers = self._headers
        if line not in _BLANK_LINES:
            if len(headers) >= MAX_HEADER_COUNT:
                raise ProtocolError("too many headers", status=431)
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep or not name.strip():
                raise ProtocolError(f"malformed header line: {line[:80]!r}")
            headers[name.strip().lower()] = value.strip()
            return
        length = 0
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise ProtocolError("malformed Content-Length") from None
            if length < 0:
                raise ProtocolError("malformed Content-Length")
            if length > MAX_BODY_BYTES:
                raise ProtocolError("request body too large", status=413)
        self._body_length = length

    def _answer(self, body: bytes) -> None:
        """Call the handler on the request now complete and write its answer."""
        assert self._start is not None
        method, target, version = self._start
        raw_path, _, raw_query = target.partition("?")
        request = Request(
            method=method,
            path=unquote(raw_path),
            query=dict(parse_qsl(raw_query)),
            headers=self._headers,
            version=version,
            body=body,
        )
        self._start = None
        self._headers = {}
        self._body_length = None

        server = self._server
        began = time.perf_counter()
        try:
            response = server.handler(request)
        except Exception as exc:  # noqa: BLE001 - one request, not the server
            response = Response(
                status=500,
                body=f"internal error: {type(exc).__name__}: {exc}\n".encode(),
                content_type="text/plain; charset=utf-8",
            )
        keep_alive = request.wants_keep_alive
        data, written = encode_response(
            response,
            head_only=method == "HEAD",
            keep_alive=keep_alive,
            version=version,
        )
        self.transport.write(data)
        if not keep_alive:
            self.transport.close()
        elapsed_s = time.perf_counter() - began
        if server.observer is not None:
            server.observer(
                self._peer, method, request.path, response.status, written, elapsed_s
            )
        if server.access_log is not None:
            server.access_log(
                f'{self._peer} "{method} {request.path}" '
                f"{response.status} {written}B {elapsed_s * 1e3:.1f}ms"
            )

    def _answer_error(self, exc: ProtocolError) -> None:
        """Answer a request that cannot be parsed, and close."""
        data, _ = encode_response(
            Response(
                status=exc.status,
                body=f"{exc}\n".encode(),
                content_type="text/plain; charset=utf-8",
            ),
            keep_alive=False,
        )
        self.transport.write(data)
        self.transport.close()


class HttpServer:
    """One handler behind ``loop.create_server``, with graceful shutdown.

    Usage::

        server = HttpServer(app, host="127.0.0.1", port=0, access_log=print)
        await server.start()          # binds; server.port is the real port
        await server.serve_forever()  # or: await server.close() from elsewhere
    """

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
        access_log: Optional[AccessLog] = None,
        observer: Optional[RequestObserver] = None,
    ) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.access_log = access_log
        self.observer = observer
        self._server: Optional[asyncio.AbstractServer] = None
        # Open connections, each removed when its transport is gone.
        self._connections: Set[_Connection] = set()
        self._closing = False

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), host=self.host, port=self.port
        )
        # port=0 asks the OS for a free port; reflect the real one back.
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("serve_forever() before start()")
        await self._server.serve_forever()

    async def close(self, timeout: float = 5.0) -> None:
        """Stop accepting, flush written responses, close every connection.

        A response is written whole in the callback that completed its
        request, so what is in flight at shutdown is bytes the transport
        has not sent yet.  Idle connections close at once; a connection
        with unsent bytes stops reading and closes when they are sent, or
        is aborted after ``timeout`` seconds.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
        connections = list(self._connections)
        for connection in connections:
            connection.transport.close()
        if connections:
            _, pending = await asyncio.wait(
                [connection.closed for connection in connections], timeout=timeout
            )
            if pending:
                for connection in connections:
                    if not connection.closed.done():
                        connection.transport.abort()
                await asyncio.wait(pending)
        if self._server is not None:
            await self._server.wait_closed()
