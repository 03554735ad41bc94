"""Protocol-core tests: parsing, keep-alive, chunking, graceful shutdown.

These drive :class:`~repro.serve.http.HttpServer` with throwaway handlers
over real sockets (``asyncio.open_connection`` against a ``port=0`` bind),
so framing, persistence and shutdown semantics are tested exactly as a
client on the wire would see them.  Only the test that pins one artifact
response's head bytes puts a store (a single blob) behind the server.
"""

from __future__ import annotations

import asyncio
import json
import socket

from repro.serve.app import ResultsApp
from repro.serve.http import HttpServer, Request, Response
from repro.store import ResultsStore
from repro.version import __version__


def run(coro):
    return asyncio.run(coro)


def echo_handler(request: Request) -> Response:
    payload = {
        "method": request.method,
        "path": request.path,
        "query": request.query,
        "ua": request.headers.get("user-agent"),
        "body": request.body.decode("utf-8", "replace"),
    }
    return Response(
        body=json.dumps(payload).encode(),
        content_type="application/json",
    )


async def _raw_exchange(port, payload: bytes, *, eof: bool = False) -> bytes:
    """Everything the server sends back for ``payload`` until it closes.

    ``eof`` half-closes the client side after the payload, as a peer that
    went away mid-request does.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    if eof:
        writer.write_eof()
    await writer.drain()
    data = await asyncio.wait_for(reader.read(), timeout=5.0)
    writer.close()
    return data


async def _read_one_response(reader: asyncio.StreamReader) -> bytes:
    """Read exactly one Content-Length-framed response off a live socket."""
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    return head + await reader.readexactly(length)


def _send(payload: bytes, handler=echo_handler, *, eof: bool = False) -> bytes:
    """:func:`_raw_exchange` with a fresh server around ``handler``."""

    async def scenario():
        server = HttpServer(handler)
        await server.start()
        try:
            return await _raw_exchange(server.port, payload, eof=eof)
        finally:
            await server.close()

    return run(scenario())


async def _small_window_connection(port):
    """A client connection whose socket buffers little of what it is sent,
    so that a large answer it does not read stays in the server's transport."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 16 * 1024)
    sock.setblocking(False)
    try:
        await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", port))
    except OSError:
        sock.close()
        raise
    return await asyncio.open_connection(sock=sock, limit=16 * 1024)


def _status(raw: bytes) -> int:
    return int(raw.split(b" ", 2)[1])


def _bodies(raw: bytes):
    """The JSON bodies of every Content-Length-framed response in ``raw``."""
    bodies = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        length = next(
            int(line.split(b":", 1)[1])
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        )
        bodies.append(json.loads(rest[:length]))
        raw = rest[length:]
    return bodies


class TestLimits:
    """Each limit and malformed input answers its status, then closes."""

    def test_request_line_over_the_limit_gets_431(self):
        # The limit counts the line with its CRLF: 8,192 bytes pass.
        line = b"GET /" + b"a" * (8192 - len(b"GET / HTTP/1.1\r\n")) + b" HTTP/1.1\r\n"
        assert len(line) == 8192
        request = b"Host: t\r\nConnection: close\r\n\r\n"
        assert _status(_send(line + request)) == 200
        long_line = line.replace(b"/a", b"/aa", 1)
        raw = _send(long_line + request)
        assert raw.startswith(b"HTTP/1.1 431 ")
        assert b"Connection: close" in raw

    def test_a_line_that_does_not_end_gets_431(self):
        # 64 KiB and more without a line end, and the client still sending:
        # the server answers without waiting for the end of the line.
        raw = _send(b"GET /" + b"a" * (70 * 1024))
        assert raw.startswith(b"HTTP/1.1 431 ")

    def test_header_line_over_the_limit_gets_431(self):
        header = b"X-Long: " + b"v" * 8192 + b"\r\n"
        raw = _send(b"GET / HTTP/1.1\r\n" + header + b"\r\n")
        assert _status(raw) == 431

    def test_the_101st_header_gets_431(self):
        def request(count):
            headers = b"".join(b"X-H%d: v\r\n" % index for index in range(count - 1))
            return (
                b"GET / HTTP/1.1\r\n" + headers + b"Connection: close\r\n\r\n"
            )

        assert _status(_send(request(100))) == 200
        assert _status(_send(request(101))) == 431

    def test_body_over_one_mebibyte_gets_413(self):
        raw = _send(b"POST / HTTP/1.1\r\nHost: t\r\nContent-Length: 1048577\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 413 ")

    def test_malformed_or_negative_content_length_gets_400(self):
        for value in (b"abc", b"-1", b""):
            raw = _send(
                b"POST / HTTP/1.1\r\nHost: t\r\nContent-Length: " + value + b"\r\n\r\n"
            )
            assert raw.startswith(b"HTTP/1.1 400 "), value

    def test_malformed_header_line_gets_400(self):
        raw = _send(b"GET / HTTP/1.1\r\nno colon here\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400 ")

    def test_eof_mid_headers_gets_400(self):
        raw = _send(b"GET / HTTP/1.1\r\nHost: t\r\n", eof=True)
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in raw

    def test_eof_between_requests_closes_without_an_answer(self):
        assert _send(b"\r\n", eof=True) == b""


class TestRequestFraming:
    """Request framing: blank lines, byte-at-a-time heads, pipelining."""

    def test_leading_blank_lines_are_skipped(self):
        raw = _send(b"\r\n\n\r\nGET /x HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        assert _status(raw) == 200
        assert _bodies(raw)[0]["path"] == "/x"

    def test_head_delivered_one_byte_at_a_time(self):
        payload = (
            b"POST /slow?q=1 HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n"
            b"Connection: close\r\n\r\nok"
        )

        async def scenario():
            server = HttpServer(echo_handler)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                for index in range(len(payload)):
                    writer.write(payload[index:index + 1])
                    await writer.drain()
                    await asyncio.sleep(0.001)
                data = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                return data
            finally:
                await server.close()

        [body] = _bodies(run(scenario()))
        assert body["path"] == "/slow"
        assert body["query"] == {"q": "1"}
        assert body["body"] == "ok"

    def test_pipelined_requests_are_answered_in_order(self):
        raw = _send(
            b"GET /one HTTP/1.1\r\nHost: t\r\n\r\n"
            b"POST /two HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\nabc"
            b"GET /three HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        bodies = _bodies(raw)
        assert [body["path"] for body in bodies] == ["/one", "/two", "/three"]
        assert bodies[1]["body"] == "abc"

    def test_artifact_response_head_bytes(self, tmp_path):
        store = ResultsStore(tmp_path)
        ref = store.put_artifact("# recorded\n", "md")
        digest = ref.digest.encode()

        async def scenario():
            server = HttpServer(ResultsApp(store))
            await server.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"GET /artifacts/" + digest + b" HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                full = await _read_one_response(reader)
                writer.write(
                    b"GET /artifacts/" + digest + b" HTTP/1.1\r\nHost: t\r\n"
                    b'If-None-Match: "' + digest + b'"\r\nConnection: close\r\n\r\n'
                )
                await writer.drain()
                not_modified = await reader.read()
                writer.close()
                return full, not_modified
            finally:
                await server.close()

        full, not_modified = run(scenario())
        server = b"Server: repro-serve/" + __version__.encode() + b"\r\n"
        cache = (
            b'ETag: "' + digest + b'"\r\n'
            b"Cache-Control: public, max-age=31536000, immutable\r\n"
        )
        assert full == (
            b"HTTP/1.1 200 OK\r\n" + server
            + b"Content-Type: text/markdown; charset=utf-8\r\n" + cache
            + b"Content-Length: 11\r\nConnection: keep-alive\r\n\r\n# recorded\n"
        )
        assert not_modified == (
            b"HTTP/1.1 304 Not Modified\r\n" + server + cache
            + b"Connection: close\r\n\r\n"
        )


class TestParsing:
    def test_request_fields_reach_the_handler(self):
        async def scenario():
            server = HttpServer(echo_handler)
            await server.start()
            try:
                raw = await _raw_exchange(
                    server.port,
                    b"GET /a%20b/c?x=1&y=two HTTP/1.1\r\n"
                    b"Host: t\r\nUser-Agent: probe\r\nConnection: close\r\n\r\n",
                )
            finally:
                await server.close()
            return raw

        raw = run(scenario())
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert body["method"] == "GET"
        assert body["path"] == "/a b/c"  # percent-decoded
        assert body["query"] == {"x": "1", "y": "two"}
        assert body["ua"] == "probe"

    def test_body_is_read_per_content_length(self):
        async def scenario():
            server = HttpServer(echo_handler)
            await server.start()
            try:
                raw = await _raw_exchange(
                    server.port,
                    b"POST /in HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n"
                    b"Connection: close\r\n\r\nhello",
                )
            finally:
                await server.close()
            return raw

        body = json.loads(run(scenario()).split(b"\r\n\r\n", 1)[1])
        assert body["body"] == "hello"

    def test_malformed_request_line_gets_400(self):
        async def scenario():
            server = HttpServer(echo_handler)
            await server.start()
            try:
                return await _raw_exchange(server.port, b"NONSENSE\r\n\r\n")
            finally:
                await server.close()

        assert run(scenario()).startswith(b"HTTP/1.1 400 ")

    def test_unsupported_version_gets_505(self):
        async def scenario():
            server = HttpServer(echo_handler)
            await server.start()
            try:
                return await _raw_exchange(
                    server.port, b"GET / HTTP/2.0\r\nHost: t\r\n\r\n"
                )
            finally:
                await server.close()

        assert run(scenario()).startswith(b"HTTP/1.1 505 ")

    def test_handler_exception_is_a_500_not_a_dead_connection(self):
        def broken(_request):
            raise RuntimeError("boom")

        async def scenario():
            server = HttpServer(broken)
            await server.start()
            try:
                return await _raw_exchange(
                    server.port,
                    b"GET / HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                )
            finally:
                await server.close()

        raw = run(scenario())
        assert raw.startswith(b"HTTP/1.1 500 ")
        assert b"boom" in raw


class TestPersistence:
    def test_two_requests_share_one_keep_alive_connection(self):
        observed = []

        def observer(peer, method, path, status, written, elapsed_s):
            observed.append((method, path, status))

        async def scenario():
            server = HttpServer(echo_handler, observer=observer)
            await server.start()
            try:
                # The one connection this test opens carries both requests:
                # the server must neither close it after the first answer
                # nor need a second one.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"GET /one HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                first = await _read_one_response(reader)
                open_between = not reader.at_eof()
                writer.write(
                    b"GET /two HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
                )
                await writer.drain()
                second = await reader.read()
                writer.close()
            finally:
                await server.close()
            return first, open_between, second

        first, open_between, second = run(scenario())
        assert b'"/one"' in first and b"Connection: keep-alive" in first
        assert open_between
        assert b'"/two"' in second and b"Connection: close" in second
        assert observed == [("GET", "/one", 200), ("GET", "/two", 200)]

    def test_http10_closes_by_default(self):
        async def scenario():
            server = HttpServer(echo_handler)
            await server.start()
            try:
                return await _raw_exchange(
                    server.port, b"GET / HTTP/1.0\r\nHost: t\r\n\r\n"
                )
            finally:
                await server.close()

        raw = run(scenario())
        assert raw.startswith(b"HTTP/1.0 200 ")
        assert b"Connection: close" in raw


class TestFraming:
    def test_head_sends_headers_and_content_length_but_no_body(self):
        async def scenario():
            server = HttpServer(echo_handler)
            await server.start()
            try:
                return await _raw_exchange(
                    server.port,
                    b"HEAD /h HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                )
            finally:
                await server.close()

        raw = run(scenario())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"Content-Length:" in head
        assert body == b""

    def test_iterable_body_streams_as_chunked(self):
        def chunky(_request):
            return Response(
                body=(chunk for chunk in (b"alpha", b"", b"beta")),
                content_type="text/plain",
            )

        async def scenario():
            server = HttpServer(chunky)
            await server.start()
            try:
                return await _raw_exchange(
                    server.port,
                    b"GET /c HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                )
            finally:
                await server.close()

        raw = run(scenario())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding: chunked" in head
        assert b"Content-Length:" not in head
        # 5-byte and 4-byte chunks plus the terminator; empty chunks skipped.
        assert body == b"5\r\nalpha\r\n4\r\nbeta\r\n0\r\n\r\n"

    def test_iterable_body_materializes_for_http10(self):
        def chunky(_request):
            return Response(body=iter((b"al", b"pha")), content_type="text/plain")

        async def scenario():
            server = HttpServer(chunky)
            await server.start()
            try:
                return await _raw_exchange(
                    server.port, b"GET /c HTTP/1.0\r\nHost: t\r\n\r\n"
                )
            finally:
                await server.close()

        raw = run(scenario())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"Content-Length: 5" in head
        assert body == b"alpha"

    def test_304_carries_no_body_even_when_one_is_set(self):
        def not_modified(_request):
            return Response(status=304, body=b"should never appear")

        async def scenario():
            server = HttpServer(not_modified)
            await server.start()
            try:
                return await _raw_exchange(
                    server.port,
                    b"GET / HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                )
            finally:
                await server.close()

        raw = run(scenario())
        assert raw.startswith(b"HTTP/1.1 304 ")
        assert b"should never appear" not in raw


class TestBackPressure:
    def test_server_stops_reading_while_a_client_does_not_read(self):
        # Eight pipelined requests for 1 MiB each, to a client that reads
        # nothing at first: once the transport holds more than its
        # high-water mark the server stops reading and answering, then
        # answers the rest, in order, as the client reads.
        count = 8
        pad = b"x" * (1 << 20)
        answered = []

        def large(request):
            answered.append(request.path)
            return Response(body=request.path.encode() + b"\n" + pad)

        async def scenario():
            server = HttpServer(large)
            await server.start()
            try:
                reader, writer = await _small_window_connection(server.port)
                writer.write(
                    b"".join(
                        b"GET /%d HTTP/1.1\r\nHost: t\r\n\r\n" % index
                        for index in range(count)
                    )
                )
                await writer.drain()
                await asyncio.sleep(0.2)
                answered_before_reading = len(answered)
                responses = [
                    await asyncio.wait_for(_read_one_response(reader), timeout=5.0)
                    for _ in range(count)
                ]
                writer.close()
            finally:
                await server.close()
            return answered_before_reading, responses

        answered_before_reading, responses = run(scenario())
        assert answered_before_reading < count
        assert answered == [f"/{index}" for index in range(count)]
        for index, raw in enumerate(responses):
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK")
            assert body == b"/%d\n" % index + pad


class TestShutdown:
    def test_in_flight_request_finishes_before_close_returns(self):
        # A response is in flight while its bytes sit in the server's
        # transport: here a large one, written to a reader that has not
        # read yet.  close() must wait until the reader has it all.
        body = b"x" * (8 << 20)

        async def scenario():
            server = HttpServer(lambda _request: Response(body=body))
            await server.start()
            reader, writer = await _small_window_connection(server.port)
            writer.write(b"GET /big HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            await asyncio.sleep(0.05)  # the server has answered into its buffer
            closing = asyncio.ensure_future(server.close())
            await asyncio.sleep(0.1)
            waited = not closing.done()
            raw = await asyncio.wait_for(reader.read(), timeout=5.0)
            await asyncio.wait_for(closing, timeout=5.0)
            writer.close()
            return waited, raw

        waited, raw = run(scenario())
        assert waited  # close() was still flushing while the reader lagged
        assert raw.startswith(b"HTTP/1.1 200 OK")
        assert raw.endswith(b"\r\n\r\n" + body)

    def test_close_aborts_a_reader_that_never_reads_after_the_timeout(self):
        body = b"x" * (8 << 20)

        async def scenario():
            server = HttpServer(lambda _request: Response(body=body))
            await server.start()
            reader, writer = await _small_window_connection(server.port)
            writer.write(b"GET /big HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            await asyncio.sleep(0.05)
            await asyncio.wait_for(server.close(timeout=0.2), timeout=5.0)
            received = 0
            try:
                while True:
                    chunk = await asyncio.wait_for(reader.read(1 << 16), timeout=5.0)
                    if not chunk:
                        break
                    received += len(chunk)
            except ConnectionResetError:
                pass
            writer.close()
            return received

        assert run(scenario()) < len(body)

    def test_close_unblocks_idle_keep_alive_connections(self):
        async def scenario():
            server = HttpServer(echo_handler)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"GET /one HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            await _read_one_response(reader)
            # The connection now idles in keep-alive; close() must not hang.
            await asyncio.wait_for(server.close(), timeout=2.0)
            trailing = await reader.read()  # EOF: the server closed it
            writer.close()
            return trailing

        assert run(scenario()) == b""

    def test_access_log_records_one_line_per_request(self):
        lines = []

        async def scenario():
            server = HttpServer(echo_handler, access_log=lines.append)
            await server.start()
            try:
                await _raw_exchange(
                    server.port,
                    b"GET /logged?q=1 HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n\r\n",
                )
            finally:
                await server.close()

        run(scenario())
        assert len(lines) == 1
        assert '"GET /logged"' in lines[0]
        assert " 200 " in lines[0]
