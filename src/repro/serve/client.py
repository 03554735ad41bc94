"""A typed client for the results service, plus an embeddable server.

:class:`ResultsClient` wraps one keep-alive ``http.client`` connection with
typed methods mirroring the routes (``healthz`` / ``manifests`` /
``manifest`` / ``artifact`` / ``report``) and first-class conditional GET:
pass the ``etag`` a previous reply carried and a ``304`` comes back as a
:class:`Reply` with ``not_modified=True`` and an empty body.  Tests and the
``serve_reads`` load benchmark drive the service through it, so the client
is exercised by the same suite that defines the server's behaviour.

:class:`BackgroundResultsServer` runs a :class:`~repro.serve.app.ResultsApp`
on a daemon thread with its own event loop — the embedding surface for
tests, benchmarks, and anything else that wants a live results URL next to
in-process code.  ``repro serve`` (the CLI) runs the same app in the
foreground instead.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.serve.app import ResultsApp
from repro.serve.cache import DEFAULT_CACHE_BYTES
from repro.serve.http import AccessLog, HttpServer, RequestObserver
from repro.store import ResultsStore

#: The service's stdlib logger.  The package installs only a NullHandler,
#: so embedding consumers decide whether access lines go anywhere; the CLI
#: attaches a stderr handler via ``repro serve --log-level``.
logger = logging.getLogger("repro.serve")


def _observer_for(app: ResultsApp, log: bool) -> RequestObserver:
    """Metrics + (optionally) structured access logging for one app.

    The access line and its ``extra`` fields are built only when the
    ``repro.serve`` logger passes INFO.
    """

    def observe(
        peer: str, method: str, path: str, status: int, written: int, elapsed_s: float
    ) -> None:
        app.record_request(method, path, status, elapsed_s)
        if log and logger.isEnabledFor(logging.INFO):
            logger.info(
                '%s "%s %s" %d %dB %.1fms',
                peer,
                method,
                path,
                status,
                written,
                elapsed_s * 1e3,
                extra={
                    "peer": peer,
                    "method": method,
                    "path": path,
                    "status": status,
                    "bytes": written,
                    "elapsed_ms": round(elapsed_s * 1e3, 3),
                },
            )

    return observe


class ServiceError(RuntimeError):
    """An HTTP status the typed accessor did not expect; carries the reply."""

    def __init__(self, message: str, reply: "Reply") -> None:
        super().__init__(message)
        self.reply = reply


@dataclass(frozen=True)
class Reply:
    """One HTTP exchange's result, with the caching fields first-class."""

    status: int
    headers: Dict[str, str]
    body: bytes

    @property
    def etag(self) -> Optional[str]:
        value = self.headers.get("etag")
        return value.strip('"') if value is not None else None

    @property
    def content_type(self) -> Optional[str]:
        return self.headers.get("content-type")

    @property
    def not_modified(self) -> bool:
        return self.status == 304

    def json(self) -> Any:
        return json.loads(self.body.decode("utf-8"))


class ResultsClient:
    """One keep-alive connection to a results service."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def request(
        self, method: str, path: str, etag: Optional[str] = None
    ) -> Reply:
        headers = {"Host": f"{self.host}:{self.port}"}
        if etag is not None:
            headers["If-None-Match"] = f'"{etag}"'
        try:
            return self._exchange(method, path, headers)
        except (ConnectionError, http.client.HTTPException, OSError):
            # The server may have closed an idle keep-alive connection (or
            # this is the first request); reconnect once.
            self.close()
            return self._exchange(method, path, headers)

    def _exchange(self, method: str, path: str, headers: Dict[str, str]) -> Reply:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        self._connection.request(method, path, headers=headers)
        response = self._connection.getresponse()
        body = response.read()
        reply_headers = {name.lower(): value for name, value in response.getheaders()}
        if reply_headers.get("connection") == "close":
            self.close()
        return Reply(status=response.status, headers=reply_headers, body=body)

    def get(self, path: str, etag: Optional[str] = None) -> Reply:
        return self.request("GET", path, etag=etag)

    def head(self, path: str, etag: Optional[str] = None) -> Reply:
        return self.request("HEAD", path, etag=etag)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ResultsClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Typed accessors
    # ------------------------------------------------------------------ #
    def _expect(self, reply: Reply, path: str, conditional: bool) -> Reply:
        allowed = (200, 304) if conditional else (200,)
        if reply.status not in allowed:
            detail = reply.body.decode("utf-8", "replace").strip()
            raise ServiceError(f"GET {path} -> {reply.status}: {detail}", reply)
        return reply

    def healthz(self) -> Dict[str, Any]:
        return self._expect(self.get("/healthz"), "/healthz", False).json()

    def manifests(self) -> List[Dict[str, Any]]:
        reply = self._expect(self.get("/manifests"), "/manifests", False)
        return reply.json()["manifests"]

    def manifest(self, fingerprint: str) -> Dict[str, Any]:
        path = f"/manifests/{fingerprint}"
        return self._expect(self.get(path), path, False).json()

    def artifact(self, digest: str, etag: Optional[str] = None) -> Reply:
        path = f"/artifacts/{digest}"
        return self._expect(self.get(path, etag=etag), path, etag is not None)

    def report(
        self, fingerprint: str, name: str, etag: Optional[str] = None
    ) -> Reply:
        path = f"/reports/{fingerprint}/{name}"
        return self._expect(self.get(path, etag=etag), path, etag is not None)

    def point(self, cache_key: str) -> Dict[str, Any]:
        """One recorded point from the store-wide index, by cache key."""
        path = f"/points/{cache_key}"
        return self._expect(self.get(path), path, False).json()


class BackgroundResultsServer:
    """A results service on a daemon thread (its own asyncio loop).

    Context-managed::

        with BackgroundResultsServer(store_dir) as server:
            client = ResultsClient(server.host, server.port)
            ...

    ``port=0`` (the default) binds an OS-assigned free port, published via
    ``server.port`` once ``start`` returns.  ``stop`` performs the graceful
    shutdown the protocol core implements: in-flight responses finish, idle
    keep-alive connections close.
    """

    def __init__(
        self,
        store_dir,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        access_log: Optional[AccessLog] = None,
    ) -> None:
        self.store_dir = store_dir
        self.host = host
        self.port = port
        self.app = ResultsApp(ResultsStore(store_dir), cache_bytes=cache_bytes)
        self._access_log = access_log
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "BackgroundResultsServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("results service failed to start within 10s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"results service failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        # Idempotent: a second stop (e.g. from a finally block after the
        # server was already bounced) must be a no-op, not a call into a
        # closed event loop.
        loop, stop_event = self._loop, self._stop_event
        self._loop = self._stop_event = None
        if loop is not None and stop_event is not None:
            loop.call_soon_threadsafe(stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        server = HttpServer(
            self.app,
            host=self.host,
            port=self.port,
            access_log=self._access_log,
            observer=_observer_for(self.app, log=False),
        )
        await server.start()
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._ready.set()
        await self._stop_event.wait()
        await server.close()

    def __enter__(self) -> "BackgroundResultsServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


def run_server(
    store_dir, host: str = "127.0.0.1", port: int = 8787
) -> int:
    """The ``repro serve`` entry point: foreground, access-logged, Ctrl-C.

    Prints the bound address on stdout (flushed, so a scripted caller — the
    CI smoke job — can wait for readiness), logs one access line per request
    through the ``repro.serve`` stdlib logger (the CLI attaches a stderr
    handler; see ``repro serve --log-level``), and shuts down gracefully on
    SIGINT: in-flight responses finish before the process exits.
    """
    store = ResultsStore(store_dir)
    app = ResultsApp(store)

    async def serve() -> None:
        server = HttpServer(
            app, host=host, port=port, observer=_observer_for(app, log=True)
        )
        await server.start()
        print(
            f"repro serve: results store {store.directory} on "
            f"http://{server.host}:{server.port} (Ctrl-C to stop)",
            flush=True,
        )
        logger.info(
            "serving store %s on http://%s:%d",
            store.directory,
            server.host,
            server.port,
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        logger.info("shutting down")
    return 0
