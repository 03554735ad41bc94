"""The results service: an asyncio HTTP front-end on the results store.

The content-addressed store (:mod:`repro.store`) already serves recorded
reports byte-identically with zero scenario resolutions — through the local
CLI.  This package puts a dependency-free HTTP/1.1 server in front of it so
every recorded figure, table and narrative becomes a cacheable URL with
``ETag`` = content hash: the "millions of readers" path never touches the
simulator, and a CDN or browser cache revalidates recorded bytes with
nothing but 304s.

Layers (each its own module, testable in isolation):

* :mod:`repro.serve.http` — protocol core: one ``asyncio.Protocol`` per
  connection that parses each request, calls the app and writes its
  response within one event-loop callback; keep-alive and pipelining,
  ``Content-Length``/chunked responses, back-pressure, graceful shutdown.
* :mod:`repro.serve.app` — routing and HTTP-caching semantics over a
  :class:`~repro.store.ResultsStore`, as a plain callable (a request never
  waits on anything but small file reads).
* :mod:`repro.serve.cache` — the bounded LRU hot-blob cache.
* :mod:`repro.serve.client` — the typed client, the background server for
  embedding, and the ``repro serve`` foreground entry point.

See ``docs/results_service.md`` for endpoints and caching semantics; the
``serve_reads`` workload of ``BENCHMARK.json`` is the service's load
benchmark.

Logging: the service logs through the stdlib ``repro.serve`` logger
(access lines at INFO with structured ``extra`` fields).  The library adds
only a :class:`logging.NullHandler`, so embedding consumers hear nothing
unless they configure handlers; ``repro serve --log-level`` attaches a
stderr handler in the CLI.
"""

import logging as _logging

_logging.getLogger("repro.serve").addHandler(_logging.NullHandler())

from repro.serve.app import ResultsApp
from repro.serve.cache import DEFAULT_CACHE_BYTES, BlobCache
from repro.serve.client import (
    BackgroundResultsServer,
    Reply,
    ResultsClient,
    ServiceError,
    run_server,
)
from repro.serve.http import HttpServer, ProtocolError, Request, Response

__all__ = [
    "BackgroundResultsServer",
    "BlobCache",
    "DEFAULT_CACHE_BYTES",
    "HttpServer",
    "ProtocolError",
    "Reply",
    "Request",
    "Response",
    "ResultsApp",
    "ResultsClient",
    "ServiceError",
    "run_server",
]
