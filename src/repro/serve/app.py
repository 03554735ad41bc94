"""The results service's handler layer: routes over a ``ResultsStore``.

Every recorded figure, table and narrative becomes a cacheable URL:

* ``GET /healthz`` — liveness plus store and hot-cache counters, service
  version, pid, uptime and requests served.
* ``GET /metrics`` — the service's instruments in the Prometheus text
  exposition format: request counts and latency histograms (by method and
  status), hot-blob-cache hits/misses/evictions and occupancy, store
  manifest count and size.  See ``docs/observability.md``.
* ``GET /manifests`` — index of recorded runs (newest first), the JSON
  shape of ``repro store list --format json``.
* ``GET /manifests/<fingerprint>`` — one manifest's full JSON; a unique
  prefix is enough, an ambiguous one answers ``300 Multiple Choices`` with
  the matching fingerprints.
* ``GET /artifacts/<sha256>`` — one rendered blob by content address, with
  the ``Content-Type`` derived from its on-disk extension.  The address
  *is* the content, so the response carries ``Cache-Control: immutable``.
* ``GET /reports/<fingerprint>/<name>`` — a recorded rendering by role:
  ``report_md`` / ``report_json`` / ``narrative_md`` at manifest level, or
  ``<subgrid>/<md|csv|json>`` for one sub-grid's table.
* ``GET /points/<cache_key>`` — one recorded point straight from the
  store-wide point index: its owning manifest fingerprint, sub-grid, label,
  settings, measured row, status and result-artifact reference.  Answered
  without loading any manifest; an unindexed key is a ``404`` with a
  ``repro store index`` hint.

Caching semantics, uniform across routes: the ``ETag`` is always a strong
content hash (for blobs, the blob's own SHA-256 — the same string as its
URL under ``/artifacts/``), ``If-None-Match`` answers ``304 Not Modified``
without touching the blob, and ``HEAD`` is ``GET`` minus the body.  Blob
reads re-verify their content address and go through a bounded LRU hot
cache; a tampered or missing blob is a ``404`` with a ``repro store
verify`` hint, never forged bytes.

Every request sees the store as it is on disk, but work is done once per
on-disk version: the store parses a manifest only when its file's bytes
change, and the JSON bodies (and ETags) of ``/manifests`` and
``/manifests/<fingerprint>`` are rendered again only when the store hands
back a different :class:`~repro.store.Manifest` object.

The app is a plain callable: the protocol core calls it on the event loop
once per request, inside the callback that completed the request, and
writes what it returns.  Every operation here is an in-memory or
small-file read — the point of the service is that serving recorded
results never resolves a scenario or runs the simulator, so there is
nothing to wait for.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.obs import Counter, Histogram, MetricsRegistry, span
from repro.serve.cache import DEFAULT_CACHE_BYTES, BlobCache
from repro.serve.http import Request, Response
from repro.version import __version__
from repro.store import (
    AmbiguousFingerprintError,
    ArtifactRef,
    Manifest,
    ResultsStore,
    StoreError,
    content_digest,
    content_type_for,
    manifest_summary,
)

JSON_TYPE = "application/json; charset=utf-8"

#: The Prometheus text exposition format's registered content type.
METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Artifacts are content-addressed: the URL names the bytes, so any cache
#: may keep them forever.
IMMUTABLE_CACHE = "public, max-age=31536000, immutable"
#: Reports are looked up by role under a fingerprint; a re-recorded run can
#: re-bind the role, so caches must revalidate — which the strong ETag makes
#: a cheap 304.
REVALIDATE_CACHE = "no-cache"

VERIFY_HINT = "run `repro store verify --store-dir <dir>` to diagnose the store"

#: The ``method`` and ``route`` label values ``/metrics`` counts requests
#: under.  Both labels come from the client, so anything else is counted
#: as :data:`OTHER_LABEL`: a client cannot grow the series set.
METHOD_LABELS = frozenset({"GET", "HEAD"})
ROUTE_LABELS = frozenset(
    {"/", "/healthz", "/metrics", "/manifests", "/artifacts", "/reports", "/points"}
)
OTHER_LABEL = "other"


def _etag_matches(header: Optional[str], etag: str) -> bool:
    """``If-None-Match`` comparison (strong ETags; ``W/`` prefixes ignored)."""
    if header is None:
        return False
    if header.strip() == "*":
        return True
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:].strip()
        if candidate.strip('"') == etag:
            return True
    return False


def _json_body(payload: object) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _etagged(payload: object) -> Tuple[bytes, str]:
    """A JSON body and its ETag, the hash of its own bytes."""
    body = _json_body(payload)
    return body, content_digest(body)


class ResultsApp:
    """The handler behind :class:`~repro.serve.http.HttpServer`."""

    def __init__(
        self, store: ResultsStore, cache_bytes: int = DEFAULT_CACHE_BYTES
    ) -> None:
        self.store = store
        # One registry spans the cache's counters and the HTTP metrics, so
        # `/metrics` renders every series in a single pass.
        self.metrics = MetricsRegistry()
        self.blob_cache = BlobCache(cache_bytes, registry=self.metrics)
        self.started_monotonic = time.monotonic()
        self._requests_served = 0
        # Rendered manifest documents: key -> (the manifests rendered,
        # body, ETag).  "" is the /manifests index, a fingerprint is
        # /manifests/<fingerprint>.
        self._documents: Dict[str, Tuple[Tuple[Manifest, ...], bytes, str]] = {}
        # The request counter and latency histogram of each (method, route,
        # status) label set, looked up once; the labels are folded to
        # bounded sets, so this stays small.
        self._request_instruments: Dict[Tuple[str, str, int], Tuple[Counter, Histogram]] = {}

    def record_request(
        self, method: str, path: str, status: int, elapsed_s: float
    ) -> None:
        """Per-request accounting hook, wired to the protocol layer's observer.

        Paths are reduced to their route class (``/artifacts/<sha>`` counts
        as ``/artifacts``) so the label set stays bounded no matter how many
        blobs the store holds; unknown routes and methods count as
        :data:`OTHER_LABEL`.
        """
        self._requests_served += 1
        route = "/" + path.strip("/").split("/", 1)[0] if path.strip("/") else "/"
        if route not in ROUTE_LABELS:
            route = OTHER_LABEL
        if method not in METHOD_LABELS:
            method = OTHER_LABEL
        key = (method, route, status)
        instruments = self._request_instruments.get(key)
        if instruments is None:
            instruments = self._request_instruments[key] = (
                self.metrics.counter(
                    "repro_http_requests_total",
                    "HTTP requests served, by method, route and status.",
                    method=method,
                    route=route,
                    status=str(status),
                ),
                self.metrics.histogram(
                    "repro_http_request_seconds",
                    "HTTP request handling latency.",
                    method=method,
                    route=route,
                ),
            )
        counter, histogram = instruments
        counter.inc()
        histogram.observe(elapsed_s)

    def __call__(self, request: Request) -> Response:
        if request.method not in ("GET", "HEAD"):
            return self._error(
                405, f"method {request.method} not allowed (GET and HEAD only)",
                headers=(("Allow", "GET, HEAD"),),
            )
        parts = [part for part in request.path.split("/") if part]
        with span("serve.request", method=request.method, path=request.path):
            if parts == ["healthz"]:
                return self._healthz()
            if parts == ["metrics"]:
                return self._metrics()
            if parts == ["manifests"]:
                return self._manifest_index(request)
            if len(parts) == 2 and parts[0] == "manifests":
                return self._manifest(request, parts[1])
            if len(parts) == 2 and parts[0] == "artifacts":
                return self._artifact(request, parts[1])
            if len(parts) in (3, 4) and parts[0] == "reports":
                return self._report(request, parts[1], "/".join(parts[2:]))
            if len(parts) == 2 and parts[0] == "points":
                return self._point(request, parts[1])
            return self._error(404, f"no route for {request.path}")

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def _healthz(self) -> Response:
        payload = {
            "status": "ok",
            "version": __version__,
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
            "requests_served": self._requests_served,
            "store_dir": str(self.store.directory),
            "manifests": len(self.store.manifests()),
            "blob_cache": self.blob_cache.stats(),
        }
        return Response(
            body=_json_body(payload),
            content_type=JSON_TYPE,
            headers=(("Cache-Control", "no-store"),),
        )

    def _metrics(self) -> Response:
        """Prometheus text exposition of every instrument the app holds.

        Point-in-time gauges (cache occupancy, store size) are refreshed on
        each scrape; the counters and histograms accumulate continuously via
        :meth:`record_request` and the blob cache.
        """
        cache_stats = self.blob_cache.stats()
        self.metrics.gauge(
            "repro_blob_cache_entries", "Hot-blob cache entries."
        ).set(cache_stats["entries"])
        self.metrics.gauge(
            "repro_blob_cache_bytes", "Hot-blob cache occupancy in bytes."
        ).set(cache_stats["bytes"])
        self.metrics.gauge(
            "repro_blob_cache_max_bytes", "Hot-blob cache byte budget."
        ).set(cache_stats["max_bytes"])
        self.metrics.gauge(
            "repro_store_manifests", "Manifests recorded in the served store."
        ).set(len(self.store.manifests()))
        self.metrics.gauge(
            "repro_store_size_bytes", "Total size of the served store on disk."
        ).set(self.store.size_bytes())
        self.metrics.gauge(
            "repro_serve_uptime_seconds", "Seconds since the app started."
        ).set(time.monotonic() - self.started_monotonic)
        return Response(
            body=self.metrics.render_prometheus().encode("utf-8"),
            content_type=METRICS_TYPE,
            headers=(("Cache-Control", "no-store"),),
        )

    def _manifest_index(self, request: Request) -> Response:
        manifests = self.store.manifests()
        listed = {manifest.fingerprint for manifest in manifests}
        for key in [key for key in self._documents if key and key not in listed]:
            del self._documents[key]
        return self._conditional(
            request,
            self._document(
                "",
                manifests,
                lambda: {
                    "store_dir": str(self.store.directory),
                    "count": len(manifests),
                    "manifests": [manifest_summary(manifest) for manifest in manifests],
                },
            ),
        )

    def _manifest(self, request: Request, prefix: str) -> Response:
        try:
            manifest = self.store.find_manifest(prefix)
        except AmbiguousFingerprintError as exc:
            return Response(
                status=300,
                body=_json_body(
                    {
                        "error": f"fingerprint prefix '{prefix}' is ambiguous",
                        "matches": list(exc.matches),
                    }
                ),
                content_type=JSON_TYPE,
            )
        except StoreError as exc:
            return self._error(404, str(exc))
        return self._conditional(
            request, self._document(manifest.fingerprint, [manifest], manifest.to_dict)
        )

    def _artifact(self, request: Request, digest: str) -> Response:
        ref = self.store.find_artifact(digest)
        if ref is None:
            return self._error(
                404, f"no artifact with digest '{digest}'", hint=VERIFY_HINT
            )
        return self._blob(request, ref, cache_control=IMMUTABLE_CACHE)

    def _report(self, request: Request, prefix: str, name: str) -> Response:
        try:
            manifest = self.store.find_manifest(prefix)
        except AmbiguousFingerprintError as exc:
            return Response(
                status=300,
                body=_json_body(
                    {
                        "error": f"fingerprint prefix '{prefix}' is ambiguous",
                        "matches": list(exc.matches),
                    }
                ),
                content_type=JSON_TYPE,
            )
        except StoreError as exc:
            return self._error(404, str(exc))
        ref = self._resolve_report(manifest, name)
        if ref is None:
            recorded = sorted(manifest.artifact_refs())
            return self._error(
                404,
                f"manifest {manifest.fingerprint[:12]}… records no artifact "
                f"'{name}'",
                hint=f"recorded artifacts: {', '.join(recorded)}",
            )
        return self._blob(request, ref, cache_control=REVALIDATE_CACHE)

    def _point(self, request: Request, cache_key: str) -> Response:
        entry = self.store.point_index.get(cache_key)
        if entry is None:
            return self._error(
                404,
                f"no indexed point for cache key '{cache_key}'",
                hint="run `repro store index --store-dir <dir>` to rebuild "
                "the point index from the manifests",
            )
        return self._conditional(request, _etagged(entry.to_dict()))

    # ------------------------------------------------------------------ #
    # Shared pieces
    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_report(manifest: Manifest, name: str) -> Optional[ArtifactRef]:
        """``report_md``-style manifest artifacts or ``<subgrid>/<name>``."""
        ref = manifest.artifacts.get(name)
        if ref is not None:
            return ref
        subgrid_name, sep, artifact_name = name.partition("/")
        if not sep:
            return None
        for entry in manifest.subgrids:
            if entry.name == subgrid_name:
                return entry.artifacts.get(artifact_name)
        return None

    def _blob(
        self, request: Request, ref: ArtifactRef, cache_control: str
    ) -> Response:
        """Serve one content-addressed blob with conditional-GET support.

        The ETag is known from the reference alone, so a ``304`` never
        touches the blob cache or the disk — exactly what makes polling
        readers (and CDNs revalidating) nearly free.
        """
        headers = (
            ("ETag", f'"{ref.digest}"'),
            ("Cache-Control", cache_control),
        )
        if _etag_matches(request.if_none_match(), ref.digest):
            return Response(status=304, headers=headers)
        cached = self.blob_cache.get(ref.digest)
        if cached is not None:
            content, ext = cached
        else:
            try:
                content = self.store.read_artifact_bytes(ref)
            except StoreError as exc:
                return self._error(404, str(exc), hint=VERIFY_HINT)
            ext = ref.ext
            self.blob_cache.put(ref.digest, content, ext)
        return Response(
            body=content, content_type=content_type_for(ext), headers=headers
        )

    def _document(
        self, key: str, manifests: Sequence[Manifest], render: Callable[[], Any]
    ) -> Tuple[bytes, str]:
        """The JSON body and ETag of ``render()``, a function of ``manifests``.

        The store returns the very same objects until a manifest file's
        bytes change, so the same objects mean the same body: it is
        rendered once per on-disk version.  Compared by identity, not
        equality — equal values can serialize differently (``1`` and
        ``1.0``).
        """
        cached = self._documents.get(key)
        if (
            cached is not None
            and len(cached[0]) == len(manifests)
            and all(old is new for old, new in zip(cached[0], manifests))
        ):
            return cached[1], cached[2]
        body, etag = _etagged(render())
        self._documents[key] = (tuple(manifests), body, etag)
        return body, etag

    def _conditional(self, request: Request, document: Tuple[bytes, str]) -> Response:
        """A JSON ``(body, etag)`` as a ``200``, or ``304`` when the ETag matches."""
        body, etag = document
        headers = (
            ("ETag", f'"{etag}"'),
            ("Cache-Control", REVALIDATE_CACHE),
        )
        if _etag_matches(request.if_none_match(), etag):
            return Response(status=304, headers=headers)
        return Response(body=body, content_type=JSON_TYPE, headers=headers)

    @staticmethod
    def _error(
        status: int,
        message: str,
        hint: Optional[str] = None,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> Response:
        payload = {"error": message}
        if hint is not None:
            payload["hint"] = hint
        return Response(
            status=status,
            body=_json_body(payload),
            content_type=JSON_TYPE,
            headers=headers,
        )
