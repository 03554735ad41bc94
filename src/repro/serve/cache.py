"""A bounded in-memory LRU cache for hot artifact blobs.

Blobs are content-addressed (the key *is* the SHA-256 of the bytes), so an
entry can never go stale — the only policy needed is a byte budget with
least-recently-used eviction.  The store's read path re-verifies a blob's
hash on every disk read; caching the verified bytes means a hot report is
served without touching the filesystem *or* re-hashing, which is where the
service's requests/s comes from (the ``serve_reads`` benchmark workload
reports the hit ratio as ``serve.blob_cache_hit_ratio``).

The hit, miss and eviction counters are instruments of a
:class:`~repro.obs.MetricsRegistry` — the app shares one registry across the
cache and its HTTP metrics so ``GET /metrics`` renders them in one pass.
They are bumped only from the single event-loop thread; readers from other
threads (the benchmark, tests) see plain numbers via :meth:`BlobCache.stats`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.obs import MetricsRegistry

#: Default byte budget for the hot-blob cache — comfortably holds every
#: rendered artifact of dozens of recorded campaigns (reports are tens of
#: KiB) while staying irrelevant next to the interpreter's own footprint.
DEFAULT_CACHE_BYTES = 8 * 1024 * 1024


class BlobCache:
    """``digest -> (bytes, ext)`` with LRU eviction under a byte budget."""

    def __init__(
        self,
        max_bytes: int = DEFAULT_CACHE_BYTES,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.max_bytes = max(0, int(max_bytes))
        self._entries: "OrderedDict[str, Tuple[bytes, str]]" = OrderedDict()
        self._bytes = 0
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._hits = self.metrics.counter(
            "repro_blob_cache_hits_total", "Hot-blob cache hits."
        )
        self._misses = self.metrics.counter(
            "repro_blob_cache_misses_total", "Hot-blob cache misses."
        )
        self._evictions = self.metrics.counter(
            "repro_blob_cache_evictions_total", "Hot-blob LRU evictions."
        )

    def get(self, digest: str) -> Optional[Tuple[bytes, str]]:
        entry = self._entries.get(digest)
        if entry is None:
            self._misses.inc()
            return None
        self._entries.move_to_end(digest)
        self._hits.inc()
        return entry

    def put(self, digest: str, content: bytes, ext: str) -> None:
        """Insert one verified blob; oversized blobs are simply not cached."""
        if len(content) > self.max_bytes:
            return
        existing = self._entries.pop(digest, None)
        if existing is not None:
            self._bytes -= len(existing[0])
        self._entries[digest] = (content, ext)
        self._bytes += len(content)
        while self._bytes > self.max_bytes:
            _, (evicted, _) = self._entries.popitem(last=False)
            self._bytes -= len(evicted)
            self._evictions.inc()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": int(self._hits.value),
            "misses": int(self._misses.value),
            "evictions": int(self._evictions.value),
            "entries": len(self._entries),
            "bytes": self._bytes,
            "max_bytes": self.max_bytes,
        }
