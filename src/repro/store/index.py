"""The store-wide point index: O(1) lookup from cache key to recorded point.

Manifests record every point's cache key, measured row and rendered result,
but finding a previously recorded point used to mean scanning every
manifest.  The index inverts that relation once and keeps it current::

    store/
      index/
        points/<aa>.json   cache_key -> one recorded point (fingerprint,
                           sub-grid, label, settings, measured row, status,
                           result-artifact reference)
        specs/<aa>.json    memo_key -> cache_key

Both halves are sharded by the leading two hex digits of their key, exactly
like artifact blobs and result-cache entries, so one lookup touches one
small JSON file regardless of how many campaigns the store has recorded.

The ``specs`` half is what makes schedule-time reuse resolution-free: a
:meth:`~repro.runner.RunSpec.memo_key` is computed from a spec's *unresolved*
fields (resolution is a pure function of them), and the index remembers
which cache key that resolved to when the point was first recorded.  A
later campaign can therefore intersect its whole plan against the store
without resolving a single scenario.

The index is derived data: :meth:`PointIndex.rebuild` reconstructs it from
the manifests alone (``repro store index``), :meth:`record_manifest` keeps
it current on every recording, and ``repro store verify`` cross-checks the
two directions.  Lookups treat anything suspect — unreadable shard, missing
entry, quarantined status, missing or tampered result blob — as a miss, so
a stale or damaged index can never serve wrong bytes; the campaign simply
re-simulates and the re-recording heals the entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generic,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from repro.runner.cache import atomic_write
from repro.store.manifest import (
    ArtifactRef,
    Manifest,
    StoreError,
    canonical_json,
    is_content_digest,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import: serving reads no results
    from repro.system.experiment import ExperimentResult

#: Version of the index shard schema.  Shards declaring another version are
#: treated as unreadable (every lookup misses) until ``store index`` rebuilds
#: them — the index is derived data, so that is always safe.
INDEX_SCHEMA_VERSION = 1


def encode_point_result(result: ExperimentResult, include_trace: bool = True) -> str:
    """One point's full result as deterministic JSON (a store artifact).

    Canonical form (sorted keys, no whitespace) so the same measurement
    always produces the same bytes — which is what lets a re-recording of a
    reused point dedup to the original blob by content address.
    """
    # Imported here, like decoding below: the store's readers and the
    # service never touch a result, so they never load the simulator.
    from repro.analysis.serialize import experiment_result_to_dict

    return canonical_json(experiment_result_to_dict(result, include_trace=include_trace))


def decode_point_result(raw: bytes) -> ExperimentResult:
    """Invert :func:`encode_point_result` (raises on malformed payloads)."""
    from repro.analysis.serialize import experiment_result_from_dict

    return experiment_result_from_dict(json.loads(raw.decode("utf-8")))


T = TypeVar("T")


class FileMemo(Generic[T]):
    """Parsed files, each parsed again only when its bytes change.

    :meth:`read` reads the file on every call, so a caller always sees it
    as it is on disk — whichever process wrote it, whatever its mtime says
    — but decoding and validation run once per distinct content.  It holds
    one entry per file: an unreadable file leaves none behind, a file that
    is gone drops its entry, and :meth:`remember` records what this process
    just wrote so its next read parses nothing.  The store's manifests and
    the point index's shards both go through one of these.
    """

    def __init__(self, parse: Callable[[bytes], T]) -> None:
        self._parse = parse
        self._entries: Dict[Path, Tuple[bytes, T]] = {}

    def read(self, path: Path) -> T:
        """``parse`` of the file's current bytes.

        Raises :class:`OSError` when the file cannot be read, and whatever
        ``parse`` raises for bytes it rejects.
        """
        try:
            raw = path.read_bytes()
        except OSError:
            self._entries.pop(path, None)
            raise
        entry = self._entries.get(path)
        if entry is not None and entry[0] == raw:
            return entry[1]
        self._entries.pop(path, None)
        value = self._parse(raw)
        self._entries[path] = (raw, value)
        return value

    def remember(self, path: Path, raw: bytes, value: T) -> None:
        """Record that ``path`` now holds ``raw``, which parses to ``value``."""
        self._entries[path] = (raw, value)

    def retain(self, paths: Iterable[Path]) -> None:
        """Drop the entries of every file not in ``paths`` (a listing)."""
        keep = set(paths)
        for path in [path for path in self._entries if path not in keep]:
            del self._entries[path]


@dataclass(frozen=True)
class PointEntry:
    """One indexed point: everything a reuse decision or a lookup needs.

    ``row`` is the measured report row exactly as the manifest recorded it
    (empty for quarantined points, which have no row), and ``result``
    references the point's full serialized
    :class:`~repro.system.experiment.ExperimentResult` blob — the thing a
    later campaign splices into its live report instead of simulating.
    """

    cache_key: str
    fingerprint: str
    subgrid: str = ""
    label: str = ""
    settings: Mapping[str, Any] = field(default_factory=dict)
    row: Mapping[str, Any] = field(default_factory=dict)
    status: str = "ok"
    memo_key: str = ""
    result: Optional[ArtifactRef] = None

    def __post_init__(self) -> None:
        if not is_content_digest(self.cache_key):
            raise StoreError(
                f"index entry: expected a 64-hex-digit cache key, got {self.cache_key!r}"
            )
        if not is_content_digest(self.fingerprint):
            raise StoreError(
                f"index entry {self.cache_key[:12]}…: expected a manifest "
                f"fingerprint, got {self.fingerprint!r}"
            )
        object.__setattr__(self, "settings", dict(self.settings))
        object.__setattr__(self, "row", dict(self.row))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cache_key": self.cache_key,
            "fingerprint": self.fingerprint,
            "subgrid": self.subgrid,
            "label": self.label,
            "settings": dict(self.settings),
            "row": dict(self.row),
            "status": self.status,
            "memo_key": self.memo_key,
            "result": self.result.to_dict() if self.result is not None else None,
        }

    @classmethod
    def from_dict(cls, cache_key: str, data: Mapping[str, Any]) -> "PointEntry":
        result = data.get("result")
        return cls(
            cache_key=cache_key,
            fingerprint=data.get("fingerprint", ""),
            subgrid=data.get("subgrid", ""),
            label=data.get("label", ""),
            settings=dict(data.get("settings", {})),
            row=dict(data.get("row", {})),
            status=data.get("status", "ok"),
            memo_key=data.get("memo_key", ""),
            result=(
                ArtifactRef.from_dict(result, f"index.{cache_key[:12]}.result")
                if result is not None
                else None
            ),
        )


def manifest_index_entries(
    manifest: Manifest,
) -> Tuple[Dict[str, PointEntry], Dict[str, str]]:
    """Derive one manifest's index contribution: ``(points, spec mappings)``.

    Rows align with the measured (``status == "ok"``) points in record
    order — quarantined points have no row.  This is the single derivation
    both :meth:`PointIndex.record_manifest` and :meth:`PointIndex.rebuild`
    use, so the incremental and rebuilt index cannot drift apart.
    """
    points: Dict[str, PointEntry] = {}
    specs: Dict[str, str] = {}
    for entry in manifest.subgrids:
        measured = 0
        for point in entry.points:
            row: Mapping[str, Any] = {}
            if point.status == "ok":
                if measured < len(entry.rows):
                    row = entry.rows[measured]
                measured += 1
            points[point.cache_key] = PointEntry(
                cache_key=point.cache_key,
                fingerprint=manifest.fingerprint,
                subgrid=entry.name,
                label=point.label,
                settings=dict(point.settings),
                row=dict(row),
                status=point.status,
                memo_key=point.memo_key,
                result=point.result,
            )
            if point.memo_key:
                specs[point.memo_key] = point.cache_key
    return points, specs


def _decode_shard(raw: bytes) -> Dict[str, Any]:
    """One shard file's payload; unreadable or foreign shards are empty."""
    try:
        data = json.loads(raw)
    except ValueError:
        return {}
    if (
        not isinstance(data, dict)
        or data.get("index_schema_version", INDEX_SCHEMA_VERSION)
        != INDEX_SCHEMA_VERSION
    ):
        return {}
    return data


class PointIndex:
    """Sharded on-disk mapping from cache key (and memo key) to recorded point.

    Shards go through a :class:`FileMemo`: every lookup re-reads its shard
    file, so a point another process recorded is found at once, but a shard
    is decoded only when its bytes change, and this instance's own writes
    are remembered without a re-read.  On disk every shard write is atomic.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self._shards: FileMemo[Dict[str, Any]] = FileMemo(_decode_shard)

    @property
    def points_dir(self) -> Path:
        return self.directory / "points"

    @property
    def specs_dir(self) -> Path:
        return self.directory / "specs"

    @property
    def exists(self) -> bool:
        return self.directory.is_dir()

    # ------------------------------------------------------------------ #
    # Shard I/O
    # ------------------------------------------------------------------ #
    def _shard(self, path: Path, table: str) -> Dict[str, Any]:
        """One shard's key table (missing, unreadable or foreign shards = empty).

        The table is shared with the memo: callers copy before changing it.
        """
        try:
            entries = self._shards.read(path).get(table)
        except OSError:
            return {}
        return entries if isinstance(entries, dict) else {}

    def _write_shard(self, path: Path, table: str, entries: Dict[str, Any]) -> None:
        payload = {"index_schema_version": INDEX_SCHEMA_VERSION, table: entries}
        raw = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
        atomic_write(path, raw)
        self._shards.remember(path, raw, payload)

    def _point_shard(self, cache_key: str) -> Path:
        return self.points_dir / f"{cache_key[:2]}.json"

    def _spec_shard(self, memo_key: str) -> Path:
        return self.specs_dir / f"{memo_key[:2]}.json"

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(self, cache_key: str) -> Optional[PointEntry]:
        """The recorded point behind a cache key, or ``None`` (a miss)."""
        if not is_content_digest(cache_key):
            return None
        raw = self._shard(self._point_shard(cache_key), "points").get(cache_key)
        if not isinstance(raw, dict):
            return None
        try:
            return PointEntry.from_dict(cache_key, raw)
        except StoreError:
            return None

    def cache_key_for(self, memo_key: str) -> Optional[str]:
        """The cache key a (resolution-free) memo key resolved to, if known."""
        if not is_content_digest(memo_key):
            return None
        target = self._shard(self._spec_shard(memo_key), "specs").get(memo_key)
        return target if is_content_digest(target) else None

    def find(self, memo_key: str) -> Optional[PointEntry]:
        """Memo key straight to its recorded point (two shard lookups)."""
        cache_key = self.cache_key_for(memo_key)
        return self.get(cache_key) if cache_key is not None else None

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def update(
        self, points: Mapping[str, PointEntry], specs: Mapping[str, str]
    ) -> None:
        """Merge entries into their shards (read-modify-write, atomic)."""
        by_shard: Dict[Path, Dict[str, Any]] = {}
        for cache_key, entry in points.items():
            data = entry.to_dict()
            data.pop("cache_key")
            by_shard.setdefault(self._point_shard(cache_key), {})[cache_key] = data
        for path, fresh in by_shard.items():
            merged = dict(self._shard(path, "points"))
            merged.update(fresh)
            self._write_shard(path, "points", merged)
        spec_by_shard: Dict[Path, Dict[str, str]] = {}
        for memo_key, cache_key in specs.items():
            spec_by_shard.setdefault(self._spec_shard(memo_key), {})[memo_key] = cache_key
        for path, fresh in spec_by_shard.items():
            merged = dict(self._shard(path, "specs"))
            merged.update(fresh)
            self._write_shard(path, "specs", merged)

    def record_manifest(self, manifest: Manifest) -> int:
        """Fold one freshly recorded manifest in; returns points indexed."""
        points, specs = manifest_index_entries(manifest)
        self.update(points, specs)
        return len(points)

    def remove_manifest(self, manifest: Manifest) -> int:
        """Drop the entries a deleted manifest contributed (and owns).

        An entry whose cache key was since re-recorded by another manifest
        belongs to that manifest now and is left alone.
        """
        points, _ = manifest_index_entries(manifest)
        removed_keys = set()
        for cache_key in points:
            path = self._point_shard(cache_key)
            shard = self._shard(path, "points")
            raw = shard.get(cache_key)
            if isinstance(raw, dict) and raw.get("fingerprint") == manifest.fingerprint:
                shard = dict(shard)
                shard.pop(cache_key)
                self._write_shard(path, "points", shard)
                removed_keys.add(cache_key)
        for path in sorted(self.specs_dir.glob("*.json")):
            shard = self._shard(path, "specs")
            keep = {
                memo_key: cache_key
                for memo_key, cache_key in shard.items()
                if cache_key not in removed_keys
            }
            if len(keep) != len(shard):
                self._write_shard(path, "specs", keep)
        return len(removed_keys)

    def rebuild(self, manifests: Iterable[Manifest]) -> Tuple[int, int]:
        """Reconstruct every shard from manifests alone; ``(points, specs)``.

        Iterate oldest first so, where several manifests recorded the same
        cache key, the newest recording wins — the same outcome incremental
        maintenance produces.  Shards for prefixes no manifest touches
        anymore are deleted, so a rebuild fully supersedes whatever was on
        disk.
        """
        all_points: Dict[str, PointEntry] = {}
        all_specs: Dict[str, str] = {}
        for manifest in manifests:
            points, specs = manifest_index_entries(manifest)
            all_points.update(points)
            all_specs.update(specs)
        point_shards: Dict[Path, Dict[str, Any]] = {}
        for cache_key, entry in all_points.items():
            data = entry.to_dict()
            data.pop("cache_key")
            point_shards.setdefault(self._point_shard(cache_key), {})[cache_key] = data
        spec_shards: Dict[Path, Dict[str, str]] = {}
        for memo_key, cache_key in all_specs.items():
            spec_shards.setdefault(self._spec_shard(memo_key), {})[memo_key] = cache_key
        for directory, table, shards in (
            (self.points_dir, "points", point_shards),
            (self.specs_dir, "specs", spec_shards),
        ):
            directory.mkdir(parents=True, exist_ok=True)
            for path, entries in shards.items():
                self._write_shard(path, table, entries)
            for path in sorted(directory.glob("*.json")):
                if path not in shards:
                    path.unlink()
        return len(all_points), len(all_specs)

    # ------------------------------------------------------------------ #
    # Introspection (verify / CLI)
    # ------------------------------------------------------------------ #
    def entries(self) -> Iterator[PointEntry]:
        """Every readable point entry on disk (skipping malformed ones)."""
        for path in sorted(self.points_dir.glob("*.json")) if self.points_dir.is_dir() else []:
            for cache_key, raw in sorted(self._shard(path, "points").items()):
                if isinstance(raw, dict):
                    try:
                        yield PointEntry.from_dict(cache_key, raw)
                    except StoreError:
                        continue

    def spec_mappings(self) -> Iterator[Tuple[str, str]]:
        """Every ``memo_key -> cache_key`` mapping on disk."""
        for path in sorted(self.specs_dir.glob("*.json")) if self.specs_dir.is_dir() else []:
            for memo_key, cache_key in sorted(self._shard(path, "specs").items()):
                if isinstance(cache_key, str):
                    yield memo_key, cache_key

    def counts(self) -> Tuple[int, int]:
        """How many point entries and spec mappings the index holds."""
        points = sum(1 for _ in self.entries())
        specs = sum(1 for _ in self.spec_mappings())
        return points, specs


class StoreMemo:
    """The runner-facing view of a store's index: ``get(spec) -> result``.

    This is the object :func:`~repro.runner.sweep.run_sweep` consults before
    computing any cache key: the lookup goes memo key → cache key → index
    entry → verified result blob, all without resolving the spec's scenario.
    Anything short of a healthy, byte-verified recording — unknown spec,
    quarantined point, missing or tampered blob, undecodable payload — is a
    miss, and the point simulates live.
    """

    def __init__(self, store: Any) -> None:
        self.store = store
        self.index: PointIndex = store.point_index

    def _entry(self, spec: Any) -> Optional[PointEntry]:
        entry = self.index.find(spec.memo_key())
        if entry is None or entry.status != "ok" or entry.result is None:
            return None
        return entry

    def probe(self, spec: Any) -> bool:
        """Cheap plan-time check: would :meth:`get` plausibly hit?

        Confirms the index entry and the result blob's presence on disk but
        skips the hash verification and deserialization — this is what
        ``campaign run --dry-run`` counts without loading anything.
        """
        entry = self._entry(spec)
        return entry is not None and self.store.artifact_path(entry.result).is_file()

    def get(self, spec: Any) -> Optional[Tuple[ExperimentResult, str]]:
        """The recorded result and cache key for a spec, or ``None``."""
        entry = self._entry(spec)
        if entry is None:
            return None
        try:
            raw = self.store.read_artifact_bytes(entry.result)
            result = decode_point_result(raw)
        except (StoreError, KeyError, TypeError, ValueError):
            return None
        return result, entry.cache_key
