"""The content-addressed results store: manifests plus artifact blobs.

A store directory has three parts::

    store/
      manifests/<fingerprint>.json     one Manifest per recorded run
      artifacts/<aa>/<digest>.<ext>    content-addressed rendered artifacts
      index/                           the store-wide point index (derived;
                                       see :mod:`repro.store.index`)

Artifacts are addressed by the SHA-256 of their bytes, so identical
renderings dedup to one blob, a reference can always be re-verified against
its content (``repro store verify``), and blobs nothing references anymore
can be swept (``repro store gc``).  Manifests are keyed by the run
fingerprint — a hash of the spec's *dictionary form* plus the effective
overrides — which is what lets ``repro campaign report`` find and serve a
recorded run without resolving a single :class:`~repro.runner.RunSpec`.
The point index inverts the manifests — cache key → recorded point, memo
key → cache key — and is maintained on every :meth:`~ResultsStore.
put_manifest` / :meth:`~ResultsStore.delete_manifest`, rebuilt on demand by
``repro store index``, and cross-checked by ``repro store verify``; it is
what lets a later overlapping campaign reuse recorded points in O(1)
instead of scanning every manifest.

Writes go through the result cache's
:func:`~repro.runner.cache.atomic_write` (temporary file plus atomic
rename), so a concurrent reader (or an interrupted run) never sees a
half-written manifest or blob.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.campaign.report import (
    DEFAULT_COLUMNS,
    Point,
    campaign_report_md,
    campaign_report_payload,
    points_csv,
    points_payload,
    subgrid_report_md,
    subgrid_report_payload,
)
from repro.runner.cache import atomic_write
from repro.store.index import FileMemo, PointIndex, StoreMemo, encode_point_result
from repro.store.manifest import (
    AmbiguousFingerprintError,
    ArtifactRef,
    CheckRecord,
    Manifest,
    PointRecord,
    Provenance,
    StoreError,
    SubGridEntry,
    content_digest,
    is_content_digest,
)
from repro.store.narrative import narrative_md

if TYPE_CHECKING:  # pragma: no cover - type-only import (no runtime cycle)
    from repro.campaign.scheduler import CampaignResult
    from repro.runner.cache import ResultCache

PathLike = Union[str, Path]

#: Media types for the artifact extensions the store records.  Shared by the
#: HTTP results service (``repro serve``) and anything else that hands a
#: rendered blob to a browser or CDN.
CONTENT_TYPES = {
    "md": "text/markdown; charset=utf-8",
    "json": "application/json; charset=utf-8",
    "jsonl": "application/x-ndjson",
    "csv": "text/csv; charset=utf-8",
    "txt": "text/plain; charset=utf-8",
    "html": "text/html; charset=utf-8",
}


def content_type_for(ext: str) -> str:
    """The ``Content-Type`` to serve an artifact extension under."""
    return CONTENT_TYPES.get(ext.lower(), "application/octet-stream")


@dataclass(frozen=True)
class GridSection:
    """One axis set of a ``repro grid`` run, ready to record.

    The CLI gathers these while rendering live output; the store turns each
    into a :class:`SubGridEntry` so grid runs and campaign runs share one
    manifest shape (a grid is a campaign with one anonymous sub-grid per
    axis set).
    """

    label: str
    scenario_name: str
    critical_cores: Tuple[str, ...]
    points: Tuple[Point, ...]
    cache_keys: Tuple[str, ...]
    rendered_md: str


def _decode_manifest(raw: bytes) -> Manifest:
    return Manifest.from_dict(json.loads(raw))


def _listdir(directory: Path) -> List[str]:
    """The names in ``directory``; none when it is missing or not a directory."""
    try:
        return os.listdir(directory)
    except OSError:
        return []


def _tree_bytes(directory: Union[str, Path]) -> int:
    """Bytes of every file under ``directory`` (0 when it is not a directory)."""
    try:
        listing = os.scandir(directory)
    except OSError:
        return 0
    total = 0
    with listing:
        for entry in listing:
            if entry.is_dir(follow_symlinks=False):
                total += _tree_bytes(entry.path)
            elif entry.is_file():
                try:
                    total += entry.stat().st_size
                except FileNotFoundError:
                    continue  # a temp file renamed away mid-walk
    return total


class ResultsStore:
    """A directory of manifests and content-addressed rendered artifacts.

    Manifest reads go through a :class:`~repro.store.index.FileMemo`: each
    read sees the file as it is on disk, but a manifest is parsed and
    validated once per distinct content, and an unchanged one comes back as
    the same :class:`Manifest` object.
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self._point_index: Optional[PointIndex] = None
        self._manifest_files: FileMemo[Manifest] = FileMemo(_decode_manifest)

    @property
    def manifest_dir(self) -> Path:
        return self.directory / "manifests"

    @property
    def artifact_dir(self) -> Path:
        return self.directory / "artifacts"

    @property
    def index_dir(self) -> Path:
        return self.directory / "index"

    @property
    def point_index(self) -> PointIndex:
        """The store's point index (one instance: shard reads are memoized)."""
        if self._point_index is None:
            self._point_index = PointIndex(self.index_dir)
        return self._point_index

    def memo(self) -> StoreMemo:
        """The runner-facing reuse view: ``memo.get(spec)`` → recorded result."""
        return StoreMemo(self)

    def rebuild_index(self) -> Tuple[int, int]:
        """Reconstruct the point index from the manifests (``store index``).

        Returns ``(points, spec mappings)`` indexed.  Oldest manifest first,
        so re-recorded cache keys land on their newest recording — the same
        state incremental maintenance reaches.
        """
        return self.point_index.rebuild(list(reversed(self.manifests())))

    # ------------------------------------------------------------------ #
    # Artifact blobs
    # ------------------------------------------------------------------ #
    def artifact_path(self, ref: ArtifactRef) -> Path:
        """Location of a reference's blob (whether or not it exists)."""
        return self.artifact_dir / ref.digest[:2] / f"{ref.digest}.{ref.ext}"

    def put_artifact(self, content: str, ext: str) -> ArtifactRef:
        """Store one rendered artifact; identical content dedups to one blob."""
        raw = content.encode("utf-8")
        ref = ArtifactRef(digest=content_digest(raw), ext=ext, size=len(raw))
        path = self.artifact_path(ref)
        if not path.is_file():
            with obs.span("store.put_artifact", ext=ext, size=len(raw)):
                atomic_write(path, raw)
        return ref

    def read_artifact_bytes(self, ref: ArtifactRef) -> bytes:
        """Load a blob's raw bytes, re-verifying its content address.

        Raises :class:`StoreError` when the blob is missing or its bytes no
        longer hash to the reference — serving paths treat that as a miss
        (the CLI falls back to live rendering, the HTTP service answers 404
        with a ``store verify`` hint), so a tampered artifact can never be
        served as if it were the recorded one.
        """
        path = self.artifact_path(ref)
        try:
            raw = path.read_bytes()
        except OSError:
            raise StoreError(f"artifact {ref.digest[:12]}… missing from {path}") from None
        if content_digest(raw) != ref.digest:
            raise StoreError(
                f"artifact {ref.digest[:12]}… content does not match its address "
                f"(tampered or corrupt: {path})"
            )
        return raw

    def read_artifact(self, ref: ArtifactRef) -> str:
        """:meth:`read_artifact_bytes` decoded as UTF-8 (rendered text)."""
        return self.read_artifact_bytes(ref).decode("utf-8")

    def find_artifact(self, digest: str) -> Optional[ArtifactRef]:
        """Resolve a bare content digest to a reference, or ``None``.

        The HTTP service's ``/artifacts/<sha256>`` route knows only the
        digest; the extension (and therefore the content type) comes from
        the blob's on-disk name.  Returns ``None`` for malformed digests
        and unknown blobs alike — both are a 404, not an error.
        """
        if not is_content_digest(digest):
            return None
        directory = self.artifact_dir / digest[:2]
        prefix = f"{digest}."
        for name in sorted(_listdir(directory)):
            ext = name[len(prefix) :]
            if name.startswith(prefix) and ext and "." not in ext:
                size = os.stat(os.path.join(directory, name)).st_size
                return ArtifactRef(digest=digest, ext=ext, size=size)
        return None

    # ------------------------------------------------------------------ #
    # Manifests
    # ------------------------------------------------------------------ #
    def manifest_path(self, fingerprint: str) -> Path:
        return self.manifest_dir / f"{fingerprint}.json"

    def put_manifest(self, manifest: Manifest) -> Path:
        path = self.manifest_path(manifest.fingerprint)
        with obs.span("store.put_manifest", fingerprint=manifest.fingerprint[:12]):
            atomic_write(path, (manifest.to_json() + "\n").encode("utf-8"))
            # Keep the point index current on every recording — this is the
            # single choke point all recording paths go through.
            self.point_index.record_manifest(manifest)
        return path

    def get_manifest(self, fingerprint: str) -> Optional[Manifest]:
        """Load the manifest recorded under a fingerprint, or ``None``.

        Unreadable or schema-invalid manifests are misses, not errors: the
        caller's fallback is a live render, which will re-record a good one.
        """
        return self._read_manifest(self.manifest_path(fingerprint))

    def _read_manifest(self, path: Path) -> Optional[Manifest]:
        try:
            return self._manifest_files.read(path)
        except (OSError, ValueError):
            return None

    def manifest_names(self) -> List[str]:
        """The manifest files' names, sorted, readable or not.

        A manifest file is named ``<stem>.json`` with a non-empty stem, the
        fingerprint it is recorded under (:meth:`manifest_path`).  The name
        ``.json`` has no stem and is no fingerprint's file, so it is not
        listed.  One ``os.listdir`` and no ``stat``: :meth:`manifests` and
        :meth:`find_manifest` run on every ``repro serve`` listing request.
        """
        return sorted(
            name
            for name in _listdir(self.manifest_dir)
            if name.endswith(".json") and name != ".json"
        )

    def manifests(self) -> List[Manifest]:
        """Every readable manifest, newest ``created_at`` first."""
        directory = self.manifest_dir
        paths = [directory / name for name in self.manifest_names()]
        self._manifest_files.retain(paths)
        loaded = []
        for path in paths:
            manifest = self._read_manifest(path)
            if manifest is not None:
                loaded.append(manifest)
        loaded.sort(key=lambda m: (m.provenance.created_at, m.fingerprint), reverse=True)
        return loaded

    def find_manifest(self, prefix: str) -> Manifest:
        """Resolve a (possibly abbreviated) fingerprint to its manifest."""
        matches = [
            name[: -len(".json")]
            for name in self.manifest_names()
            if name.startswith(prefix)
        ]
        if not matches:
            raise StoreError(f"no manifest matches '{prefix}' in {self.manifest_dir}")
        if len(matches) > 1:
            raise AmbiguousFingerprintError(prefix, matches)
        manifest = self.get_manifest(matches[0])
        if manifest is None:
            raise StoreError(f"manifest {matches[0][:12]}… exists but is unreadable")
        return manifest

    def delete_manifest(self, fingerprint: str) -> bool:
        # Load before unlinking so the index entries the manifest contributed
        # can be dropped too; a manifest removed behind the store's back
        # leaves stale entries, which lookups treat as misses and
        # ``store index`` / ``store verify`` heal and flag respectively.
        manifest = self.get_manifest(fingerprint)
        try:
            self.manifest_path(fingerprint).unlink()
        except OSError:
            return False
        if manifest is not None:
            self.point_index.remove_manifest(manifest)
        return True

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_campaign(
        self,
        outcome: "CampaignResult",
        fingerprint: str,
        provenance: Provenance,
        extra_stats: Optional[Dict[str, Any]] = None,
    ) -> Manifest:
        """Render and persist everything one campaign run produced.

        Called once, at run time, by the scheduler's store hook: every
        per-figure table (markdown, CSV, JSON), the full campaign report in
        both formats, and the generated narrative are rendered *now* —
        while the results are in memory — and every later ``campaign
        report`` against the same fingerprint is a pure read.

        ``extra_stats`` is merged over the sweep's own telemetry payload in
        the manifest's free-form ``stats`` field — how a traced run attaches
        its trace-artifact references without any schema change or report
        perturbation.
        """
        entries = []
        for subgrid in outcome.subgrids():
            name = subgrid.name
            scenario = outcome.scenarios[name]
            points = outcome.points[name]
            checks = outcome.checks(name)
            quarantined = outcome.quarantined.get(name, ())
            columns = list(subgrid.columns) or list(DEFAULT_COLUMNS)
            cores = list(scenario.critical_cores)
            results = {label: result for _, label, result in points}
            payload = subgrid_report_payload(
                subgrid, scenario, points, checks=checks, quarantined=quarantined
            )
            artifacts = {
                "md": self.put_artifact(
                    subgrid_report_md(
                        subgrid,
                        scenario,
                        points,
                        checks=checks,
                        quarantined=quarantined,
                    ),
                    "md",
                ),
                "csv": self.put_artifact(points_csv(results, columns, cores), "csv"),
                "json": self.put_artifact(json.dumps(payload, indent=2), "json"),
            }
            keys = outcome.cache_keys.get(name, ())
            if len(keys) != len(points):
                # zip() would silently truncate and record a manifest whose
                # verify cross-check has nothing to check — refuse instead.
                raise StoreError(
                    f"sub-grid '{name}': {len(points)} point(s) but "
                    f"{len(keys)} cache key(s); record_campaign needs an "
                    "outcome produced by CampaignScheduler.run"
                )
            memo_keys = list(getattr(outcome, "memo_keys", {}).get(name, ()))
            if not memo_keys:
                # An outcome without memo keys (hand-built in tests, older
                # callers) still records a valid manifest — its points are
                # just not reusable through the spec index.
                memo_keys = [""] * len(points)
            elif len(memo_keys) != len(points):
                raise StoreError(
                    f"sub-grid '{name}': {len(points)} point(s) but "
                    f"{len(memo_keys)} memo key(s); record_campaign needs an "
                    "outcome produced by CampaignScheduler.run"
                )
            # Measured points first (declared order), then the quarantined
            # holes (also declared order) — deterministic, and a reader
            # scanning for results never trips over a hole mid-table.
            # Each measured point's full result is serialized to its own
            # content-addressed blob: canonical bytes, so a reused point
            # re-records the *same* blob and the dedup is free.  That blob
            # plus the memo key is what makes this manifest a memo-table
            # entry for every later overlapping campaign.
            records = [
                PointRecord(
                    settings=settings,
                    label=label,
                    cache_key=key,
                    memo_key=memo_key,
                    result=self.put_artifact(
                        encode_point_result(result, include_trace=subgrid.keep_trace),
                        "json",
                    ),
                )
                for (settings, label, result), key, memo_key in zip(
                    points, keys, memo_keys
                )
            ]
            records.extend(
                PointRecord(
                    settings=entry.settings,
                    label=entry.label,
                    cache_key=entry.cache_key,
                    status="quarantined",
                    error=f"{entry.error} ({entry.attempts} attempt(s))",
                    memo_key=entry.memo_key,
                )
                for entry in quarantined
            )
            entries.append(
                SubGridEntry(
                    name=name,
                    scenario=scenario.name,
                    title=subgrid.title,
                    critical_cores=tuple(cores),
                    points=tuple(records),
                    rows=tuple(payload["rows"]),
                    claims=tuple(subgrid.claims),
                    checks=tuple(
                        CheckRecord(
                            kind=kind,
                            experiment=check.experiment,
                            description=check.description,
                            passed=check.passed,
                            detail=check.detail,
                        )
                        for kind, check in checks
                    ),
                    artifacts=artifacts,
                )
            )
        artifacts = {
            "report_md": self.put_artifact(campaign_report_md(outcome), "md"),
            "report_json": self.put_artifact(
                json.dumps(campaign_report_payload(outcome), indent=2), "json"
            ),
        }
        manifest = Manifest(
            fingerprint=fingerprint,
            provenance=provenance,
            subgrids=tuple(entries),
            artifacts=artifacts,
            stats={**_stats_payload(outcome.stats), **(extra_stats or {})},
        )
        # The narrative renders *from* the manifest (it quotes the recorded
        # rows and check outcomes), so it is attached in a second step.
        narrative_ref = self.put_artifact(narrative_md(manifest), "md")
        manifest = replace(
            manifest, artifacts={**artifacts, "narrative_md": narrative_ref}
        )
        self.put_manifest(manifest)
        return manifest

    def record_grid(
        self,
        sections: Sequence[GridSection],
        fingerprint: str,
        provenance: Provenance,
        report_md: str,
        report_json: str,
    ) -> Manifest:
        """Persist one ``repro grid`` run: one entry per axis set.

        ``report_md``/``report_json`` are the command's full rendered output
        for each format — the bytes a warm ``repro grid --store-dir`` serves
        back without expanding or resolving the grid again.
        """
        entries = []
        for section in sections:
            results = {label: result for _, label, result in section.points}
            cores = list(section.critical_cores)
            payload_rows = points_payload(results, DEFAULT_COLUMNS, cores)
            artifacts = {
                "md": self.put_artifact(section.rendered_md, "md"),
                "csv": self.put_artifact(
                    points_csv(results, DEFAULT_COLUMNS, cores), "csv"
                ),
                "json": self.put_artifact(json.dumps(payload_rows, indent=2), "json"),
            }
            entries.append(
                SubGridEntry(
                    name=section.label,
                    scenario=section.scenario_name,
                    title=section.label,
                    critical_cores=tuple(cores),
                    points=tuple(
                        PointRecord(settings=settings, label=label, cache_key=key)
                        for (settings, label, _), key in zip(
                            section.points, section.cache_keys
                        )
                    ),
                    rows=tuple(payload_rows),
                    artifacts=artifacts,
                )
            )
        manifest = Manifest(
            fingerprint=fingerprint,
            provenance=provenance,
            subgrids=tuple(entries),
            artifacts={
                "report_md": self.put_artifact(report_md, "md"),
                "report_json": self.put_artifact(report_json, "json"),
            },
        )
        self.put_manifest(manifest)
        return manifest

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serve(self, fingerprint: str, artifact: str) -> Optional[str]:
        """The store-backed fast path: a recorded artifact, or ``None``.

        ``None`` — manifest missing, artifact not recorded, blob missing or
        tampered — means "render live"; the fast path never degrades the
        report, it only skips work when a verified recording exists.
        """
        manifest = self.get_manifest(fingerprint)
        if manifest is None:
            return None
        ref = manifest.artifacts.get(artifact)
        if ref is None:
            return None
        try:
            return self.read_artifact(ref)
        except StoreError:
            return None

    # ------------------------------------------------------------------ #
    # Maintenance: verify and gc
    # ------------------------------------------------------------------ #
    def verify(self, cache: Optional["ResultCache"] = None) -> List[str]:
        """Check every manifest's references; returns problem descriptions.

        Each artifact blob is re-hashed against its content address (so
        tampering and truncation are caught), missing blobs and unreadable
        manifests are reported, and — when a result cache is handed in —
        every recorded cache key is checked to still be present, so a
        manifest whose underlying results were evicted is flagged before
        someone trusts its numbers.  The point index is cross-checked in
        both directions: every recorded point must be findable through the
        index, and every index entry (and spec mapping) must still be
        vouched for by a manifest on disk.
        """
        problems: List[str] = []
        # One directory listing up front beats one stat per recorded key
        # when many manifests share a cache.
        present = set(cache.keys()) if cache is not None else set()
        manifests: List[Manifest] = []
        for file_name in self.manifest_names():
            try:
                manifest = self._manifest_files.read(self.manifest_dir / file_name)
            except (OSError, ValueError) as exc:
                problems.append(f"manifest {file_name}: unreadable ({exc})")
                continue
            manifests.append(manifest)
            if f"{manifest.fingerprint}.json" != file_name:
                problems.append(
                    f"manifest {file_name}: declares fingerprint "
                    f"{manifest.fingerprint[:12]}… (file name disagrees)"
                )
            short = manifest.fingerprint[:12]
            for name, ref in manifest.artifact_refs().items():
                try:
                    self.read_artifact(ref)
                except StoreError as exc:
                    problems.append(f"manifest {short}… artifact {name}: {exc}")
            if cache is not None:
                missing = [key for key in manifest.cache_keys() if key not in present]
                if missing:
                    problems.append(
                        f"manifest {short}…: {len(missing)} recorded cache "
                        f"key(s) missing from {cache.directory} "
                        f"(first: {missing[0][:12]}…)"
                    )
        problems.extend(self._verify_index(manifests))
        return problems

    def _verify_index(self, manifests: List[Manifest]) -> List[str]:
        """The point-index half of :meth:`verify` (both directions)."""
        problems: List[str] = []
        index = self.point_index
        if not index.exists:
            # An index-less store is only a problem once there is something
            # to index; a stale index with *zero* manifests still gets the
            # cross-checks below (every entry is dangling).
            if manifests:
                problems.append(
                    f"store has no point index for {len(manifests)} manifest(s) "
                    "(rebuild with `repro store index`)"
                )
            return problems
        keys_by_fingerprint = {
            manifest.fingerprint: {
                point.cache_key for entry in manifest.subgrids for point in entry.points
            }
            for manifest in manifests
        }
        for manifest in manifests:
            unindexed = [
                point.cache_key
                for entry in manifest.subgrids
                for point in entry.points
                if index.get(point.cache_key) is None
            ]
            if unindexed:
                problems.append(
                    f"manifest {manifest.fingerprint[:12]}…: {len(unindexed)} "
                    f"point(s) missing from the index (first: "
                    f"{unindexed[0][:12]}…; rebuild with `repro store index`)"
                )
        for entry in index.entries():
            recorded = keys_by_fingerprint.get(entry.fingerprint)
            if recorded is None:
                problems.append(
                    f"index: point {entry.cache_key[:12]}… references deleted "
                    f"manifest {entry.fingerprint[:12]}… (stale; rebuild with "
                    "`repro store index`)"
                )
            elif entry.cache_key not in recorded:
                problems.append(
                    f"index: point {entry.cache_key[:12]}… is not recorded by "
                    f"manifest {entry.fingerprint[:12]}… (stale; rebuild with "
                    "`repro store index`)"
                )
        for memo_key, cache_key in index.spec_mappings():
            if index.get(cache_key) is None:
                problems.append(
                    f"index: spec mapping {memo_key[:12]}… targets unindexed "
                    f"point {cache_key[:12]}… (stale; rebuild with "
                    "`repro store index`)"
                )
        return problems

    def unreferenced_blobs(self) -> Tuple[List[Path], int]:
        """Blobs no manifest references: ``(orphans, kept_count)``.

        This is ``gc``'s planning half, exposed so ``repro store gc
        --dry-run`` can report exactly what would be deleted without
        touching disk.
        """
        referenced = set()
        for manifest in self.manifests():
            for ref in manifest.artifact_refs().values():
                referenced.add((ref.digest, ref.ext))
        orphans: List[Path] = []
        kept = 0
        if self.artifact_dir.is_dir():
            for blob in sorted(self.artifact_dir.glob("*/*")):
                digest, _, ext = blob.name.partition(".")
                if (digest, ext) in referenced:
                    kept += 1
                else:
                    orphans.append(blob)
        return orphans, kept

    def gc(self) -> Tuple[int, int]:
        """Delete artifact blobs no manifest references; ``(removed, kept)``.

        Unreadable manifests keep nothing alive — ``verify`` flags them
        first, and ``gc`` after deleting a manifest is how its blobs are
        reclaimed.
        """
        orphans, kept = self.unreferenced_blobs()
        for blob in orphans:
            blob.unlink()
        return len(orphans), kept

    def size_bytes(self) -> int:
        """Total bytes the store occupies on disk (manifests, blobs, index)."""
        return sum(
            _tree_bytes(root)
            for root in (self.manifest_dir, self.artifact_dir, self.index_dir)
        )


def _stats_payload(stats: Any) -> Dict[str, Any]:
    """A sweep's counters/phases as plain manifest data.

    This is the *only* place run telemetry is persisted — the rendered
    report artifacts are deterministic functions of the measurements — so
    resume-parity comparisons normalize exactly this manifest field.
    """
    return {
        "total": stats.total,
        "cache_hits": stats.cache_hits,
        "reused": getattr(stats, "reused_points", 0),
        "executed": stats.executed,
        "jobs": stats.jobs,
        "elapsed_s": stats.elapsed_s,
        "sim_wall_s": getattr(stats, "sim_wall_s", 0.0),
        "retries": getattr(stats, "retries", 0),
        "quarantined": len(getattr(stats, "quarantined", ())),
        "phases": stats.phases(),
    }


def manifest_summary(manifest: Manifest) -> Dict[str, Any]:
    """One manifest as a machine-readable summary (no artifact contents).

    The scripting shape behind ``repro store list --format json`` and the
    HTTP service's ``GET /manifests`` index: enough to pick a run (what,
    when, how many points, did its checks pass) and to address every
    rendered artifact by content hash without loading any of them.
    """
    checks = [check for entry in manifest.subgrids for check in entry.checks]
    return {
        "fingerprint": manifest.fingerprint,
        "kind": manifest.provenance.kind,
        "name": manifest.provenance.name,
        "created_at": manifest.provenance.created_at,
        "repro_version": manifest.provenance.repro_version,
        "subgrids": manifest.subgrid_names(),
        "points": sum(len(entry.points) for entry in manifest.subgrids),
        "checks": {
            "total": len(checks),
            "failed": sum(1 for check in checks if not check.passed),
        },
        "artifacts": {
            name: ref.to_dict() for name, ref in manifest.artifact_refs().items()
        },
        "artifact_bytes": sum(
            ref.size for ref in manifest.artifact_refs().values()
        ),
    }


def describe_manifest(manifest: Manifest) -> str:
    """One-line summary used by ``repro store list``."""
    provenance = manifest.provenance
    points = sum(len(entry.points) for entry in manifest.subgrids)
    checks = [check for entry in manifest.subgrids for check in entry.checks]
    failed = sum(1 for check in checks if not check.passed)
    check_note = (
        f"{len(checks)} check(s){f', {failed} FAILED' if failed else ''}"
        if checks
        else "no checks"
    )
    return (
        f"{manifest.fingerprint[:12]}  {provenance.kind:<8} {provenance.name:<18} "
        f"{len(manifest.subgrids)} sub-grid(s), {points} point(s), {check_note}"
        f"{f'  {provenance.created_at}' if provenance.created_at else ''}"
    )
