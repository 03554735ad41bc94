"""The versioned manifest: what one recorded experiment run *is*.

A :class:`Manifest` is the store's unit of record — everything a report
needs to be served without resolving a single
:class:`~repro.runner.RunSpec`: per sub-grid, the resolved result-cache
keys of every point, the measured rows the tables showed, the declared
claims, the evaluated check outcomes, and references to the rendered
artifacts (markdown, CSV, JSON) that were written once at run time.  On
top sits provenance — the campaign's content hash, the repro version, the
cache schema version, the run's effective overrides and a caller-supplied
timestamp — so a narrative generated months later can say exactly which
spec and code produced its numbers.

Like :class:`~repro.scenario.Scenario` and
:class:`~repro.campaign.Campaign`, a manifest is plain data:
``from_dict(to_dict(m)) == m`` holds exactly, the dictionary form is plain
JSON, and every validation error carries the dotted path of the offending
entry (``manifest.subgrids.fig7.points[2].cache_key``).  The manifest
deliberately knows nothing about directories — content addressing and blob
I/O live in :mod:`repro.store.store`.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runner.cache import CACHE_SCHEMA_VERSION, canonical_json
from repro.scenario.errors import (
    ScenarioError,
    _plain as _scenario_plain,
    _reject_unknown_keys as _scenario_reject_unknown_keys,
    _require_mapping as _scenario_require_mapping,
)
from repro.version import __version__

#: Version of the manifest schema.  Bump when the manifest's shape changes
#: in a way old files cannot express; the loader rejects newer versions with
#: an actionable message instead of misreading them.
STORE_SCHEMA_VERSION = 1

#: Run kinds a manifest can record (what produced it).
MANIFEST_KINDS = ("campaign", "grid")


class StoreError(ScenarioError):
    """A manifest or store operation failed validation.

    Subclasses :class:`~repro.scenario.ScenarioError` so every surface that
    already turns scenario/campaign errors into friendly messages (the CLI
    error path) handles store errors for free.
    """


class AmbiguousFingerprintError(StoreError):
    """A fingerprint prefix matched more than one recorded manifest.

    Carries the full matching fingerprints so callers can show the user the
    actual candidates: the CLI's ``store show`` prints one describe-line per
    match, and the HTTP service answers ``300 Multiple Choices`` with the
    list — nobody has to re-derive it from a truncated message.
    """

    def __init__(self, prefix: str, matches: Sequence[str]) -> None:
        self.prefix = prefix
        self.matches = tuple(matches)
        listing = "\n".join(f"  {match}" for match in self.matches)
        super().__init__(
            f"fingerprint prefix '{prefix}' matches {len(self.matches)} "
            f"manifests:\n{listing}\n(disambiguate with more characters)"
        )


# The scenario layer's schema helpers, re-raised as StoreError so the
# exception type matches the document being validated.
def _plain(value: Any, path: str) -> Any:
    try:
        return _scenario_plain(value, path)
    except ScenarioError as exc:
        raise StoreError(str(exc)) from None


def _require_mapping(data: Any, path: str) -> Mapping[str, Any]:
    try:
        return _scenario_require_mapping(data, path)
    except ScenarioError as exc:
        raise StoreError(str(exc)) from None


def _reject_unknown_keys(data: Mapping[str, Any], known: Sequence[str], path: str) -> None:
    try:
        _scenario_reject_unknown_keys(data, known, path)
    except ScenarioError as exc:
        raise StoreError(str(exc)) from None


def _require_str(value: Any, path: str, allow_empty: bool = True) -> str:
    if not isinstance(value, str) or (not allow_empty and not value):
        raise StoreError(f"{path}: expected a {'' if allow_empty else 'non-empty '}string, "
                         f"got {value!r}")
    return value


_CONTENT_DIGEST = re.compile(r"[0-9a-f]{64}")


def content_digest(content: bytes) -> str:
    """The store's content address: SHA-256 hex of the raw bytes."""
    return hashlib.sha256(content).hexdigest()


def is_content_digest(value: Any) -> bool:
    """True when ``value`` is exactly 64 lowercase hex digits.

    That is the form :func:`content_digest` and every cache key and run
    fingerprint take.
    """
    return isinstance(value, str) and _CONTENT_DIGEST.fullmatch(value) is not None


def spec_hash(spec: Mapping[str, Any]) -> str:
    """Content hash of a serialized campaign/scenario spec (provenance)."""
    return content_digest(canonical_json(spec).encode("utf-8"))


def run_fingerprint(
    kind: str,
    spec: Mapping[str, Any],
    duration_ms: Optional[float] = None,
    traffic_scale: Optional[float] = None,
    selection: Optional[Sequence[str]] = None,
    plugin_modules: Sequence[str] = (),
) -> str:
    """The manifest's lookup key: a hash of *what would run*, nothing more.

    Everything that changes the results or the report shape participates —
    the serialized spec, the effective duration/traffic overrides, the
    sub-grid (or axis-set) selection, the plugin modules — and nothing that
    does not (``--jobs``, cache directories, output formats).  Crucially the
    fingerprint is computed from the spec's *dictionary form*, so a warm
    ``campaign report`` can find its manifest without resolving a single
    scenario.
    """
    if kind not in MANIFEST_KINDS:
        raise StoreError(
            f"manifest kind must be one of {', '.join(MANIFEST_KINDS)}, got {kind!r}"
        )
    payload = {
        "store_schema_version": STORE_SCHEMA_VERSION,
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "kind": kind,
        "spec": dict(spec),
        "duration_ms": duration_ms,
        "traffic_scale": traffic_scale,
        "selection": list(selection) if selection is not None else None,
        "plugin_modules": list(plugin_modules),
    }
    return content_digest(canonical_json(payload).encode("utf-8"))


@dataclass(frozen=True)
class ArtifactRef:
    """A content-addressed reference to one rendered artifact blob.

    ``digest`` is the SHA-256 of the blob's bytes — the reference *is* the
    integrity check, which is what lets ``repro store verify`` detect a
    tampered or truncated artifact without any side channel.
    """

    digest: str
    ext: str
    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.digest, str) or len(self.digest) != 64:
            raise StoreError(
                f"artifact.digest: expected a 64-hex-digit SHA-256, got {self.digest!r}"
            )
        if not isinstance(self.ext, str) or not self.ext or "." in self.ext:
            raise StoreError(
                f"artifact.ext: expected a bare extension like 'md', got {self.ext!r}"
            )
        if not isinstance(self.size, int) or self.size < 0:
            raise StoreError(f"artifact.size: expected a byte count, got {self.size!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {"digest": self.digest, "ext": self.ext, "size": self.size}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], path: str) -> "ArtifactRef":
        data = _require_mapping(data, path)
        _reject_unknown_keys(data, ["digest", "ext", "size"], path)
        for key in ("digest", "ext", "size"):
            if key not in data:
                raise StoreError(f"{path}.{key}: required key is missing")
        try:
            return cls(digest=data["digest"], ext=data["ext"], size=data["size"])
        except ScenarioError as exc:
            raise StoreError(str(exc).replace("artifact.", f"{path}.", 1)) from None


@dataclass(frozen=True)
class PointRecord:
    """One resolved grid point: its settings, display label and cache key.

    The cache key is the same SHA-256 the run itself used, so a manifest
    holder can go straight to the result-cache entry — or assert its
    presence — without re-resolving the scenario that produced it.

    ``status`` is ``"ok"`` for a measured point and ``"quarantined"`` for a
    point the run gave up on after exhausting its retry budget (``error``
    then carries the last failure).  A quarantined point's cache key is
    still the real one — a later resume that succeeds fills exactly that
    slot — but no result is promised behind it, so ``store verify`` skips
    quarantined keys in its cache cross-check.

    ``memo_key`` is the point's *resolution-free* spec key
    (:meth:`repro.runner.RunSpec.memo_key`) and ``result`` references the
    point's full serialized experiment result; together they are what the
    store's point index needs to let a later overlapping campaign reuse
    this point without resolving its scenario or re-simulating — and they
    make the index rebuildable from manifests alone.  ``to_dict`` omits
    the healthy defaults and the absent optionals, keeping manifests of
    earlier schema generations byte-stable across these additions.
    """

    settings: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""
    cache_key: str = ""
    status: str = "ok"
    error: str = ""
    memo_key: str = ""
    result: Optional[ArtifactRef] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "settings", _plain(dict(self.settings), "point.settings"))
        _require_str(self.label, "point.label")
        if not isinstance(self.cache_key, str) or len(self.cache_key) != 64:
            raise StoreError(
                f"point.cache_key: expected a 64-hex-digit SHA-256, got {self.cache_key!r}"
            )
        if self.status not in ("ok", "quarantined"):
            raise StoreError(
                f"point.status: expected 'ok' or 'quarantined', got {self.status!r}"
            )
        _require_str(self.error, "point.error")
        if self.memo_key and (
            not isinstance(self.memo_key, str) or len(self.memo_key) != 64
        ):
            raise StoreError(
                f"point.memo_key: expected a 64-hex-digit SHA-256, got {self.memo_key!r}"
            )
        if self.result is not None and not isinstance(self.result, ArtifactRef):
            raise StoreError(
                f"point.result: expected an artifact reference, got {self.result!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "settings": dict(self.settings),
            "label": self.label,
            "cache_key": self.cache_key,
        }
        if self.status != "ok":
            data["status"] = self.status
        if self.error:
            data["error"] = self.error
        if self.memo_key:
            data["memo_key"] = self.memo_key
        if self.result is not None:
            data["result"] = self.result.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], path: str) -> "PointRecord":
        data = _require_mapping(data, path)
        _reject_unknown_keys(
            data,
            ["settings", "label", "cache_key", "status", "error", "memo_key", "result"],
            path,
        )
        try:
            return cls(
                settings=dict(_require_mapping(data.get("settings", {}), f"{path}.settings")),
                label=data.get("label", ""),
                cache_key=data.get("cache_key", ""),
                status=data.get("status", "ok"),
                error=data.get("error", ""),
                memo_key=data.get("memo_key", ""),
                result=(
                    ArtifactRef.from_dict(data["result"], f"{path}.result")
                    if data.get("result") is not None
                    else None
                ),
            )
        except ScenarioError as exc:
            raise StoreError(str(exc).replace("point.", f"{path}.", 1)) from None


@dataclass(frozen=True)
class CheckRecord:
    """One evaluated check outcome, frozen at run time.

    ``detail`` carries the measured evidence (failing cores, point counts,
    margins) exactly as the live report printed it, so the narrative can
    quote measured values without re-running anything.
    """

    kind: str = ""
    experiment: str = ""
    description: str = ""
    passed: bool = False
    detail: str = ""

    def __post_init__(self) -> None:
        _require_str(self.kind, "check.kind", allow_empty=False)
        _require_str(self.experiment, "check.experiment")
        _require_str(self.description, "check.description")
        if not isinstance(self.passed, bool):
            raise StoreError(f"check.passed: expected a boolean, got {self.passed!r}")
        _require_str(self.detail, "check.detail")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "experiment": self.experiment,
            "description": self.description,
            "passed": self.passed,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], path: str) -> "CheckRecord":
        data = _require_mapping(data, path)
        known = ["kind", "experiment", "description", "passed", "detail"]
        _reject_unknown_keys(data, known, path)
        if "kind" not in data:
            raise StoreError(f"{path}.kind: required key is missing")
        try:
            return cls(**{key: data[key] for key in known if key in data})
        except ScenarioError as exc:
            raise StoreError(str(exc).replace("check.", f"{path}.", 1)) from None


@dataclass(frozen=True)
class SubGridEntry:
    """Everything recorded for one sub-grid (or grid axis set).

    ``rows`` are the measured table rows with raw numeric values (the JSON
    payload shape of the report layer), ``points`` bind each row back to its
    settings and result-cache key, and ``artifacts`` reference the rendered
    markdown/CSV/JSON tables by content address.
    """

    name: str
    scenario: str = ""
    title: str = ""
    critical_cores: Tuple[str, ...] = ()
    points: Tuple[PointRecord, ...] = ()
    rows: Tuple[Mapping[str, Any], ...] = ()
    claims: Tuple[str, ...] = ()
    checks: Tuple[CheckRecord, ...] = ()
    artifacts: Mapping[str, ArtifactRef] = field(default_factory=dict)

    def __post_init__(self) -> None:
        prefix = f"subgrid.{self.name or '?'}"
        _require_str(self.name, "subgrid name", allow_empty=False)
        _require_str(self.scenario, f"{prefix}.scenario")
        _require_str(self.title, f"{prefix}.title")
        object.__setattr__(
            self, "critical_cores",
            tuple(_plain(list(self.critical_cores), f"{prefix}.critical_cores")),
        )
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(
            self,
            "rows",
            tuple(_require_mapping(_plain(row, f"{prefix}.rows[{index}]"),
                                   f"{prefix}.rows[{index}]")
                  for index, row in enumerate(self.rows)),
        )
        object.__setattr__(self, "claims", tuple(str(claim) for claim in self.claims))
        object.__setattr__(self, "checks", tuple(self.checks))
        artifacts = dict(self.artifacts)
        for key, ref in artifacts.items():
            if not isinstance(ref, ArtifactRef):
                raise StoreError(
                    f"{prefix}.artifacts.{key}: expected an artifact reference, "
                    f"got {type(ref).__name__}"
                )
        object.__setattr__(self, "artifacts", artifacts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "title": self.title,
            "critical_cores": list(self.critical_cores),
            "points": [point.to_dict() for point in self.points],
            "rows": [dict(row) for row in self.rows],
            "claims": list(self.claims),
            "checks": [check.to_dict() for check in self.checks],
            "artifacts": {key: ref.to_dict() for key, ref in self.artifacts.items()},
        }

    @classmethod
    def from_dict(cls, name: str, data: Mapping[str, Any], path: str) -> "SubGridEntry":
        data = _require_mapping(data, path)
        known = [f.name for f in fields(cls) if f.name != "name"]
        _reject_unknown_keys(data, known, path)
        kwargs: Dict[str, Any] = {
            key: data[key]
            for key in ("scenario", "title", "critical_cores", "claims", "rows")
            if key in data
        }
        for listy in ("points", "rows", "claims", "checks", "critical_cores"):
            if listy in data and not isinstance(data[listy], (list, tuple)):
                raise StoreError(
                    f"{path}.{listy}: expected a list, got {type(data[listy]).__name__}"
                )
        if "points" in data:
            kwargs["points"] = tuple(
                PointRecord.from_dict(point, f"{path}.points[{index}]")
                for index, point in enumerate(data["points"])
            )
        if "checks" in data:
            kwargs["checks"] = tuple(
                CheckRecord.from_dict(check, f"{path}.checks[{index}]")
                for index, check in enumerate(data["checks"])
            )
        if "artifacts" in data:
            artifacts = _require_mapping(data["artifacts"], f"{path}.artifacts")
            kwargs["artifacts"] = {
                key: ArtifactRef.from_dict(ref, f"{path}.artifacts.{key}")
                for key, ref in artifacts.items()
            }
        try:
            return cls(name=name, **kwargs)
        except ScenarioError as exc:
            raise StoreError(str(exc).replace(f"subgrid.{name}", path, 1)) from None


@dataclass(frozen=True)
class Provenance:
    """Where a manifest's numbers came from, for readers months later.

    ``created_at`` is passed in by the caller (the CLI stamps wall-clock
    time; tests pass fixed strings) so the store itself stays a pure
    function of its inputs — the same run recorded twice differs only where
    the caller made it differ.
    """

    kind: str = "campaign"
    name: str = ""
    spec_hash: str = ""
    repro_version: str = __version__
    cache_schema_version: int = CACHE_SCHEMA_VERSION
    created_at: str = ""
    duration_ms: Optional[float] = None
    traffic_scale: Optional[float] = None
    selection: Optional[Tuple[str, ...]] = None
    plugin_modules: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in MANIFEST_KINDS:
            raise StoreError(
                f"provenance.kind: must be one of {', '.join(MANIFEST_KINDS)}, "
                f"got {self.kind!r}"
            )
        _require_str(self.name, "provenance.name", allow_empty=False)
        if not isinstance(self.spec_hash, str) or len(self.spec_hash) != 64:
            raise StoreError(
                f"provenance.spec_hash: expected a 64-hex-digit SHA-256, "
                f"got {self.spec_hash!r}"
            )
        _require_str(self.repro_version, "provenance.repro_version")
        if not isinstance(self.cache_schema_version, int):
            raise StoreError(
                "provenance.cache_schema_version: expected an integer, "
                f"got {self.cache_schema_version!r}"
            )
        _require_str(self.created_at, "provenance.created_at")
        for knob in ("duration_ms", "traffic_scale"):
            value = getattr(self, knob)
            if value is not None and not isinstance(value, (int, float)):
                raise StoreError(
                    f"provenance.{knob}: expected a number or null, got {value!r}"
                )
        if self.selection is not None:
            object.__setattr__(
                self, "selection",
                tuple(str(name) for name in self.selection),
            )
        object.__setattr__(
            self, "plugin_modules", tuple(str(m) for m in self.plugin_modules)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "spec_hash": self.spec_hash,
            "repro_version": self.repro_version,
            "cache_schema_version": self.cache_schema_version,
            "created_at": self.created_at,
            "duration_ms": self.duration_ms,
            "traffic_scale": self.traffic_scale,
            "selection": list(self.selection) if self.selection is not None else None,
            "plugin_modules": list(self.plugin_modules),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], path: str) -> "Provenance":
        data = _require_mapping(data, path)
        known = [f.name for f in fields(cls)]
        _reject_unknown_keys(data, known, path)
        kwargs: Dict[str, Any] = {key: data[key] for key in known if key in data}
        if kwargs.get("selection") is not None and not isinstance(
            kwargs["selection"], (list, tuple)
        ):
            raise StoreError(
                f"{path}.selection: expected a list or null, "
                f"got {type(kwargs['selection']).__name__}"
            )
        try:
            return cls(**kwargs)
        except ScenarioError as exc:
            raise StoreError(str(exc).replace("provenance.", f"{path}.", 1)) from None


@dataclass(frozen=True)
class Manifest:
    """One recorded run: provenance, per-sub-grid records, top-level artifacts.

    ``fingerprint`` is the lookup key (:func:`run_fingerprint` of the spec
    plus effective overrides); ``artifacts`` hold the run-level renderings —
    the full campaign report in markdown and JSON, and the generated
    narrative — next to each sub-grid's own tables.
    """

    fingerprint: str
    provenance: Provenance
    schema_version: int = STORE_SCHEMA_VERSION
    subgrids: Tuple[SubGridEntry, ...] = ()
    artifacts: Mapping[str, ArtifactRef] = field(default_factory=dict)
    stats: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.schema_version != STORE_SCHEMA_VERSION:
            raise StoreError(
                f"manifest.schema_version: file declares version {self.schema_version}, "
                f"this build reads version {STORE_SCHEMA_VERSION}"
            )
        if not isinstance(self.fingerprint, str) or len(self.fingerprint) != 64:
            raise StoreError(
                f"manifest.fingerprint: expected a 64-hex-digit SHA-256, "
                f"got {self.fingerprint!r}"
            )
        if not isinstance(self.provenance, Provenance):
            raise StoreError(
                "manifest.provenance: expected a Provenance, "
                f"got {type(self.provenance).__name__}"
            )
        subgrids = tuple(self.subgrids)
        seen = set()
        for entry in subgrids:
            if entry.name in seen:
                raise StoreError(
                    f"manifest.subgrids.{entry.name}: duplicate sub-grid name"
                )
            seen.add(entry.name)
        object.__setattr__(self, "subgrids", subgrids)
        artifacts = dict(self.artifacts)
        for key, ref in artifacts.items():
            if not isinstance(ref, ArtifactRef):
                raise StoreError(
                    f"manifest.artifacts.{key}: expected an artifact reference, "
                    f"got {type(ref).__name__}"
                )
        object.__setattr__(self, "artifacts", artifacts)
        object.__setattr__(self, "stats", _plain(dict(self.stats), "manifest.stats"))

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def subgrid_names(self) -> List[str]:
        return [entry.name for entry in self.subgrids]

    def subgrid(self, name: str) -> SubGridEntry:
        for entry in self.subgrids:
            if entry.name == name:
                return entry
        raise StoreError(
            f"manifest {self.fingerprint[:12]} has no sub-grid '{name}' "
            f"(recorded: {', '.join(self.subgrid_names())})"
        )

    def cache_keys(self) -> List[str]:
        """Result-cache keys this manifest *vouches for*, in record order.

        Quarantined points are excluded: their keys are real addresses but
        no result is promised behind them, so ``store verify`` must not
        flag their absence as corruption.
        """
        return [
            point.cache_key
            for entry in self.subgrids
            for point in entry.points
            if point.status == "ok"
        ]

    def artifact_refs(self) -> Dict[str, ArtifactRef]:
        """Every artifact reference, qualified ``<scope>/<name>`` for messages.

        Per-point result blobs are included, so ``store verify`` hashes them
        and ``store gc`` keeps them alive as long as any manifest references
        them — which is exactly what makes cross-campaign reuse safe.
        """
        refs = {f"manifest/{key}": ref for key, ref in self.artifacts.items()}
        for entry in self.subgrids:
            for key, ref in entry.artifacts.items():
                refs[f"{entry.name}/{key}"] = ref
            for position, point in enumerate(entry.points):
                if point.result is not None:
                    refs[f"{entry.name}/points[{position}]/result"] = point.result
        # Trace artifacts recorded by `campaign run --trace` live only in the
        # free-form stats field; include them here so gc keeps them alive
        # and verify content-checks them.  Stats are untyped, so anything
        # malformed is simply not a reference.
        trace_info = self.stats.get("trace")
        if isinstance(trace_info, Mapping):
            for key in ("events_jsonl", "trace_json"):
                data = trace_info.get(key)
                if isinstance(data, Mapping):
                    try:
                        refs[f"stats/trace/{key}"] = ArtifactRef.from_dict(
                            data, f"stats.trace.{key}"
                        )
                    except StoreError:
                        continue
        return refs

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain-data form (``from_dict`` inverts it exactly)."""
        return {
            "schema_version": self.schema_version,
            "fingerprint": self.fingerprint,
            "provenance": self.provenance.to_dict(),
            "subgrids": {entry.name: entry.to_dict() for entry in self.subgrids},
            "artifacts": {key: ref.to_dict() for key, ref in self.artifacts.items()},
            "stats": dict(self.stats),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Manifest":
        """Validate and rebuild a manifest from its dictionary form.

        Every validation error is a :class:`StoreError` whose message starts
        with the dotted path of the offending entry.
        """
        data = _require_mapping(data, "manifest")
        version = data.get("schema_version", STORE_SCHEMA_VERSION)
        if version != STORE_SCHEMA_VERSION:
            raise StoreError(
                f"manifest.schema_version: file declares version {version}, "
                f"this build reads version {STORE_SCHEMA_VERSION}"
            )
        known = [f.name for f in fields(cls)]
        _reject_unknown_keys(data, known, "manifest")
        for key in ("fingerprint", "provenance"):
            if key not in data:
                raise StoreError(f"manifest.{key}: required key is missing")
        kwargs: Dict[str, Any] = {
            "fingerprint": data["fingerprint"],
            "provenance": Provenance.from_dict(data["provenance"], "manifest.provenance"),
        }
        if "subgrids" in data:
            subgrids = _require_mapping(data["subgrids"], "manifest.subgrids")
            kwargs["subgrids"] = tuple(
                SubGridEntry.from_dict(name, body, f"manifest.subgrids.{name}")
                for name, body in subgrids.items()
            )
        if "artifacts" in data:
            artifacts = _require_mapping(data["artifacts"], "manifest.artifacts")
            kwargs["artifacts"] = {
                key: ArtifactRef.from_dict(ref, f"manifest.artifacts.{key}")
                for key, ref in artifacts.items()
            }
        if "stats" in data:
            kwargs["stats"] = dict(_require_mapping(data["stats"], "manifest.stats"))
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        # Sub-grid order is semantic (it is the report order), so keys are
        # not sorted; ``to_dict`` emits them losslessly in record order.
        return json.dumps(self.to_dict(), indent=indent)
