"""The content-addressed results store: serve results, don't recompute them.

The runner's :class:`~repro.runner.cache.ResultCache` memoizes *simulation*
— one entry per resolved run — but every report still had to re-resolve the
grid to know which entries to read.  This package adds the missing layer: a
:class:`Manifest` records, per campaign (or grid) run, every point's
resolved cache key, the measured rows, the evaluated check outcomes, the
rendered artifacts (markdown / CSV / JSON, written once at run time) and
the run's provenance — so ``repro campaign report`` and ``repro grid`` can
serve a recorded run as a pure read, and the
:mod:`~repro.store.narrative` renderer can turn declared claims plus
measured outcomes into a regenerable ``EXPERIMENTS.md`` section.

The :mod:`~repro.store.index` module inverts the manifests into a sharded
store-wide point index (cache key → recorded point, memo key → cache key),
which is what lets a later overlapping campaign reuse recorded points
without resolving a scenario or scanning a single manifest.

``repro store list|show|verify|gc|index`` operates on a store directory.
"""

from repro.store.index import (
    INDEX_SCHEMA_VERSION,
    PointEntry,
    PointIndex,
    StoreMemo,
    decode_point_result,
    encode_point_result,
    manifest_index_entries,
)
from repro.store.manifest import (
    MANIFEST_KINDS,
    STORE_SCHEMA_VERSION,
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
    run_fingerprint,
    spec_hash,
)
from repro.store.narrative import narrative_md, replace_section
from repro.store.store import (
    GridSection,
    ResultsStore,
    content_type_for,
    describe_manifest,
    manifest_summary,
)

__all__ = [
    "AmbiguousFingerprintError",
    "ArtifactRef",
    "CheckRecord",
    "GridSection",
    "INDEX_SCHEMA_VERSION",
    "MANIFEST_KINDS",
    "Manifest",
    "PointEntry",
    "PointIndex",
    "PointRecord",
    "Provenance",
    "ResultsStore",
    "STORE_SCHEMA_VERSION",
    "StoreError",
    "StoreMemo",
    "SubGridEntry",
    "content_digest",
    "content_type_for",
    "decode_point_result",
    "describe_manifest",
    "encode_point_result",
    "is_content_digest",
    "manifest_index_entries",
    "manifest_summary",
    "narrative_md",
    "replace_section",
    "run_fingerprint",
    "spec_hash",
]
