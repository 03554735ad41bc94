"""Unit tests for the store-wide point index and the runner-facing memo.

The index is derived data over the manifests: these tests pin down the
derivation (row alignment, quarantine handling), the shard mechanics
(sharding, unreadable-shard behaviour, rebuild supersession), the
maintenance hooks (``put_manifest`` / ``delete_manifest`` / ``rebuild``)
and the one safety property everything else leans on: a lookup can only
ever return a healthy, byte-verified recording — anything else is a miss.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace

import pytest

from repro.analysis.serialize import experiment_result_to_dict
from repro.campaign import Campaign, CampaignScheduler, SubGrid
from repro.runner import ResultCache, RunSpec
from repro.store import (
    INDEX_SCHEMA_VERSION,
    PointEntry,
    PointIndex,
    ResultsStore,
    StoreError,
    decode_point_result,
    manifest_index_entries,
)

DURATION_MS = 0.25
TRAFFIC = 0.1
KEY_A = "a" * 64
KEY_B = "b" * 64
FP = "f" * 64


def _campaign(name: str = "index_mini") -> Campaign:
    return Campaign(
        name=name,
        duration_ms=DURATION_MS,
        traffic_scale=TRAFFIC,
        subgrids=(
            SubGrid(
                name="policies",
                scenario="case_b",
                axes={"policy": ["fcfs", "priority_qos"]},
            ),
        ),
    )


def _record(root) -> tuple:
    """Record one campaign into a fresh store at ``root``."""
    store = ResultsStore(root / "store")
    cache = ResultCache(root / "cache")
    scheduler = CampaignScheduler(_campaign())
    outcome = scheduler.run(
        cache=cache, store=store, recorded_at="2026-08-08T12:00:00+00:00"
    )
    manifest = store.get_manifest(scheduler.fingerprint())
    return store, cache, scheduler, outcome, manifest


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One recorded campaign run: (store, cache, scheduler, outcome, manifest)."""
    return _record(tmp_path_factory.mktemp("point-index"))


class TestPointEntry:
    def test_roundtrip(self):
        entry = PointEntry(
            cache_key=KEY_A,
            fingerprint=FP,
            subgrid="policies",
            label="policy=fcfs",
            settings={"policy": "fcfs"},
            row={"point": "policy=fcfs", "bandwidth_gb_per_s": 11.5},
            memo_key=KEY_B,
        )
        assert PointEntry.from_dict(KEY_A, entry.to_dict()) == entry

    def test_rejects_malformed_keys(self):
        with pytest.raises(StoreError, match="cache key"):
            PointEntry(cache_key="nope", fingerprint=FP)
        with pytest.raises(StoreError, match="fingerprint"):
            PointEntry(cache_key=KEY_A, fingerprint="nope")


class TestDerivation:
    def test_entries_carry_rows_settings_and_result_refs(self, recorded):
        _, _, _, _, manifest = recorded
        points, specs = manifest_index_entries(manifest)
        assert len(points) == 2
        entry = manifest.subgrid("policies")
        for record, row in zip(entry.points, entry.rows):
            indexed = points[record.cache_key]
            assert indexed.fingerprint == manifest.fingerprint
            assert indexed.subgrid == "policies"
            assert indexed.label == record.label
            assert indexed.settings == dict(record.settings)
            assert indexed.row == dict(row)
            assert indexed.status == "ok"
            assert indexed.result == record.result
            assert specs[record.memo_key] == record.cache_key
        assert len(specs) == 2

    def test_quarantined_points_get_no_row_and_keep_their_status(self, recorded):
        _, _, _, _, manifest = recorded
        entry = manifest.subgrid("policies")
        hole = replace(
            entry.points[0],
            cache_key=KEY_A,
            status="quarantined",
            error="boom (2 attempt(s))",
            memo_key="",
            result=None,
        )
        tweaked = replace(
            manifest,
            subgrids=(replace(entry, points=entry.points + (hole,)),),
        )
        points, _ = manifest_index_entries(tweaked)
        assert points[KEY_A].status == "quarantined"
        assert points[KEY_A].row == {}
        assert points[KEY_A].result is None
        # Row alignment skips the hole: the measured points keep their rows.
        for record, row in zip(entry.points, entry.rows):
            assert points[record.cache_key].row == dict(row)


class TestShardMechanics:
    def test_lookup_is_sharded_by_key_prefix(self, recorded):
        store, _, _, _, manifest = recorded
        index = store.point_index
        for record in manifest.subgrid("policies").points:
            shard = index.points_dir / f"{record.cache_key[:2]}.json"
            assert shard.is_file()
            assert index.get(record.cache_key).cache_key == record.cache_key
            assert index.cache_key_for(record.memo_key) == record.cache_key
            assert index.find(record.memo_key).cache_key == record.cache_key

    def test_malformed_keys_and_unknown_keys_miss(self, recorded):
        store, _, _, _, _ = recorded
        index = store.point_index
        assert index.get("not-a-key") is None
        assert index.get(KEY_A) is None
        assert index.cache_key_for("not-a-key") is None
        assert index.find(KEY_B) is None

    def test_unreadable_shard_reads_as_empty(self, tmp_path):
        index = PointIndex(tmp_path / "index")
        index.update(
            {KEY_A: PointEntry(cache_key=KEY_A, fingerprint=FP)}, {KEY_B: KEY_A}
        )
        (index.points_dir / f"{KEY_A[:2]}.json").write_text("{ truncated")
        fresh = PointIndex(tmp_path / "index")
        assert fresh.get(KEY_A) is None
        assert fresh.cache_key_for(KEY_B) == KEY_A  # other table unaffected

    def test_foreign_schema_version_reads_as_empty(self, tmp_path):
        index = PointIndex(tmp_path / "index")
        index.update({KEY_A: PointEntry(cache_key=KEY_A, fingerprint=FP)}, {})
        shard = index.points_dir / f"{KEY_A[:2]}.json"
        data = json.loads(shard.read_text())
        data["index_schema_version"] = INDEX_SCHEMA_VERSION + 1
        shard.write_text(json.dumps(data))
        assert PointIndex(tmp_path / "index").get(KEY_A) is None


class TestMaintenance:
    def test_put_manifest_indexes_and_delete_manifest_deindexes(self, tmp_path):
        store, _, _, _, manifest = _record(tmp_path)
        keys = [p.cache_key for p in manifest.subgrid("policies").points]
        assert all(store.point_index.get(key) is not None for key in keys)
        assert store.delete_manifest(manifest.fingerprint)
        assert all(store.point_index.get(key) is None for key in keys)
        assert list(store.point_index.spec_mappings()) == []

    def test_remove_manifest_spares_entries_a_newer_recording_owns(self, tmp_path):
        from repro.store import Manifest, PointRecord, Provenance, SubGridEntry

        index = PointIndex(tmp_path / "index")
        # KEY_A was recorded by FP, then re-recorded under another run.
        index.update({KEY_A: PointEntry(cache_key=KEY_A, fingerprint=FP)}, {})
        index.update({KEY_A: PointEntry(cache_key=KEY_A, fingerprint=KEY_B)}, {})
        old_manifest = Manifest(
            fingerprint=FP,
            provenance=Provenance(name="old_run", spec_hash=KEY_B),
            subgrids=(
                SubGridEntry(
                    name="g",
                    scenario="case_b",
                    points=(PointRecord(cache_key=KEY_A, label="p"),),
                    rows=({"point": "p"},),
                ),
            ),
        )
        assert index.remove_manifest(old_manifest) == 0
        assert index.get(KEY_A).fingerprint == KEY_B

    def test_rebuild_supersedes_stale_entries(self, recorded, tmp_path):
        store, _, _, _, manifest = recorded
        clone = ResultsStore(tmp_path)
        shutil.copytree(store.manifest_dir, clone.manifest_dir)
        index = clone.point_index
        index.update(
            {KEY_A: PointEntry(cache_key=KEY_A, fingerprint=FP)}, {KEY_B: KEY_A}
        )
        points, specs = clone.rebuild_index()
        assert (points, specs) == (2, 2)
        assert index.get(KEY_A) is None
        assert index.cache_key_for(KEY_B) is None
        for record in manifest.subgrid("policies").points:
            assert index.get(record.cache_key) is not None
        assert index.counts() == (2, 2)


class TestStoreMemo:
    def test_hit_returns_decoded_result_and_recorded_cache_key(self, recorded):
        store, _, scheduler, outcome, _ = recorded
        run = scheduler.plan()[0]
        hit = store.memo().get(run.spec)
        assert hit is not None
        result, cache_key = hit
        assert cache_key == run.spec.key()
        live = outcome.results("policies")[run.label]
        # The campaign ran without keep_trace, so the recorded blob carries
        # the trace-free form — exactly what the reports consume.
        assert experiment_result_to_dict(result, include_trace=False) == (
            experiment_result_to_dict(live, include_trace=False)
        )
        assert store.memo().probe(run.spec)

    def test_unknown_spec_misses(self, recorded):
        store, _, _, _, _ = recorded
        spec = RunSpec(scenario="case_a", duration_ps=123_000, traffic_scale=TRAFFIC)
        assert store.memo().get(spec) is None
        assert not store.memo().probe(spec)

    def test_quarantined_entry_is_never_served(self, recorded):
        store, _, scheduler, _, _ = recorded
        spec = scheduler.plan()[0].spec
        index = store.point_index
        entry = index.find(spec.memo_key())
        quarantined = PointEntry.from_dict(
            entry.cache_key, {**entry.to_dict(), "status": "quarantined"}
        )
        shard_path = index.points_dir / f"{entry.cache_key[:2]}.json"
        original = shard_path.read_text()
        try:
            index.update({entry.cache_key: quarantined}, {})
            assert store.memo().get(spec) is None
            assert not store.memo().probe(spec)
        finally:
            # Lookups re-read the shard, so restoring the file restores the entry.
            shard_path.write_text(original)

    def test_tampered_or_missing_result_blob_misses(self, recorded):
        store, _, scheduler, _, _ = recorded
        spec = scheduler.plan()[0].spec
        entry = store.point_index.find(spec.memo_key())
        blob = store.artifact_path(entry.result)
        original = blob.read_bytes()
        try:
            blob.write_bytes(b'{"forged": true}')
            assert store.memo().get(spec) is None  # content address mismatch
            assert store.memo().probe(spec)  # probe is presence-only, by design
            blob.unlink()
            assert store.memo().get(spec) is None
            assert not store.memo().probe(spec)
        finally:
            blob.write_bytes(original)

    def test_recorded_blob_decodes_to_the_live_result(self, recorded):
        store, _, scheduler, outcome, _ = recorded
        run = scheduler.plan()[0]
        entry = store.point_index.find(run.spec.memo_key())
        decoded = decode_point_result(store.read_artifact_bytes(entry.result))
        assert experiment_result_to_dict(decoded, include_trace=False) == (
            experiment_result_to_dict(
                outcome.results("policies")[run.label], include_trace=False
            )
        )


class TestVerifyIndex:
    def test_clean_store_verifies_clean(self, recorded):
        store, _, _, _, _ = recorded
        assert store.verify() == []

    def test_missing_index_is_flagged_and_rebuild_heals(self, recorded, tmp_path):
        store, _, _, _, _ = recorded
        clone = ResultsStore(tmp_path / "clone")
        shutil.copytree(store.manifest_dir, clone.manifest_dir)
        shutil.copytree(store.artifact_dir, clone.artifact_dir)
        problems = clone.verify()
        assert problems == [
            "store has no point index for 1 manifest(s) "
            "(rebuild with `repro store index`)"
        ]
        clone.rebuild_index()
        assert clone.verify() == []

    def test_stale_entries_are_flagged_and_rebuild_heals(self, tmp_path):
        store, _, _, _, manifest = _record(tmp_path)
        # Delete the manifest *behind the store's back*: the index keeps its
        # entries, and verify must call out the dangling direction.
        store.manifest_path(manifest.fingerprint).unlink()
        problems = ResultsStore(tmp_path / "store").verify()
        assert len(problems) == 2  # one per indexed point
        assert all("references deleted manifest" in p for p in problems)
        fresh = ResultsStore(tmp_path / "store")
        assert fresh.rebuild_index() == (0, 0)
        assert fresh.verify() == []
