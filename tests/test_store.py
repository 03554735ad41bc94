"""Tests for the results store: blobs, recording, verify, gc, narrative."""

from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stdout

import pytest

from repro.campaign import Campaign, CampaignScheduler, CheckSpec, SubGrid
from repro.cli import main
from repro.runner import ResultCache
from repro.store import (
    AmbiguousFingerprintError,
    ArtifactRef,
    ResultsStore,
    StoreError,
    is_content_digest,
    narrative_md,
    replace_section,
)

DURATION_MS = 0.4
TRAFFIC = 0.2


def _campaign() -> Campaign:
    return Campaign(
        name="store_mini",
        duration_ms=DURATION_MS,
        traffic_scale=TRAFFIC,
        subgrids=(
            SubGrid(
                name="policies",
                scenario="case_b",
                title="tiny policy grid",
                axes={"policy": ["fcfs", "priority_qos"]},
                columns=("bandwidth", "min_npi", "failing"),
                claims=("fcfs starves somebody",),
                checks=(
                    CheckSpec(
                        kind="some_point_fails",
                        params={"where": {"policy": "fcfs"}},
                    ),
                ),
            ),
        ),
    )


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One recorded campaign run: (store, cache, scheduler, outcome, manifest)."""
    root = tmp_path_factory.mktemp("store")
    store = ResultsStore(root / "store")
    cache = ResultCache(root / "cache")
    scheduler = CampaignScheduler(_campaign())
    outcome = scheduler.run(
        cache=cache, store=store, recorded_at="2026-07-28T12:00:00+00:00"
    )
    manifest = store.get_manifest(scheduler.fingerprint())
    return store, cache, scheduler, outcome, manifest


class TestArtifacts:
    def test_content_addressing_dedups_identical_blobs(self, tmp_path):
        store = ResultsStore(tmp_path)
        first = store.put_artifact("same content", "md")
        second = store.put_artifact("same content", "md")
        assert first == second
        assert len(list(store.artifact_dir.glob("*/*"))) == 1
        assert store.read_artifact(first) == "same content"

    def test_read_rejects_tampered_blob(self, tmp_path):
        store = ResultsStore(tmp_path)
        ref = store.put_artifact("honest numbers", "md")
        store.artifact_path(ref).write_text("dishonest numbers")
        with pytest.raises(StoreError, match="does not match its address"):
            store.read_artifact(ref)

    def test_read_missing_blob_raises(self, tmp_path):
        store = ResultsStore(tmp_path)
        ref = store.put_artifact("here today", "md")
        store.artifact_path(ref).unlink()
        with pytest.raises(StoreError, match="missing"):
            store.read_artifact(ref)


class TestRecording:
    def test_scheduler_hook_writes_a_manifest(self, recorded):
        store, _, scheduler, _, manifest = recorded
        assert manifest is not None
        assert manifest.fingerprint == scheduler.fingerprint()
        assert manifest.provenance.name == "store_mini"
        assert manifest.provenance.created_at == "2026-07-28T12:00:00+00:00"
        assert manifest.subgrid_names() == ["policies"]

    def test_manifest_records_cache_keys_that_exist_in_the_cache(self, recorded):
        store, cache, _, outcome, manifest = recorded
        keys = manifest.cache_keys()
        assert keys == outcome.cache_keys["policies"]
        assert len(keys) == 2
        assert all(key in cache for key in keys)

    def test_every_subgrid_carries_md_csv_json_artifacts(self, recorded):
        store, _, _, _, manifest = recorded
        entry = manifest.subgrid("policies")
        assert set(entry.artifacts) == {"md", "csv", "json"}
        table = store.read_artifact(entry.artifacts["md"])
        assert "### policies — tiny policy grid" in table
        csv_text = store.read_artifact(entry.artifacts["csv"])
        assert csv_text.splitlines()[0].startswith("point,bandwidth_gb_per_s,min_npi.")
        rows = json.loads(store.read_artifact(entry.artifacts["json"]))
        assert rows["rows"][0]["point"] == "policy=fcfs"

    def test_rows_hold_measured_values(self, recorded):
        _, _, _, outcome, manifest = recorded
        row = manifest.subgrid("policies").rows[0]
        measured = outcome.results("policies")["policy=fcfs"]
        assert row["bandwidth_gb_per_s"] == measured.dram_bandwidth_gb_per_s()

    def test_check_outcomes_are_frozen_into_the_manifest(self, recorded):
        _, _, _, outcome, manifest = recorded
        (check,) = manifest.subgrid("policies").checks
        (live_kind, live) = outcome.checks("policies")[0]
        assert check.kind == live_kind
        assert check.passed == live.passed
        assert check.detail == live.detail

    def test_served_report_matches_stored_artifact(self, recorded):
        store, _, scheduler, _, manifest = recorded
        served = store.serve(scheduler.fingerprint(), "report_md")
        assert served is not None
        assert served == store.read_artifact(manifest.artifacts["report_md"])
        assert store.serve(scheduler.fingerprint(), "no_such") is None
        assert store.serve("f" * 64, "report_md") is None


class TestVerifyAndGc:
    def test_clean_store_verifies_with_cache_cross_check(self, recorded):
        store, cache, _, _, _ = recorded
        assert store.verify(cache=cache) == []

    def test_verify_detects_a_tampered_artifact(self, recorded):
        store, _, _, _, manifest = recorded
        ref = manifest.subgrid("policies").artifacts["md"]
        path = store.artifact_path(ref)
        original = path.read_text()
        try:
            path.write_text(original.replace("tiny policy grid", "forged grid"))
            problems = store.verify()
            assert any("does not match its address" in problem for problem in problems)
        finally:
            path.write_text(original)
        assert store.verify() == []

    def test_verify_reports_missing_cache_keys(self, recorded, tmp_path):
        store, _, _, _, _ = recorded
        empty_cache = ResultCache(tmp_path / "empty")
        problems = store.verify(cache=empty_cache)
        assert any("cache key(s) missing" in problem for problem in problems)

    def test_gc_keeps_referenced_blobs_and_sweeps_orphans(self, recorded):
        store, _, _, _, _ = recorded
        orphan = store.put_artifact("nobody references me", "md")
        removed, kept = store.gc()
        assert removed == 1
        assert kept > 0
        assert not store.artifact_path(orphan).exists()
        assert store.verify() == []  # every referenced blob survived

    def test_gc_after_manifest_delete_reclaims_its_blobs(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        scheduler = CampaignScheduler(_campaign())
        scheduler.run(store=store, recorded_at="t")
        assert store.manifests()
        store.delete_manifest(scheduler.fingerprint())
        removed, kept = store.gc()
        assert kept == 0
        assert removed > 0


class TestSize:
    def test_size_bytes_is_every_file_under_manifests_artifacts_and_index(self, recorded):
        store, _, _, _, _ = recorded
        stray = store.manifest_dir / "interrupted.tmp"
        empty = store.index_dir / "empty"
        stray.write_bytes(b"half a manifest")
        empty.mkdir()
        try:
            expected = sum(
                path.stat().st_size
                for root in (store.manifest_dir, store.artifact_dir, store.index_dir)
                for path in root.rglob("*")
                if path.is_file()
            )
            assert store.size_bytes() == expected
        finally:
            stray.unlink()
            empty.rmdir()
        assert store.size_bytes() == expected - len(b"half a manifest")
        assert ResultsStore(store.directory / "missing").size_bytes() == 0


def _glob_manifests(store):
    """``ResultsStore.manifests`` as it listed with ``Path.glob`` (reference)."""
    directory = store.manifest_dir
    paths = sorted(directory.glob("*.json")) if directory.is_dir() else []
    loaded = [m for m in (store.get_manifest(path.stem) for path in paths) if m]
    loaded.sort(key=lambda m: (m.provenance.created_at, m.fingerprint), reverse=True)
    return loaded


def _glob_find_manifest(store, prefix):
    """``ResultsStore.find_manifest`` as it listed with ``Path.glob``, less the
    file named ``.json`` (reference)."""
    matches = []
    if store.manifest_dir.is_dir():
        matches = sorted(
            path.stem
            for path in store.manifest_dir.glob("*.json")
            if path.name != ".json" and path.stem.startswith(prefix)
        )
    if not matches:
        raise StoreError(f"no manifest matches '{prefix}' in {store.manifest_dir}")
    if len(matches) > 1:
        raise AmbiguousFingerprintError(prefix, matches)
    manifest = store.get_manifest(matches[0])
    if manifest is None:
        raise StoreError(f"manifest {matches[0][:12]}… exists but is unreadable")
    return manifest


def _outcome(find, *args):
    """What ``find(*args)`` returned or raised, comparably."""
    try:
        return find(*args).fingerprint
    except AmbiguousFingerprintError as exc:
        return ("ambiguous", tuple(exc.matches))
    except StoreError as exc:
        return (type(exc).__name__, str(exc))


def _glob_find_artifact(store, digest):
    """``ResultsStore.find_artifact`` as it listed with ``Path.glob`` (reference)."""
    if not is_content_digest(digest):
        return None
    for path in sorted((store.artifact_dir / digest[:2]).glob(f"{digest}.*")):
        ext = path.name.partition(".")[2]
        if ext and "." not in ext:
            return ArtifactRef(digest=digest, ext=ext, size=path.stat().st_size)
    return None


def _stdout(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        main(argv)
    return out.getvalue()


class TestListings:
    """The store's listings match names as ``Path.glob("*.json")`` did, but
    none lists a file named ``.json``: it has no stem, so no fingerprint's
    manifest is stored there (``manifest_path`` never names it)."""

    @pytest.fixture()
    def odd_store(self, recorded, tmp_path):
        """A copy of the recorded store with odd names beside the real ones."""
        source, _, _, _, manifest = recorded
        store = ResultsStore(tmp_path / "store")
        shutil.copytree(source.directory, store.directory)
        raw = store.manifest_path(manifest.fingerprint).read_bytes()
        for name in (".hidden.json", ".json", "..json", "copy.json", "Upper.JSON",
                     "x.json.tmp", "notes.txt"):
            (store.manifest_dir / name).write_bytes(raw)
        (store.manifest_dir / "dir.json").mkdir()
        ref = manifest.artifacts["report_md"]
        bucket = store.artifact_dir / ref.digest[:2]
        for suffix in (".tar.gz", ".", "-x.md"):
            (bucket / f"{ref.digest}{suffix}").write_bytes(b"odd")
        other = "f" * 63 + "0"
        (store.artifact_dir / "ff").mkdir(exist_ok=True)
        # The first valid name in sorted order wins: ".bb", after "." and
        # ".a.b", which are skipped.
        for suffix in (".zz", ".", ".mm", ".a.b", ".bb", ".yy"):
            (store.artifact_dir / "ff" / f"{other}{suffix}").write_bytes(b"sized")
        return store, manifest, ref, other

    def test_manifest_names_are_the_glob_listing_without_dot_json(self, odd_store):
        store, manifest, _, _ = odd_store
        globbed = sorted(path.name for path in store.manifest_dir.glob("*.json"))
        assert ".json" in globbed
        names = store.manifest_names()
        assert names == [name for name in globbed if name != ".json"]
        assert sorted(names) == sorted(
            ["..json", ".hidden.json", "copy.json", "dir.json", f"{manifest.fingerprint}.json"]
        )

    def test_manifests_match_the_glob_listing(self, odd_store):
        store, manifest, _, _ = odd_store
        listed = store.manifests()
        assert [m.fingerprint for m in listed] == [
            m.fingerprint for m in _glob_manifests(store)
        ]
        # The real file and its copies under ".hidden.json", "..json" and
        # "copy.json"; the file named ".json" is not listed.
        assert len(listed) == 4

    def test_find_manifest_matches_the_glob_listing(self, odd_store):
        store, manifest, _, _ = odd_store
        outcomes = {}
        for prefix in ("", ".", ".h", ".j", "co", "Up", "dir", "notes",
                       manifest.fingerprint[:6], "zz"):
            outcomes[prefix] = _outcome(store.find_manifest, prefix)
            assert outcomes[prefix] == _outcome(_glob_find_manifest, store, prefix)
        assert outcomes["co"] == outcomes[manifest.fingerprint[:6]] == manifest.fingerprint
        assert outcomes["."] == ("ambiguous", (".", ".hidden"))
        assert outcomes[".j"][1].startswith("no manifest matches")
        assert outcomes["dir"][1].endswith("exists but is unreadable")
        assert outcomes["Up"][1].startswith("no manifest matches")

    def test_find_artifact_matches_the_glob_listing(self, odd_store):
        store, _, ref, other = odd_store
        for digest in (ref.digest, other, "0" * 64, "f" * 64, "not-a-digest"):
            assert store.find_artifact(digest) == _glob_find_artifact(store, digest)
        assert store.find_artifact(ref.digest) == ref
        assert store.find_artifact(other) == ArtifactRef(digest=other, ext="bb", size=5)

    def test_store_verify_and_index_skip_only_the_file_named_dot_json(self, odd_store):
        store, manifest, _, _ = odd_store
        verify = ["store", "verify", "--store-dir", str(store.directory)]
        index = ["store", "index", "--store-dir", str(store.directory)]
        outputs = (_stdout(verify), _stdout(index))
        short = manifest.fingerprint[:12]
        lines = outputs[0].splitlines()
        assert lines[:3] == [
            f"[FAIL] manifest {name}: declares fingerprint {short}… (file name disagrees)"
            for name in ("..json", ".hidden.json", "copy.json")
        ]
        assert lines[3].startswith("[FAIL] manifest dir.json: unreadable (")
        # Artifacts are counted from the four readable manifests.
        artifacts = 4 * len(manifest.artifact_refs())
        assert lines[4:] == [f"verified 5 manifest(s), {artifacts} artifact(s), 4 problem(s)"]
        assert outputs[1] == (
            "store index: rebuilt from 5 manifest(s) — 2 point(s), 2 spec mapping(s)\n"
        )
        (store.manifest_dir / ".json").unlink()
        assert (_stdout(verify), _stdout(index)) == outputs

    def test_a_missing_store_lists_nothing(self, tmp_path):
        store = ResultsStore(tmp_path / "missing")
        assert store.manifest_names() == []
        assert store.manifests() == []
        with pytest.raises(StoreError):
            store.find_manifest("")
        assert store.find_artifact("0" * 64) is None


class TestNarrative:
    def test_narrative_quotes_claims_checks_and_measured_numbers(self, recorded):
        _, _, _, outcome, manifest = recorded
        text = narrative_md(manifest)
        assert "## Measured claim results — campaign `store_mini`" in text
        assert "- fcfs starves somebody" in text
        assert "**holds**" in text or "**FAILS**" in text
        bandwidth = outcome.results("policies")["policy=fcfs"].dram_bandwidth_gb_per_s()
        assert f"{bandwidth:.4g}" in text
        assert "spec `sha256:" in text
        # Deterministic: no wall-clock timestamp leaks into the narrative.
        assert manifest.provenance.created_at not in text

    def test_narrative_is_stored_as_an_artifact(self, recorded):
        store, _, _, _, manifest = recorded
        assert store.read_artifact(manifest.artifacts["narrative_md"]) == narrative_md(
            manifest
        )

    def test_replace_section_appends_then_replaces(self):
        body_v1 = "numbers v1"
        text = replace_section("# My prose\n", "ext", body_v1)
        assert text.startswith("# My prose\n")
        assert "BEGIN GENERATED NARRATIVE: ext" in text
        assert "numbers v1" in text
        text2 = replace_section(text, "ext", "numbers v2")
        assert "numbers v2" in text2
        assert "numbers v1" not in text2
        assert text2.count("BEGIN GENERATED NARRATIVE: ext") == 1
        assert text2.startswith("# My prose\n")

    def test_replace_section_is_idempotent_for_same_body(self):
        text = replace_section("", "ext", "stable")
        assert replace_section(text, "ext", "stable") == text

    def test_replace_section_with_stray_marker_errors(self):
        stray = "<!-- BEGIN GENERATED NARRATIVE: ext -->\norphan\n"
        with pytest.raises(StoreError, match="missing its marker"):
            replace_section(stray, "ext", "body")

    def test_sections_for_different_campaigns_coexist(self):
        text = replace_section("", "alpha", "A")
        text = replace_section(text, "beta", "B")
        text = replace_section(text, "alpha", "A2")
        assert "A2" in text and "B" in text and "\nA\n" not in text
