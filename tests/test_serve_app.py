"""Results-service tests: routes, caching semantics, and the no-sim guarantee.

One short ``paper_figures`` sub-grid is recorded once at module scope (plus
a ``grid`` run, so the store holds two manifests); every test then drives a
live :class:`~repro.serve.client.BackgroundResultsServer` through the typed
client.  The acceptance test asserts the core promise end to end: a ``GET``
of a recorded report returns bytes identical to ``campaign report
--store-dir`` while every scenario-resolution path is booby-trapped.
Tests that change a store under a running server record their own store
from the shared result cache, so the module's store never changes.
"""

from __future__ import annotations

import io
import json
import os
import shutil
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout

import pytest

import repro.campaign.spec as campaign_spec
import repro.runner.sweep as sweep_mod
import repro.serve.app as app_module
from repro.cli import main
from repro.serve import BackgroundResultsServer, ResultsClient, ServiceError
from repro.store import Manifest, ResultsStore

RUN_ARGS = ["--duration-ms", "0.25", "--traffic-scale", "0.1"]
CAMPAIGN_ARGS = ["campaign", "report", "paper_figures", "--subgrid", "fig5", *RUN_ARGS]
GRID_ARGS = ["grid", "case_b", *RUN_ARGS]


def _invoke(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A store holding one recorded campaign run and one grid run."""
    root = tmp_path_factory.mktemp("serve")
    store_dir, cache_dir = str(root / "store"), str(root / "cache")
    code, live = _invoke(
        [*CAMPAIGN_ARGS, "--store-dir", store_dir, "--cache-dir", cache_dir]
    )
    assert code == 0
    code, _ = _invoke([*GRID_ARGS, "--store-dir", store_dir, "--cache-dir", cache_dir])
    assert code == 0
    campaign_fp = next(
        m.fingerprint
        for m in ResultsStore(store_dir).manifests()
        if m.provenance.kind == "campaign"
    )
    return store_dir, cache_dir, live, campaign_fp


@pytest.fixture(scope="module")
def campaign_only(recorded, tmp_path_factory):
    """A store holding only the campaign run (every point a cache hit)."""
    store_dir = str(tmp_path_factory.mktemp("campaign_only") / "store")
    code, _ = _invoke([*CAMPAIGN_ARGS, "--store-dir", store_dir, "--cache-dir", recorded[1]])
    assert code == 0
    return store_dir


def _record_grid(store_dir, recorded):
    """Record the module's grid run into ``store_dir`` the way another
    process would (its own ``ResultsStore``); returns its manifest."""
    before = {m.fingerprint for m in ResultsStore(store_dir).manifests()}
    code, _ = _invoke([*GRID_ARGS, "--store-dir", str(store_dir), "--cache-dir", recorded[1]])
    assert code == 0
    (manifest,) = [
        m for m in ResultsStore(store_dir).manifests() if m.fingerprint not in before
    ]
    return manifest


@pytest.fixture(scope="module")
def server(recorded):
    store_dir = recorded[0]
    with BackgroundResultsServer(store_dir) as running:
        yield running


@pytest.fixture()
def client(server):
    with ResultsClient(server.host, server.port) as connected:
        yield connected


@pytest.fixture()
def no_resolution(monkeypatch):
    """Booby-trap every path that could resolve a scenario or run a spec."""
    def banned(*_args, **_kwargs):  # pragma: no cover - failure path
        raise AssertionError("results service resolved a scenario / ran a sweep")

    monkeypatch.setattr(sweep_mod.RunSpec, "resolved_scenario", banned)
    monkeypatch.setattr(sweep_mod, "run_sweep", banned)
    monkeypatch.setattr(campaign_spec.SubGrid, "resolved_scenario", banned)


class TestAcceptance:
    def test_served_report_is_byte_identical_to_cli_with_zero_resolutions(
        self, recorded, client, no_resolution
    ):
        store_dir, cache_dir, _, fingerprint = recorded
        # The CLI's own warm path, re-invoked under the booby trap...
        code, warm = _invoke(
            [*CAMPAIGN_ARGS, "--store-dir", store_dir, "--cache-dir", cache_dir]
        )
        assert code == 0
        # ...and the HTTP path, same recorded bytes (stdout adds one newline).
        reply = client.report(fingerprint, "report_md")
        assert reply.status == 200
        assert reply.body.decode("utf-8") + "\n" == warm
        assert reply.content_type == "text/markdown; charset=utf-8"

    def test_every_route_serves_without_resolving(self, client, no_resolution):
        manifests = client.manifests()
        assert len(manifests) == 2
        for summary in manifests:
            full = client.manifest(summary["fingerprint"])
            for ref in summary["artifacts"].values():
                assert client.artifact(ref["digest"]).status == 200
            assert full["fingerprint"] == summary["fingerprint"]


class TestConditionalGet:
    def test_if_none_match_turns_repeat_gets_into_304(self, recorded, client):
        fingerprint = recorded[3]
        first = client.report(fingerprint, "report_md")
        assert first.status == 200 and first.etag
        again = client.report(fingerprint, "report_md", etag=first.etag)
        assert again.not_modified
        assert again.body == b""
        assert again.etag == first.etag  # 304 still names the entity

    def test_artifact_etag_is_its_own_digest(self, recorded, client):
        _, _, _, fingerprint = recorded
        summary = client.manifest(fingerprint)
        digest = summary["artifacts"]["report_md"]["digest"]
        reply = client.artifact(digest)
        assert reply.etag == digest
        assert reply.headers["cache-control"] == "public, max-age=31536000, immutable"
        assert client.artifact(digest, etag=digest).not_modified

    def test_manifest_json_supports_conditional_get_too(self, recorded, client):
        fingerprint = recorded[3]
        reply = client.get(f"/manifests/{fingerprint}")
        assert reply.status == 200
        assert client.get(f"/manifests/{fingerprint}", etag=reply.etag).not_modified

    def test_head_matches_get_minus_the_body(self, recorded, client):
        fingerprint = recorded[3]
        got = client.report(fingerprint, "report_md")
        head = client.head(f"/reports/{fingerprint}/report_md")
        assert head.status == 200
        assert head.body == b""
        assert head.headers["content-length"] == str(len(got.body))
        assert head.etag == got.etag


class TestLookup:
    def test_fingerprint_prefix_resolves_like_the_cli(self, recorded, client):
        fingerprint = recorded[3]
        assert client.manifest(fingerprint[:10])["fingerprint"] == fingerprint

    def test_unknown_fingerprint_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.manifest("feedbeef")
        assert excinfo.value.reply.status == 404

    def test_unknown_artifact_and_malformed_digest_are_404(self, client):
        assert client.get("/artifacts/" + "0" * 64).status == 404
        assert client.get("/artifacts/not-a-digest").status == 404

    def test_unknown_report_name_404_lists_recorded_artifacts(
        self, recorded, client
    ):
        fingerprint = recorded[3]
        reply = client.get(f"/reports/{fingerprint}/nope")
        assert reply.status == 404
        assert "report_md" in reply.json()["hint"]

    def test_subgrid_artifact_route(self, recorded, client):
        fingerprint = recorded[3]
        reply = client.report(fingerprint, "fig5/csv")
        assert reply.status == 200
        assert reply.content_type == "text/csv; charset=utf-8"
        assert client.get(f"/reports/{fingerprint}/nosuch/md").status == 404

    def test_ambiguous_prefix_is_300_with_the_matches(self, recorded, server):
        store_dir = recorded[0]
        fingerprint = recorded[3]
        store = ResultsStore(store_dir)
        twin = fingerprint[:-1] + ("0" if fingerprint[-1] != "0" else "1")
        twin_path = store.manifest_dir / f"{twin}.json"
        twin_path.write_text("{}")
        try:
            with ResultsClient(server.host, server.port) as fresh:
                reply = fresh.get(f"/manifests/{fingerprint[:12]}")
                assert reply.status == 300
                assert sorted(reply.json()["matches"]) == sorted(
                    [fingerprint, twin]
                )
        finally:
            twin_path.unlink()

    def test_method_not_allowed_is_405(self, client):
        reply = client.request("POST", "/manifests")
        assert reply.status == 405
        assert reply.headers["allow"] == "GET, HEAD"

    def test_no_route_is_404(self, client):
        assert client.get("/totally/unknown").status == 404


class TestPoints:
    def test_point_lookup_serves_the_indexed_entry(
        self, recorded, client, no_resolution
    ):
        store_dir, _, _, fingerprint = recorded
        manifest = ResultsStore(store_dir).get_manifest(fingerprint)
        record = manifest.subgrid("fig5").points[0]
        entry = client.point(record.cache_key)
        assert entry["cache_key"] == record.cache_key
        assert entry["fingerprint"] == fingerprint
        assert entry["subgrid"] == "fig5"
        assert entry["memo_key"] == record.memo_key
        assert entry["row"]  # the measured report row rides along
        assert entry["result"]["digest"] == record.result.digest

    def test_point_route_supports_conditional_get(self, recorded, client):
        store_dir, _, _, fingerprint = recorded
        manifest = ResultsStore(store_dir).get_manifest(fingerprint)
        cache_key = manifest.subgrid("fig5").points[0].cache_key
        first = client.get(f"/points/{cache_key}")
        assert first.status == 200 and first.etag is not None
        again = client.get(f"/points/{cache_key}", etag=first.etag)
        assert again.not_modified and again.body == b""

    def test_point_recorded_by_another_writer_is_found_in_a_loaded_shard(
        self, recorded, campaign_only, tmp_path
    ):
        store_dir = tmp_path / "store"
        shutil.copytree(campaign_only, store_dir)
        with BackgroundResultsServer(store_dir) as isolated:
            # Look up one key in every shard, so each one is loaded.
            for prefix in range(256):
                assert isolated.app.store.point_index.get(f"{prefix:02x}" + "0" * 62) is None
            grid = _record_grid(store_dir, recorded)
            with ResultsClient(isolated.host, isolated.port) as fresh:
                for point in grid.subgrids[0].points:
                    reply = fresh.get(f"/points/{point.cache_key}")
                    assert reply.status == 200
                    assert reply.json()["fingerprint"] == grid.fingerprint

    def test_unknown_point_is_404_with_a_rebuild_hint(self, client):
        reply = client.get("/points/" + "0" * 64)
        assert reply.status == 404
        assert "repro store index" in reply.json()["hint"]
        assert client.get("/points/not-a-key").status == 404


class TestStoreChangesUnderARunningServer:
    """Every request sees the store as it is on disk, whoever changed it."""

    @pytest.fixture()
    def live(self, campaign_only, tmp_path):
        """(store, its one fingerprint, client) on a private copy of the store."""
        store_dir = tmp_path / "store"
        shutil.copytree(campaign_only, store_dir)
        store = ResultsStore(store_dir)
        (fingerprint,) = [m.fingerprint for m in store.manifests()]
        with BackgroundResultsServer(store_dir) as isolated:
            with ResultsClient(isolated.host, isolated.port) as connected:
                # Warm every route that reads a manifest.
                assert connected.healthz()["manifests"] == 1
                assert connected.get("/manifests").status == 200
                assert connected.get(f"/manifests/{fingerprint}").status == 200
                assert connected.report(fingerprint, "report_md").status == 200
                yield store, fingerprint, connected

    def test_manifest_recorded_after_start_is_served(self, recorded, live):
        store, _, client = live
        grid = _record_grid(store.directory, recorded)
        assert client.healthz()["manifests"] == 2
        assert grid.fingerprint in [m["fingerprint"] for m in client.manifests()]
        reply = client.report(grid.fingerprint, "report_md")
        assert reply.status == 200
        assert reply.body == store.read_artifact_bytes(grid.artifacts["report_md"])

    def test_same_size_rewrite_with_mtime_put_back_serves_the_new_body(self, live):
        store, fingerprint, client = live
        first = client.get(f"/manifests/{fingerprint}")
        path = store.manifest_path(fingerprint)
        before = path.stat()
        old = first.json()["provenance"]["created_at"]
        new = "".join(str((int(ch) + 1) % 10) if ch.isdigit() else ch for ch in old)
        text = path.read_text()
        path.write_text(text.replace(f'"created_at": "{old}"', f'"created_at": "{new}"'))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        again = client.get(f"/manifests/{fingerprint}", etag=first.etag)
        assert again.status == 200
        assert again.json()["provenance"]["created_at"] == new
        assert again.etag != first.etag
        assert client.manifests()[0]["created_at"] == new

    def test_deleted_manifest_is_404_and_leaves_the_count(self, live):
        store, fingerprint, client = live
        store.manifest_path(fingerprint).unlink()
        assert client.healthz()["manifests"] == 0
        assert client.get("/manifests").json()["count"] == 0
        assert client.get(f"/manifests/{fingerprint}").status == 404
        assert client.get(f"/reports/{fingerprint}/report_md").status == 404

    def test_corrupted_manifest_leaves_the_count_and_is_404(self, live):
        store, fingerprint, client = live
        store.manifest_path(fingerprint).write_text('{"fingerprint": ')
        assert client.healthz()["manifests"] == 0
        assert client.get("/manifests").json()["count"] == 0
        reply = client.get(f"/manifests/{fingerprint}")
        assert reply.status == 404
        assert "unreadable" in reply.json()["error"]
        assert client.get(f"/reports/{fingerprint}/report_md").status == 404


def _serve_reads_cycle(store):
    """The ``serve_reads`` benchmark's request mix: (path, etag, status),
    11 requests per manifest."""
    cycle = []
    for manifest in sorted(store.manifests(), key=lambda m: m.fingerprint):
        fingerprint = manifest.fingerprint
        digest = manifest.artifacts["report_md"].digest
        report = f"/reports/{fingerprint}/report_md"
        cycle += [
            ("/healthz", None, 200),
            ("/healthz", None, 200),
            ("/manifests", None, 200),
            (f"/manifests/{fingerprint}", None, 200),
            (f"/artifacts/{digest}", None, 200),
            (report, None, 200),
            (report, digest, 304),
            ("/healthz", None, 200),
            ("/metrics", None, 200),
            (report, None, 200),
            (report, digest, 304),
        ]
    return cycle


class TestWarmReads:
    def test_a_warm_pass_parses_and_renders_no_manifest(self, recorded, monkeypatch):
        store_dir = recorded[0]
        cycle = _serve_reads_cycle(ResultsStore(store_dir))
        assert len(cycle) == 22
        calls = Counter()

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            Manifest, "from_dict", classmethod(counting("parse", Manifest.from_dict.__func__))
        )
        monkeypatch.setattr(Manifest, "to_dict", counting("manifest body", Manifest.to_dict))
        monkeypatch.setattr(
            app_module, "manifest_summary", counting("index body", app_module.manifest_summary)
        )
        with BackgroundResultsServer(store_dir) as isolated:
            with ResultsClient(isolated.host, isolated.port) as fresh:
                for warm in (True, False):
                    calls.clear()
                    for path, etag, status in cycle:
                        assert fresh.get(path, etag=etag).status == status
                    if warm:
                        assert calls["parse"] == 2 and calls["manifest body"] == 2
        assert calls == {}


class TestIntegrity:
    def test_tampered_blob_is_404_with_a_verify_hint_never_forged_bytes(
        self, recorded
    ):
        store_dir = recorded[0]
        store = ResultsStore(store_dir)
        manifest = next(
            m for m in store.manifests() if m.provenance.kind == "grid"
        )
        ref = manifest.subgrids[0].artifacts["csv"]
        path = store.artifact_path(ref)
        original = path.read_bytes()
        try:
            path.write_bytes(b"forged,rows\n")
            # A fresh server: a cold blob cache, so the read hits disk and
            # the content-hash verification catches the tampering.
            with BackgroundResultsServer(store_dir) as isolated:
                with ResultsClient(isolated.host, isolated.port) as fresh:
                    reply = fresh.get(f"/artifacts/{ref.digest}")
                    assert reply.status == 404
                    assert b"forged" not in reply.body
                    assert "store verify" in reply.json()["hint"]
        finally:
            path.write_bytes(original)


class TestHotCache:
    def test_lru_hit_accounting_across_repeat_reads(self, recorded):
        store_dir, _, _, fingerprint = recorded
        with BackgroundResultsServer(store_dir) as isolated:
            stats = isolated.app.blob_cache.stats()
            assert stats["hits"] == 0 and stats["misses"] == 0
            with ResultsClient(isolated.host, isolated.port) as fresh:
                fresh.report(fingerprint, "report_md")   # disk read, cached
                fresh.report(fingerprint, "report_md")   # hot
                fresh.report(fingerprint, "report_md")   # hot
            stats = isolated.app.blob_cache.stats()
            assert stats["misses"] == 1
            assert stats["hits"] == 2
            assert stats["entries"] == 1
            assert stats["bytes"] > 0

    def test_304s_never_touch_the_blob_cache(self, recorded):
        store_dir, _, _, fingerprint = recorded
        with BackgroundResultsServer(store_dir) as isolated:
            with ResultsClient(isolated.host, isolated.port) as fresh:
                etag = fresh.report(fingerprint, "report_md").etag
                for _ in range(3):
                    assert fresh.report(
                        fingerprint, "report_md", etag=etag
                    ).not_modified
            stats = isolated.app.blob_cache.stats()
            # Only the first, unconditional GET ever read the blob.
            assert stats["hits"] == 0 and stats["misses"] == 1

    def test_healthz_reports_store_and_cache_state(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["manifests"] == 2
        assert set(health["blob_cache"]) >= {"hits", "misses", "entries"}


class TestConcurrency:
    def test_concurrent_keep_alive_clients_all_get_correct_bytes(
        self, recorded, server
    ):
        fingerprint = recorded[3]
        store = ResultsStore(recorded[0])
        manifest = store.find_manifest(fingerprint)
        expected = store.read_artifact_bytes(manifest.artifacts["report_md"])

        def worker(_index: int) -> int:
            good = 0
            with ResultsClient(server.host, server.port) as mine:
                for _ in range(10):
                    reply = mine.report(fingerprint, "report_md")
                    assert reply.status == 200
                    assert reply.body == expected
                    good += 1
                    assert mine.healthz()["status"] == "ok"
            return good

        with ThreadPoolExecutor(max_workers=4) as pool:
            totals = list(pool.map(worker, range(4)))
        assert totals == [10, 10, 10, 10]


class TestStoreListJsonParity:
    def test_manifests_index_matches_store_list_json(self, recorded, client):
        store_dir = recorded[0]
        code, output = _invoke(
            ["store", "list", "--store-dir", store_dir, "--format", "json"]
        )
        assert code == 0
        assert json.loads(output)["manifests"] == client.manifests()


class TestReconnect:
    def test_client_survives_a_server_bounce_mid_session(self, recorded):
        # The keep-alive connection dies with the old server process; the
        # same client object must reconnect transparently on its next
        # request rather than surface a ConnectionError to the caller.
        store_dir, _, _, fingerprint = recorded
        first = BackgroundResultsServer(store_dir).start()
        port = first.port
        bounced = ResultsClient(first.host, port)
        try:
            before = bounced.report(fingerprint, "report_md")
            assert before.status == 200
            first.stop()
            # Same port, new server — a restart, not a new deployment.
            with BackgroundResultsServer(store_dir, port=port) as second:
                assert second.port == port
                after = bounced.report(fingerprint, "report_md")
                assert after.status == 200
                assert after.body == before.body
                assert bounced.healthz()["status"] == "ok"
        finally:
            bounced.close()
            first.stop()
