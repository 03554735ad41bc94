"""Store CLI satellites: gc --dry-run, list --format json, ambiguity listing.

Complements ``tests/test_store.py`` (store internals) and
``tests/test_store_fastpath.py`` (serve-from-store CLI paths) with the
operational surface this PR added: non-destructive gc planning, a
machine-readable listing, and actionable ambiguous-prefix errors.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.cli import main
from repro.store import (
    AmbiguousFingerprintError,
    ResultsStore,
    content_type_for,
    is_content_digest,
)

RECORD_ARGS = ["--duration-ms", "0.25", "--traffic-scale", "0.1"]


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("cli") / "store")
    code, _, _ = _invoke(["grid", "case_b", *RECORD_ARGS, "--store-dir", directory])
    assert code == 0
    return directory


class TestGcDryRun:
    def test_dry_run_reports_orphans_without_deleting(self, tmp_path):
        directory = str(tmp_path / "store")
        code, _, _ = _invoke(
            ["grid", "case_b", *RECORD_ARGS, "--store-dir", directory]
        )
        assert code == 0
        store = ResultsStore(directory)
        orphan = store.artifact_dir / "ab" / (("ab" + "c" * 62) + ".txt")
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_text("orphaned")

        code, output, _ = _invoke(
            ["store", "gc", "--store-dir", directory, "--dry-run"]
        )
        assert code == 0
        assert "would remove" in output
        assert orphan.name in output
        assert "nothing deleted" in output
        assert orphan.exists()  # dry run left it on disk

        code, output, _ = _invoke(["store", "gc", "--store-dir", directory])
        assert code == 0
        assert not orphan.exists()  # the real gc removed it

    def test_dry_run_on_a_clean_store_says_so(self, store_dir):
        code, output, _ = _invoke(
            ["store", "gc", "--store-dir", store_dir, "--dry-run"]
        )
        assert code == 0
        assert "would remove 0" in output


class TestListJson:
    def test_json_listing_is_parseable_and_complete(self, store_dir):
        code, output, _ = _invoke(
            ["store", "list", "--store-dir", store_dir, "--format", "json"]
        )
        assert code == 0
        listing = json.loads(output)
        assert listing["store_dir"] == str(ResultsStore(store_dir).directory)
        assert listing["size_bytes"] > 0
        (summary,) = listing["manifests"]
        assert summary["kind"] == "grid"
        assert summary["name"] == "case_b"
        assert len(summary["fingerprint"]) == 64
        assert summary["points"] > 0
        assert summary["checks"]["total"] >= 0
        for ref in summary["artifacts"].values():
            assert is_content_digest(ref["digest"])

    def test_text_listing_is_still_the_default(self, store_dir):
        code, output, _ = _invoke(["store", "list", "--store-dir", store_dir])
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(output)
        assert "case_b" in output


class TestAmbiguousPrefix:
    def _make_twin(self, store):
        (manifest,) = store.manifests()
        fingerprint = manifest.fingerprint
        twin = fingerprint[:-1] + ("0" if fingerprint[-1] != "0" else "1")
        twin_path = store.manifest_dir / f"{twin}.json"
        twin_path.write_text("{}")
        return fingerprint, twin, twin_path

    def test_find_manifest_error_lists_every_match(self, store_dir):
        store = ResultsStore(store_dir)
        fingerprint, twin, twin_path = self._make_twin(store)
        try:
            with pytest.raises(AmbiguousFingerprintError) as excinfo:
                store.find_manifest(fingerprint[:12])
            assert sorted(excinfo.value.matches) == sorted([fingerprint, twin])
            assert fingerprint in str(excinfo.value)
            assert twin in str(excinfo.value)
        finally:
            twin_path.unlink()

    def test_store_show_surfaces_the_candidates_and_exits_2(self, store_dir):
        store = ResultsStore(store_dir)
        fingerprint, twin, twin_path = self._make_twin(store)
        try:
            code, _, err = _invoke(
                ["store", "show", fingerprint[:12], "--store-dir", store_dir]
            )
            assert code == 2
            assert fingerprint in err
            assert twin in err
            assert "disambiguate" in err
        finally:
            twin_path.unlink()

    def test_unique_prefix_still_resolves(self, store_dir):
        store = ResultsStore(store_dir)
        (manifest,) = store.manifests()
        found = store.find_manifest(manifest.fingerprint[:12])
        assert found.fingerprint == manifest.fingerprint


class TestArtifactHelpers:
    def test_content_type_for_known_and_unknown_extensions(self):
        assert content_type_for("md") == "text/markdown; charset=utf-8"
        assert content_type_for("csv") == "text/csv; charset=utf-8"
        assert content_type_for("json") == "application/json; charset=utf-8"
        assert content_type_for("weird") == "application/octet-stream"

    def test_is_content_digest(self):
        assert is_content_digest("a" * 64)
        assert not is_content_digest("a" * 63)
        assert not is_content_digest("g" * 64)  # not hex
        assert not is_content_digest("")
        # Exactly 64 lowercase hex digits, the form hexdigest() produces:
        # int(value, 16) would take every one of these.
        assert not is_content_digest("A" * 64)
        assert not is_content_digest("0x" + "a" * 62)
        assert not is_content_digest("+" + "a" * 63)
        assert not is_content_digest(" " + "a" * 63)
        assert not is_content_digest("a_" * 31 + "aa")
        assert not is_content_digest("a" * 64 + "\n")
        assert not is_content_digest(None)

    def test_find_artifact_roundtrip_and_none_for_unknown(self, store_dir):
        store = ResultsStore(store_dir)
        (manifest,) = store.manifests()
        ref = manifest.subgrids[0].artifacts["csv"]
        found = store.find_artifact(ref.digest)
        assert found is not None
        assert found.digest == ref.digest
        assert found.ext == ref.ext
        assert store.read_artifact_bytes(found) == store.read_artifact_bytes(ref)
        assert store.find_artifact("0" * 64) is None
        assert store.find_artifact("not-a-digest") is None
