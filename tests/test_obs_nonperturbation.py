"""Tracing is provably non-perturbing: ``--trace`` changes telemetry only.

On the worker pool the same campaign is recorded twice — tracing off,
tracing on — and everything a scientist could cite must match
byte-for-byte: the fingerprint, every rendered artifact, the manifest minus
its free-form ``stats`` and recording timestamp, and the result-cache
keys.  The crash-resume scenario then repeats the fault-tolerance contract
*under tracing*: a driver SIGKILLed mid-run and resumed with ``--trace``
still converges to the uninterrupted, untraced bytes.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import TRACE_ENV_VAR
from repro.runner import ResultCache
from repro.store import ArtifactRef, ResultsStore

SRC = str(Path(__file__).resolve().parent.parent / "src")

RUN = [
    "campaign", "run", "paper_figures", "--subgrid", "fig9",
    "--duration-ms", "0.25", "--traffic-scale", "0.1", "--jobs", "2",
]

#: Span-name prefixes a traced pool run must cover end to end.
VERTICAL = ("campaign.", "executor.", "worker.", "experiment.")


def _invoke(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _run(root: Path, name: str, executor: str, trace: bool):
    store, cache = root / f"store-{name}", root / f"cache-{name}"
    argv = [
        *RUN, "--executor", executor,
        "--store-dir", str(store), "--cache-dir", str(cache),
    ]
    if trace:
        argv.append("--trace")
    code, _ = _invoke(argv)
    assert code == 0
    return store, cache


def _sole_manifest(store_dir: Path):
    store = ResultsStore(str(store_dir))
    manifests = list(store.manifests())
    assert len(manifests) == 1
    return store, manifests[0]


def _normalized(manifest) -> dict:
    data = manifest.to_dict()
    data["stats"] = None
    data["provenance"] = dict(data["provenance"], created_at=None)
    return data


@pytest.fixture(scope="module", params=["pool"])
def pair(request, tmp_path_factory):
    """(executor, untraced run dirs, traced run dirs) for one executor."""
    root = tmp_path_factory.mktemp(f"nonperturb-{request.param}")
    untraced = _run(root, "off", request.param, trace=False)
    traced = _run(root, "on", request.param, trace=True)
    return request.param, untraced, traced


class TestTracedRunsMatchUntraced:
    def test_fingerprints_identical(self, pair):
        _, (off_store, _), (on_store, _) = pair
        assert _sole_manifest(on_store)[1].fingerprint == \
            _sole_manifest(off_store)[1].fingerprint

    def test_every_artifact_byte_identical(self, pair):
        _, (off_store, _), (on_store, _) = pair
        off_side, off = _sole_manifest(off_store)
        on_side, on = _sole_manifest(on_store)
        assert set(on.artifacts) == set(off.artifacts)
        for name, ref in off.artifacts.items():
            assert on_side.read_artifact_bytes(
                on.artifacts[name]
            ) == off_side.read_artifact_bytes(ref), name

    def test_manifest_identical_modulo_stats(self, pair):
        _, (off_store, _), (on_store, _) = pair
        assert _normalized(_sole_manifest(on_store)[1]) == \
            _normalized(_sole_manifest(off_store)[1])

    def test_cache_keys_identical(self, pair):
        _, (_, off_cache), (_, on_cache) = pair
        assert sorted(ResultCache(on_cache).keys()) == \
            sorted(ResultCache(off_cache).keys())

    def test_untraced_manifest_carries_no_trace_payload(self, pair):
        _, (off_store, _), _ = pair
        assert "trace" not in (_sole_manifest(off_store)[1].stats or {})

    def test_trace_env_does_not_leak_out_of_the_run(self, pair):
        assert TRACE_ENV_VAR not in os.environ


class TestTracedArtifacts:
    def test_trace_covers_the_whole_vertical(self, pair):
        executor, _, (on_store, _) = pair
        store, manifest = _sole_manifest(on_store)
        trace_info = manifest.stats["trace"]
        doc = json.loads(
            store.read_artifact(
                ArtifactRef.from_dict(trace_info["trace_json"], "trace_json")
            )
        )
        names = {
            e["name"] for e in doc["traceEvents"] if e["ph"] in ("X", "i")
        }
        for prefix in VERTICAL:
            assert any(n.startswith(prefix) for n in names), (executor, prefix)
        # More than one journal merged: the driver plus at least one worker.
        assert len(trace_info["processes"]) >= 2
        assert trace_info["spans"] > 0

    def test_trace_command_renders_the_summary(self, pair):
        _, _, (on_store, _) = pair
        _, manifest = _sole_manifest(on_store)
        code, output = _invoke(
            ["trace", manifest.fingerprint[:12], "--store-dir", str(on_store)]
        )
        assert code == 0
        assert "spans by name" in output
        assert "fig9" in output
        assert "(cpu, summed)" in output and "(wall, critical path)" in output

    def test_gc_keeps_trace_artifacts_and_verify_checks_them(self, pair):
        # Trace blobs are referenced only from the manifest's free-form
        # stats, which must still count as live references: gc must not
        # reclaim them, and verify must content-check them.
        _, _, (on_store, _) = pair
        store, manifest = _sole_manifest(on_store)
        orphans, kept = store.unreferenced_blobs()
        assert orphans == []
        refs = manifest.artifact_refs()
        assert "stats/trace/events_jsonl" in refs
        assert "stats/trace/trace_json" in refs

    def test_trace_command_rejects_untraced_manifests(self, pair, capsys):
        _, (off_store, _), _ = pair
        _, manifest = _sole_manifest(off_store)
        code, _ = _invoke(
            ["trace", manifest.fingerprint[:12], "--store-dir", str(off_store)]
        )
        assert code == 2
        assert "no recorded trace" in capsys.readouterr().err


KILL_RUN = [
    "campaign", "run", "paper_figures", "--subgrid", "fig5",
    "--duration-ms", "0.5", "--traffic-scale", "0.1",
]
KILL_POINTS = 4


def _entries(cache_dir: Path) -> int:
    return ResultCache(cache_dir).entries() if cache_dir.is_dir() else 0


def _kill_traced_at_half(store_dir: Path, cache_dir: Path) -> int:
    command = [
        sys.executable, "-m", "repro", *KILL_RUN, "--trace",
        "--store-dir", str(store_dir), "--cache-dir", str(cache_dir),
    ]
    process = subprocess.Popen(
        command, env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 180.0
    try:
        while time.monotonic() < deadline:
            if process.poll() is not None:
                pytest.fail("traced campaign finished before the kill landed")
            if _entries(cache_dir) >= KILL_POINTS // 2:
                process.kill()
                process.wait(timeout=30.0)
                break
            time.sleep(0.01)
        else:
            pytest.fail("traced campaign never reached 50% in 180s")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30.0)
    survivors = _entries(cache_dir)
    assert 1 <= survivors < KILL_POINTS
    return survivors


class TestSigkillResumeUnderTracing:
    def test_killed_traced_run_resumes_to_untraced_bytes(self, tmp_path):
        control_store = tmp_path / "store-control"
        code, _ = _invoke(
            [*KILL_RUN, "--store-dir", str(control_store),
             "--cache-dir", str(tmp_path / "cache-control")]
        )
        assert code == 0

        resumed_store = tmp_path / "store-resumed"
        resumed_cache = tmp_path / "cache-resumed"
        _kill_traced_at_half(resumed_store, resumed_cache)
        code, output = _invoke(
            [*KILL_RUN, "--trace", "--resume",
             "--store-dir", str(resumed_store),
             "--cache-dir", str(resumed_cache)]
        )
        assert code == 0
        assert "resuming:" in output

        control_side, control = _sole_manifest(control_store)
        resumed_side, resumed = _sole_manifest(resumed_store)
        assert resumed.fingerprint == control.fingerprint
        assert _normalized(resumed) == _normalized(control)
        for name, ref in control.artifacts.items():
            assert resumed_side.read_artifact_bytes(
                resumed.artifacts[name]
            ) == control_side.read_artifact_bytes(ref), name
        # The resumed run still recorded its own trace.
        assert "trace" in resumed.stats
        assert resumed.stats["trace"]["spans"] > 0
