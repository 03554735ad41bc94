"""Crash-resume parity: SIGKILL a campaign driver, ``--resume``, same bytes.

The contract under test is the whole point of the fault-tolerant executor
work: every landed point goes through the result cache *before* the
campaign completes, so a driver killed with SIGKILL mid-run loses only
in-flight work, and the cache is the one record a resume needs.  Re-running
with ``--resume`` must announce how many planned points are left, simulate
exactly those, and record a manifest whose rendered reports are
byte-identical to an uninterrupted run — the only fields allowed to differ
are the run telemetry (``stats``) and the recording timestamp, which is
precisely what :func:`repro.store.store._stats_payload` documents.

The driver is killed from outside (a real subprocess, a real ``SIGKILL``)
— no cooperative shutdown path is exercised.
"""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main
from repro.runner import ResultCache
from repro.store import ResultsStore

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Four points at this duration gives a ~1.5s window between "half the
# points landed" and "run complete" — orders of magnitude wider than the
# 10ms kill-poll interval.
RUN_ARGS = ["--duration-ms", "0.5", "--traffic-scale", "0.1"]
CAMPAIGN = ["campaign", "run", "paper_figures", "--subgrid", "fig5", *RUN_ARGS]
POINTS = 4

_BANNER = re.compile(r"^resuming: (?P<left>\d+) of (?P<total>\d+) planned point", re.M)
_SUMMARY = re.compile(
    r"^campaign \S+: .*?(?P<hits>\d+) cache hit\(s\), "
    r"(?:(?P<reused>\d+) reused, )?(?P<executed>\d+) executed"
)


def _invoke(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _telemetry(output: str):
    """(cache_hits, reused, executed) from the campaign summary line."""
    for line in output.splitlines():
        match = _SUMMARY.match(line)
        if match:
            return (
                int(match.group("hits")),
                int(match.group("reused") or 0),
                int(match.group("executed")),
            )
    raise AssertionError(f"no campaign summary line in output:\n{output}")


def _entries(cache_dir: Path) -> int:
    return ResultCache(cache_dir).entries() if cache_dir.is_dir() else 0


def _kill_at_half(argv, store_dir: Path, cache_dir: Path, points: int) -> int:
    """Run the campaign CLI in a subprocess, SIGKILL it at ~50% landed.

    Returns the number of cache entries that survived the kill.
    """
    command = [
        sys.executable, "-m", "repro",
        *argv, "--store-dir", str(store_dir), "--cache-dir", str(cache_dir),
    ]
    env = {**os.environ, "PYTHONPATH": SRC}
    process = subprocess.Popen(
        command, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 180.0
    try:
        while time.monotonic() < deadline:
            if process.poll() is not None:
                pytest.fail(
                    "campaign completed before the kill landed; the run "
                    "duration is too short to interrupt reliably"
                )
            if _entries(cache_dir) >= points // 2:
                process.kill()  # SIGKILL: no atexit, no finally blocks
                process.wait(timeout=30.0)
                break
            time.sleep(0.01)
        else:
            pytest.fail("campaign never reached 50% of its points in 180s")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30.0)
    survivors = _entries(cache_dir)
    assert 1 <= survivors < points, (
        f"kill landed outside the useful window: {survivors}/{points} "
        "points already cached"
    )
    return survivors


def _sole_manifest(store_dir: Path):
    store = ResultsStore(str(store_dir))
    manifests = list(store.manifests())
    assert len(manifests) == 1
    return store, manifests[0]


def _normalized(manifest) -> dict:
    """The manifest's plain form minus the two volatile telemetry fields."""
    data = manifest.to_dict()
    data["stats"] = None
    data["provenance"] = dict(data["provenance"], created_at=None)
    return data


def _parity(tmp_path_factory, executor_args):
    """Uninterrupted control run vs killed-then-resumed run, side by side.

    ``executor_args`` apply to the killed and the resumed run; the control
    run stays in-process, so a pool resume is also checked against it.
    """
    root = tmp_path_factory.mktemp("resume")
    control_store, control_cache = root / "store-a", root / "cache-a"
    code, _ = _invoke(
        [*CAMPAIGN, "--store-dir", str(control_store),
         "--cache-dir", str(control_cache)]
    )
    assert code == 0

    argv = [*CAMPAIGN, *executor_args]
    resumed_store, resumed_cache = root / "store-b", root / "cache-b"
    survivors = _kill_at_half(argv, resumed_store, resumed_cache, POINTS)
    code, resume_out = _invoke(
        [*argv, "--resume", "--store-dir", str(resumed_store),
         "--cache-dir", str(resumed_cache)]
    )
    assert code == 0
    return {
        "control_store": control_store,
        "resumed_store": resumed_store,
        "survivors": survivors,
        "resume_out": resume_out,
    }


@pytest.fixture(scope="module")
def parity(tmp_path_factory):
    return _parity(tmp_path_factory, ())


class TestKilledAtHalf:
    def test_resume_announces_recorded_progress(self, parity):
        # The banner counts what the surviving cache entries leave to do.
        banner = _BANNER.search(parity["resume_out"])
        assert banner is not None, parity["resume_out"]
        assert int(banner.group("total")) == POINTS
        assert int(banner.group("left")) == POINTS - parity["survivors"]

    def test_only_the_missing_points_are_simulated(self, parity):
        # The killed run never recorded a manifest, so the point index has
        # nothing to offer: resume works purely off the surviving cache.
        hits, reused, executed = _telemetry(parity["resume_out"])
        assert hits == parity["survivors"]
        assert reused == 0
        assert executed == POINTS - parity["survivors"]

    def test_fingerprint_matches_uninterrupted_run(self, parity):
        _, control = _sole_manifest(parity["control_store"])
        _, resumed = _sole_manifest(parity["resumed_store"])
        assert resumed.fingerprint == control.fingerprint

    def test_rendered_artifacts_are_byte_identical(self, parity):
        control_store, control = _sole_manifest(parity["control_store"])
        resumed_store, resumed = _sole_manifest(parity["resumed_store"])
        assert set(resumed.artifacts) == set(control.artifacts)
        for name, ref in control.artifacts.items():
            assert resumed_store.read_artifact_bytes(
                resumed.artifacts[name]
            ) == control_store.read_artifact_bytes(ref), name

    def test_manifest_identical_modulo_run_telemetry(self, parity):
        # stats and the recording timestamp are the *only* run-dependent
        # fields; everything else — points, rows, checks, artifact digests
        # — must match an uninterrupted run exactly.
        _, control = _sole_manifest(parity["control_store"])
        _, resumed = _sole_manifest(parity["resumed_store"])
        assert _normalized(resumed) == _normalized(control)

    def test_check_outcomes_identical(self, parity):
        _, control = _sole_manifest(parity["control_store"])
        _, resumed = _sole_manifest(parity["resumed_store"])
        flat = lambda m: [  # noqa: E731 - tiny local projection
            (e.name, c.kind, c.experiment, c.passed)
            for e in m.subgrids for c in e.checks
        ]
        assert flat(resumed) == flat(control)


class TestKilledAtHalfUnderPool(TestKilledAtHalf):
    """The same contract when the killed and the resumed run use the pool."""

    @pytest.fixture(scope="class")
    def parity(self, tmp_path_factory):
        return _parity(tmp_path_factory, ("--jobs", "2"))


class TestZeroWorkResume:
    def test_fully_recorded_run_resumes_without_simulating(self, tmp_path):
        argv = [
            "campaign", "run", "paper_figures", "--subgrid", "fig9",
            "--duration-ms", "0.25", "--traffic-scale", "0.1",
            "--store-dir", str(tmp_path / "store"),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        code, _ = _invoke(argv)
        assert code == 0
        code, output = _invoke([*argv, "--resume"])
        assert code == 0
        assert "nothing to resume" in output
        hits, reused, executed = _telemetry(output)
        # Zero simulations: the recorded manifest's point index serves every
        # point before the cache is even probed.
        assert executed == 0
        assert hits + reused == 2

    def test_resume_without_a_store_counts_from_the_cache(self, tmp_path):
        argv = [
            "campaign", "run", "paper_figures", "--subgrid", "fig9",
            "--duration-ms", "0.25", "--traffic-scale", "0.1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        code, _ = _invoke(argv)
        assert code == 0
        code, output = _invoke([*argv, "--resume"])
        assert code == 0
        banner = _BANNER.search(output)
        assert banner is not None, output
        assert (banner.group("left"), banner.group("total")) == ("0", "2")
        assert _telemetry(output) == (2, 0, 0)


@pytest.mark.chaos
class TestExtendedCampaignResume:
    """The full satellite scenario: the whole ``extended`` campaign."""

    ARGV = [
        "campaign", "run", "extended",
        "--duration-ms", "0.25", "--traffic-scale", "0.1",
    ]
    TOTAL = 24  # ar_glasses 4 + manycore_scaling 8 + stress_grid 12

    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
        control_store, control_cache = tmp_path / "store-a", tmp_path / "cache-a"
        code, _ = _invoke(
            [*self.ARGV, "--store-dir", str(control_store),
             "--cache-dir", str(control_cache)]
        )
        assert code == 0
        resumed_store, resumed_cache = tmp_path / "store-b", tmp_path / "cache-b"
        survivors = _kill_at_half(
            self.ARGV, resumed_store, resumed_cache, self.TOTAL
        )
        code, output = _invoke(
            [*self.ARGV, "--resume", "--store-dir", str(resumed_store),
             "--cache-dir", str(resumed_cache)]
        )
        assert code == 0
        hits, reused, executed = _telemetry(output)
        assert hits == survivors
        assert reused == 0
        assert executed == self.TOTAL - survivors
        control_side, control = _sole_manifest(control_store)
        resumed_side, resumed = _sole_manifest(resumed_store)
        assert _normalized(resumed) == _normalized(control)
        for name, ref in control.artifacts.items():
            assert resumed_side.read_artifact_bytes(
                resumed.artifacts[name]
            ) == control_side.read_artifact_bytes(ref), name
