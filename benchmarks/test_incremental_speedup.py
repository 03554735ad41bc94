"""Incremental reuse gate: a campaign half recorded in the store runs >= 1.8x faster.

A 16-point grid (4 policies x seeds 1-4 on ``case_b``, 0.6 simulated ms,
traffic 0.2) runs cold, against an empty store, and incremental, against a
store already holding the seeds 1-2 recording (made untimed), so only 8
points simulate.  Before comparing times the test requires 8 points reused
and 8 executed, and every manifest (minus run telemetry) and recorded
artifact identical to the cold run's.  The gate is cold / incremental
>= 1.8 on the best-of-2 ``perf_counter`` wall time per mode.

The measurement runs in a fresh interpreter (this file run as a script,
printing JSON): inside a full slow-tier pytest run the process already
holds every earlier module's imports and results, which shrinks the ratio.
It uses its own :class:`ResultCache` directories, never the slow tier's
shared cache, so a warm ``REPRO_CACHE_DIR`` cannot make the cold run time
nothing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import repro
from repro.campaign import Campaign, CampaignScheduler, SubGrid
from repro.runner import ResultCache
from repro.store import ResultsStore

SCENARIO = "case_b"
POLICIES = ["fcfs", "round_robin", "frame_rate_qos", "priority_qos"]
SEEDS_SHARED = [1, 2]
SEEDS_ALL = [1, 2, 3, 4]
DURATION_MS = 0.6
TRAFFIC_SCALE = 0.2
STAMP = "2026-01-01T00:00:00+00:00"
REPEATS = 2
MIN_SPEEDUP = 1.8


def _campaign(name: str, seeds: List[int]) -> Campaign:
    return Campaign(
        name=name,
        duration_ms=DURATION_MS,
        traffic_scale=TRAFFIC_SCALE,
        subgrids=(
            SubGrid(
                name="grid",
                scenario=SCENARIO,
                axes={"policy": POLICIES, "platform.sim.seed": seeds},
            ),
        ),
    )


def _normalized(manifest) -> Dict[str, Any]:
    """The manifest's plain form minus the two volatile telemetry fields."""
    data = manifest.to_dict()
    data["stats"] = None
    data["provenance"] = dict(data["provenance"], created_at=None)
    return data


def _run_full(root: Path, seed_store: bool) -> Dict[str, Any]:
    """One timed run of the full campaign; with ``seed_store`` the shared
    half is recorded first, untimed, so the run goes through the reuse path."""
    store = ResultsStore(root / "store")
    if seed_store:
        CampaignScheduler(_campaign("incr_seed", SEEDS_SHARED)).run(
            cache=ResultCache(root / "cache-seed"), store=store, recorded_at=STAMP
        )
    scheduler = CampaignScheduler(_campaign("incr_full", SEEDS_ALL))
    cache = ResultCache(root / "cache-full")
    began = time.perf_counter()
    outcome = scheduler.run(cache=cache, store=store, recorded_at=STAMP)
    wall_s = time.perf_counter() - began
    manifest = store.get_manifest(scheduler.fingerprint())
    return {
        "wall_s": wall_s,
        "executed": outcome.stats.executed,
        "reused": outcome.stats.reused_points,
        "manifest": _normalized(manifest),
        "artifacts": {
            name: store.read_artifact_bytes(ref)
            for name, ref in manifest.artifact_refs().items()
        },
    }


def measure(workdir: Path) -> Dict[str, Any]:
    """Both modes, best of :data:`REPEATS` each, plus the parity evidence."""
    cold: List[Dict[str, Any]] = []
    incremental: List[Dict[str, Any]] = []
    for repeat in range(REPEATS):
        cold.append(_run_full(workdir / f"cold-{repeat}", seed_store=False))
        incremental.append(_run_full(workdir / f"incr-{repeat}", seed_store=True))
    reference = cold[0]
    return {
        "cold_s": min(run["wall_s"] for run in cold),
        "incremental_s": min(run["wall_s"] for run in incremental),
        "reused": [run["reused"] for run in incremental],
        "executed": [run["executed"] for run in incremental],
        "manifests_identical": all(
            run["manifest"] == reference["manifest"] for run in cold + incremental
        ),
        "artifacts_identical": all(
            run["artifacts"] == reference["artifacts"] for run in cold + incremental
        ),
    }


def test_incremental_speedup_at_half_overlap(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    payload = json.loads(completed.stdout.splitlines()[-1])

    shared = len(POLICIES) * len(SEEDS_SHARED)
    total = len(POLICIES) * len(SEEDS_ALL)
    assert payload["reused"] == [shared] * REPEATS
    assert payload["executed"] == [total - shared] * REPEATS
    assert payload["manifests_identical"]
    assert payload["artifacts_identical"]

    speedup = payload["cold_s"] / payload["incremental_s"]
    print(
        f"\nIncremental reuse at {shared}/{total} overlap: cold "
        f"{payload['cold_s']:.2f}s, incremental {payload['incremental_s']:.2f}s, "
        f"speedup {speedup:.2f}x (floor {MIN_SPEEDUP}x, best of {REPEATS})"
    )
    assert speedup >= MIN_SPEEDUP


if __name__ == "__main__":
    print(json.dumps(measure(Path(sys.argv[1]))))
