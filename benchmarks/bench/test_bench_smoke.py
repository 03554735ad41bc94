"""Smoke test of the pipeline benchmark (``run.py --smoke``).

Every test under ``benchmarks/`` is marked ``slow`` by ``benchmarks/conftest.py``,
so this runs only with ``pytest -m slow``.  It checks the benchmark's
contract, not the program's speed: every workload prints exactly the
metrics BENCHMARK.json declares, each with its unit, all output checks
pass, and the traced run writes trace JSON that loads and layer names
that match the declared ones.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
METRIC_LINE = re.compile(r"^(\S+) (\S+) (\S+) (\S+) \((\S+) (\S+) (\d+)\)$")


def _run(*args: str) -> str:
    process = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, process.stderr + process.stdout[-3000:]
    return process.stdout


def _printed(stdout: str) -> dict:
    """workload -> {metric: unit} from the ``<workload> <metric> ...`` lines."""
    printed: dict = {}
    for line in stdout.splitlines():
        match = METRIC_LINE.match(line)
        if match:
            workload, metric, _, unit = match.groups()[:4]
            printed.setdefault(workload, {})[metric] = unit
    return printed


def _check_result_line(stdout: str, declared: dict) -> None:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {f"{workload}.{metric}" for workload in WORKLOADS for metric in declared}
    assert set(result["metrics"]) == expected
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name.split(".", 1)[1]]


def test_timed_run_prints_every_declared_metric(tmp_path):
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    stdout = _run("--json", str(tmp_path / "bench.json"))
    assert _printed(stdout) == {workload: declared for workload in WORKLOADS}
    _check_result_line(stdout, declared)
    payload = json.loads((tmp_path / "bench.json").read_text())
    for workload in WORKLOADS:
        record = payload["workloads"][workload]
        assert record["checks"] and all(record["checks"].values())
        assert re.fullmatch(r"[0-9a-f]{64}", record["results_digest"])


def test_traced_run_writes_traces_and_declared_layers(tmp_path):
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    trace_dir = tmp_path / "trace"
    stdout = _run("--trace", "1", "--trace-dir", str(trace_dir))
    assert _printed(stdout) == {workload: declared for workload in WORKLOADS}
    _check_result_line(stdout, declared)
    layers = json.loads((trace_dir / "layers.json").read_text())
    assert set(layers) == set(WORKLOADS)
    for workload in WORKLOADS:
        assert set(layers[workload]) == set(declared)
        trace = json.loads((trace_dir / f"{workload}.trace.json").read_text())
        assert any(event["ph"] == "X" for event in trace["traceEvents"])
