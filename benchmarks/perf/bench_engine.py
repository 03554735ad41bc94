"""Perf harness for the simulation kernel: emits BENCH_engine.json.

This is the repo's tracked *engine* benchmark — the single-point analogue of
``bench_runner.py`` (which measures sweep orchestration).  It runs one fixed
grid — 4 policies x 8 seeds on ``case_b``, 0.25 simulated ms each, the same
32 points the runner benchmark dispatches — entirely in-process.

Before anything is timed, one untimed *reference pass* runs the grid with
the columnar selectors disabled (``make_selector`` patched to return
``None`` in the memory controller and the NoC router), so every scheduling
decision goes through the policy's own ``select()``.  Every point's full
result dictionary (``experiment_result_to_dict``) from the timed passes must
equal the reference pass, and a mismatch aborts the benchmark — a time
measured for a simulator that computes something else is meaningless.

Timing is per-point CPU time (``time.process_time``) with the garbage
collector disabled inside the timed region and collected between points, and
the *minimum* over ``--repeats`` grid passes wins — the standard way to
suppress scheduler and allocator noise in a tracked benchmark.  The emitted
``BENCH_engine.json`` carries per-policy and aggregate times, so the
simulator's performance trajectory is a diffable, committed artifact.  The
aggregate keeps its historical name, ``batched_cpu_s``, so fresh payloads
compare against the committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_engine.py --output BENCH_engine.json
    PYTHONPATH=src python benchmarks/perf/bench_engine.py \
        --check benchmarks/perf/BENCH_engine.json --tolerance 0.20

``--check`` exits non-zero when the CPU time regressed more than
``--tolerance`` (fractional) against the given baseline file — the CI
``perf-engine`` job runs exactly that, and appends a before/after table to
``$GITHUB_STEP_SUMMARY`` when it is set.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Tuple
from unittest import mock

from repro.analysis.serialize import experiment_result_to_dict
from repro.runner import RunSpec
from repro.sim.clock import MS
from repro.system.experiment import run_experiment_timed

BENCH_SCHEMA_VERSION = 1

#: The fixed grid: identical to bench_runner.py's campaign (4 policies x
#: 8 seeds on case_b, 0.25 ms, light traffic) so the two artifacts describe
#: the same workload at two layers — the runner's wall clock around it, the
#: kernel's CPU time inside it.
SCENARIO = "case_b"
POLICIES = ("fcfs", "round_robin", "frame_rate_qos", "priority_qos")
SEEDS = tuple(range(1, 9))
DURATION_PS = MS // 4
TRAFFIC_SCALE = 0.2


def grid_specs() -> List[RunSpec]:
    """The 32-point grid in policy-major order."""
    return [
        RunSpec(
            scenario=SCENARIO,
            policy=policy,
            duration_ps=DURATION_PS,
            traffic_scale=TRAFFIC_SCALE,
            seed=seed,
            keep_trace=False,
            label=f"{policy}/seed{seed}",
        )
        for policy in POLICIES
        for seed in SEEDS
    ]


def _fingerprint(spec: RunSpec) -> dict:
    result, _ = run_experiment_timed(spec.resolved_scenario(), keep_trace=False)
    return experiment_result_to_dict(result, include_trace=True)


def reference_pass(specs: List[RunSpec]) -> List[dict]:
    """Untimed grid pass with every decision made by the policy's ``select()``."""
    patched: List[object] = []

    def no_selector(policy, *args, **kwargs):
        patched.append(policy)
        return None

    with mock.patch("repro.memctrl.controller.make_selector", no_selector), mock.patch(
        "repro.noc.router.make_selector", no_selector
    ):
        fingerprints = [_fingerprint(spec) for spec in specs]
    assert patched, "the selector-free reference was never built"
    return fingerprints


def _run_grid(
    specs: List[RunSpec], repeats: int
) -> Tuple[float, Dict[str, float], List[dict]]:
    """Time the grid; returns (cpu_s, per-policy cpu, fingerprints).

    Scenario resolution is memoized on the specs (shared across repeats and
    the reference pass) and system construction is timed out-of-band by
    ``run_experiment_timed``; the reported figure is the whole build+simulate
    execution's CPU time — what a sweep worker actually spends per point.
    The minimum over ``repeats`` grid passes wins, per policy independently,
    and fingerprints must agree across repeats (the runs are deterministic).
    """
    best_per_policy: Dict[str, float] = {policy: float("inf") for policy in POLICIES}
    fingerprints: List[dict] = []
    for repeat in range(repeats):
        per_policy: Dict[str, float] = {policy: 0.0 for policy in POLICIES}
        repeat_fp: List[dict] = []
        for spec in specs:
            resolved = spec.resolved_scenario()
            gc.collect()
            gc.disable()
            began = time.process_time()
            try:
                result, _ = run_experiment_timed(resolved, keep_trace=False)
                cpu_s = time.process_time() - began
            finally:
                gc.enable()
            per_policy[spec.policy] += cpu_s
            repeat_fp.append(experiment_result_to_dict(result, include_trace=True))
        if repeat == 0:
            fingerprints = repeat_fp
        else:
            assert repeat_fp == fingerprints, "repeats disagree"
        for policy, seconds in per_policy.items():
            if seconds < best_per_policy[policy]:
                best_per_policy[policy] = seconds
    return sum(best_per_policy.values()), best_per_policy, fingerprints


def run_benchmark(repeats: int = 3) -> Dict[str, object]:
    """Run the reference pass, time the grid, assert parity, build the payload."""
    specs = grid_specs()
    print(
        f"workload: {len(specs)}-point grid on '{SCENARIO}', "
        f"{DURATION_PS / MS:g} ms/run, in-process, best of {repeats} repeat(s), "
        f"CPU time (process_time, gc disabled in timed region)"
    )
    print("reference pass: selectors disabled, policies' own select() ...", flush=True)
    reference = reference_pass(specs)
    print("timed passes ...", flush=True)
    total_s, per_policy_s, fingerprints = _run_grid(specs, repeats)
    assert fingerprints == reference, (
        "selectors disagree with the policies' select() — timings are meaningless"
    )
    print(
        f"parity: selectors == policies' select() on all {len(specs)} points "
        f"(full result dicts)"
    )

    print(f"{'policy':<16} {'cpu':>8}")
    for policy in POLICIES:
        print(f"{policy:<16} {per_policy_s[policy]:>7.2f}s")
    print(f"{'aggregate':<16} {total_s:>7.2f}s")

    return {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "workload": {
            "scenario": SCENARIO,
            "policies": list(POLICIES),
            "seeds": list(SEEDS),
            "points": len(specs),
            "duration_ms": DURATION_PS / MS,
            "traffic_scale": TRAFFIC_SCALE,
            "repeats": repeats,
            "timer": "process_time",
        },
        "env": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": multiprocessing.cpu_count(),
        },
        "results": {
            "batched_cpu_s": round(total_s, 3),
            "parity": "result dicts equal a selector-free reference pass (asserted)",
            "per_policy": {
                policy: {"batched_s": round(per_policy_s[policy], 3)}
                for policy in POLICIES
            },
        },
    }


def _append_step_summary(payload: Dict[str, object], baseline: Dict[str, object]) -> None:
    """Append a before/after table to $GITHUB_STEP_SUMMARY when CI sets it."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    results = payload["results"]
    base_results = baseline.get("results", {})
    lines = [
        "## Engine kernel benchmark",
        "",
        "| policy | baseline | current |",
        "|---|---|---|",
    ]
    base_policies = base_results.get("per_policy", {})
    for policy, entry in results["per_policy"].items():  # type: ignore[index]
        base_s = base_policies.get(policy, {}).get("batched_s")
        base_text = f"{base_s:.2f}s" if isinstance(base_s, (int, float)) else "—"
        lines.append(f"| {policy} | {base_text} | {entry['batched_s']:.2f}s |")
    base_total = base_results.get("batched_cpu_s")
    base_total_text = (
        f"{base_total:.2f}s" if isinstance(base_total, (int, float)) else "—"
    )
    lines.append(
        f"| **aggregate** | {base_total_text} | {results['batched_cpu_s']:.2f}s |"  # type: ignore[index]
    )
    lines.append("")
    with open(summary_path, "a") as handle:
        handle.write("\n".join(lines) + "\n")


def check_against_baseline(
    payload: Dict[str, object], baseline_path: str, tolerance: float
) -> int:
    """Compare the fresh CPU time against a committed baseline.

    CPU time only compares like for like: when the baseline came from a
    different machine class (CPU count or platform differ from this run's),
    the gate still applies but a loud warning asks for the baseline to be
    regenerated on this class.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    baseline_env = baseline.get("env", {})
    current_env = payload["env"]  # type: ignore[index]
    for field in ("cpu_count", "platform"):
        if baseline_env.get(field) != current_env[field]:  # type: ignore[index]
            print(
                f"WARNING: baseline was recorded on a different machine class "
                f"({field}: {baseline_env.get(field)!r} vs {current_env[field]!r}); "  # type: ignore[index]
                f"the CPU-time gate is not calibrated for this machine — "
                f"regenerate {baseline_path} from this machine's output"
            )
            break
    baseline_batched = baseline["results"]["batched_cpu_s"]
    current_batched = payload["results"]["batched_cpu_s"]  # type: ignore[index]
    limit = baseline_batched * (1.0 + tolerance)
    print(
        f"baseline CPU time: {baseline_batched:.2f}s "
        f"(from {baseline_path}); current: {current_batched:.2f}s; "
        f"limit at +{tolerance * 100:.0f}%: {limit:.2f}s"
    )
    _append_step_summary(payload, baseline)
    if current_batched > limit:
        print("FAIL: CPU time regressed beyond tolerance")
        return 1
    print("OK: within tolerance")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=None, help="write the benchmark payload to this JSON file"
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE_JSON",
        help="compare against a committed BENCH_engine.json and fail on regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="fractional CPU-time regression allowed by --check (default 0.20)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed grid passes; the minimum CPU time is reported (default 3)",
    )
    args = parser.parse_args(argv)

    payload = run_benchmark(repeats=max(1, args.repeats))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    if args.check:
        return check_against_baseline(payload, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
