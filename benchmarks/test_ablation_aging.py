"""Ablation A3 — the aging backstop (T cycles) of Policies 1 and 2.

The scheduler clears the backlog of transactions that waited at least T
cycles (the paper uses T = 10 000) so that low-priority traffic cannot starve
indefinitely.  This sweep shows the trade-off: a very small T promotes stale
bulk traffic so aggressively that it erodes the protection of urgent cores,
a very large T effectively disables the backstop and lets latency-sensitive
cores slip marginally below target, and the paper's setting keeps every core
at its target while still bounding the waiting time of low-priority traffic.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks.conftest import cached_sweep
from repro.runner import RunSpec
from repro.scenario import scenario_config
from repro.sim.clock import MS

DURATION_PS = 10 * MS
THRESHOLDS = [1_000, 10_000, 200_000]


def _config(threshold: int):
    config = scenario_config("case_a")
    return config.with_overrides(
        memory_controller=replace(
            config.memory_controller, aging_threshold_cycles=threshold
        )
    )


def _spec(threshold: int) -> RunSpec:
    """The one spec per threshold: the prefetch and every test share its key."""
    return RunSpec(
        scenario="case_a",
        policy="priority_qos",
        duration_ps=DURATION_PS,
        config=_config(threshold),
        label=str(threshold),
    )


@pytest.fixture(scope="module", autouse=True)
def _prefetch_grid():
    """Batch the whole grid through one sweep so cold runs can parallelise."""
    cached_sweep([_spec(threshold) for threshold in THRESHOLDS])


def _run(threshold: int):
    return cached_sweep([_spec(threshold)])[0]


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_aging_run(threshold):
    result = _run(threshold)
    assert result.served_transactions > 0


def test_aging_tradeoff():
    results = {threshold: _run(threshold) for threshold in THRESHOLDS}
    worst = {
        threshold: min(result.min_core_npi.values())
        for threshold, result in results.items()
    }

    print("\nAblation A3 — aging threshold sweep (Policy 1)")
    print("T (cycles)  worst core NPI  avg latency (ns)  failing cores")
    for threshold in THRESHOLDS:
        result = results[threshold]
        print(
            f"{threshold:10d}  {worst[threshold]:14.2f}  "
            f"{result.average_latency_ps / 1000:16.0f}  {result.failing_cores()}"
        )

    # The paper's setting protects every core.
    assert results[10_000].failing_cores() == []

    # The trade-off shape rather than exact NPI values (which move with the
    # deterministic seed): the paper's T must be at least as protective as
    # either extreme.
    assert worst[10_000] >= worst[1_000]
    assert worst[10_000] >= worst[200_000]

    # A tiny T floods the scheduler with promoted bulk traffic and visibly
    # erodes some core's protection.
    assert worst[1_000] < 1.0

    # Disabling the backstop (huge T) must not catastrophically starve
    # anyone — the priority policy, not the backstop, delivers the bulk of
    # the QoS — but marginal misses on latency-sensitive cores are expected
    # once stale transactions are never cleared.
    assert worst[200_000] >= 0.7
