"""DVFS extension — governors on top of SARA (energy versus QoS).

This is not a figure of the paper; it extends Fig. 7's static frequency sweep
into a runtime policy study.  The benchmark runs the case-A camcorder under
Policy 1 with three governors re-clocking the DRAM and reports mean
frequency, operating-point residency, memory-system energy and QoS outcome.

Expected shape: the performance governor spends the most energy with full QoS
margin; powersave spends the least background energy but erodes the margin;
the SARA-aware priority-pressure governor lands in between, only lowering the
frequency while every DMA's priority stays low.
"""

from __future__ import annotations

import pytest

from repro.dvfs import PerformanceGovernor, PowersaveGovernor, PriorityPressureGovernor
from repro.dvfs.experiment import DvfsResult, run_with_governor
from repro.sim.clock import MS, US

DURATION_PS = 8 * MS
INTERVAL_PS = 100 * US

_GOVERNORS = {
    "performance": PerformanceGovernor,
    "powersave": PowersaveGovernor,
    "priority_pressure": PriorityPressureGovernor,
}
_RESULTS = {}


def _run(name: str) -> DvfsResult:
    if name not in _RESULTS:
        _RESULTS[name] = run_with_governor(
            _GOVERNORS[name](),
            scenario="case_a",
            policy="priority_qos",
            duration_ps=DURATION_PS,
            traffic_scale=1.0,
            interval_ps=INTERVAL_PS,
            keep_trace=False,
        )
    return _RESULTS[name]


@pytest.mark.parametrize("governor", sorted(_GOVERNORS))
def test_dvfs_governor_run(governor):
    result = _run(governor)
    assert result.experiment.served_transactions > 0


def test_dvfs_governor_tradeoff():
    results = {name: _run(name) for name in _GOVERNORS}

    print("\nDVFS governors on case A (Policy 1)")
    print(f"{'governor':<20}{'mean MHz':>10}{'switches':>10}{'energy (mJ)':>13}  failing cores")
    for name, result in results.items():
        print(
            f"{name:<20}{result.mean_freq_mhz:>10.0f}{result.transitions:>10}"
            f"{result.total_energy_mj:>13.2f}  {result.failing_cores() or 'none'}"
        )

    performance = results["performance"]
    powersave = results["powersave"]
    pressure = results["priority_pressure"]

    # Frequency ordering: powersave <= priority_pressure <= performance.
    assert powersave.mean_freq_mhz <= pressure.mean_freq_mhz + 1.0
    assert pressure.mean_freq_mhz <= performance.mean_freq_mhz + 1.0
    # Energy follows frequency (background power dominates the difference).
    assert powersave.energy.dram.background_j <= performance.energy.dram.background_j * 1.01
    assert pressure.total_energy_mj <= performance.total_energy_mj * 1.02
    # The performance governor preserves the QoS result of plain Policy 1.
    assert performance.failing_cores() == []
