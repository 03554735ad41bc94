"""Energy extension — memory-system energy per scheduling policy.

Section 3.3 argues that row-buffer hits save power as well as time.  This
benchmark attaches the event-energy model to the Fig. 8 policy comparison and
reports activation energy, total energy and energy-per-byte per policy.  The
expected shape: the row-buffer-aware policies (QoS-RB, FR-FCFS) spend less
activation/precharge energy per byte served than round-robin and plain
Policy 1.
"""

from __future__ import annotations

import pytest

from repro.power import estimate_system_energy
from repro.sim.clock import MS
from repro.system.builder import build_system

DURATION_PS = 6 * MS
POLICIES = ["round_robin", "priority_qos", "priority_rowbuffer", "fr_fcfs"]
_REPORTS = {}


def _run(policy: str):
    if policy not in _REPORTS:
        system = build_system(scenario="case_a", policy=policy)
        system.run(duration_ps=DURATION_PS)
        _REPORTS[policy] = (estimate_system_energy(system), system.dram.row_hit_rate)
    return _REPORTS[policy]


@pytest.mark.parametrize("policy", POLICIES)
def test_energy_run(policy):
    report, _hit_rate = _run(policy)
    assert report.total_j > 0


def test_energy_shape():
    reports = {policy: _run(policy) for policy in POLICIES}

    print("\nMemory-system energy per scheduling policy (case A)")
    print(
        f"{'policy':<22}{'row-hit':>9}{'activation (mJ)':>17}"
        f"{'total (mJ)':>12}{'pJ/byte':>9}"
    )
    for policy in POLICIES:
        report, hit_rate = reports[policy]
        print(
            f"{policy:<22}{hit_rate * 100:>8.1f}%{report.dram.activation_j * 1e3:>17.3f}"
            f"{report.total_j * 1e3:>12.2f}{report.energy_per_byte_pj:>9.2f}"
        )

    def activation_per_byte(policy: str) -> float:
        report, _ = reports[policy]
        return report.dram.activation_j / max(1, report.served_bytes)

    # Row-buffer optimisation saves activation energy per byte served.
    assert activation_per_byte("priority_rowbuffer") <= activation_per_byte("priority_qos")
    assert activation_per_byte("fr_fcfs") <= activation_per_byte("round_robin")
    # And that shows up as lower total energy per byte for QoS-RB vs Policy 1.
    assert (
        reports["priority_rowbuffer"][0].energy_per_byte_pj
        <= reports["priority_qos"][0].energy_per_byte_pj * 1.05
    )
