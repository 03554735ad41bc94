"""Quickstart: build the camcorder platform and run one SARA experiment.

Runs a shortened (8 ms) slice of the paper's test case A under the SARA
priority-based policy (Policy 1) and prints each critical core's minimum NPI
plus the delivered DRAM bandwidth.  With SARA enabled every core should keep
its minimum NPI at or above 1.0.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import run_experiment
from repro.campaign import format_points_table
from repro.scenario import critical_cores_for
from repro.sim.clock import MS


def main() -> None:
    result = run_experiment(
        scenario="case_a",        # all cores active, LPDDR4 @ 1866 MHz (Table 1)
        policy="priority_qos",    # the paper's Policy 1
        duration_ps=8 * MS,       # a slice of the 33 ms frame, for a quick demo
        traffic_scale=0.6,        # trim traffic so the demo runs in a few seconds
    )

    print("SARA quickstart — camcorder test case A, Policy 1 (priority QoS)\n")
    print(
        format_points_table(
            {result.policy: result},
            ("min_npi", "bandwidth"),
            critical_cores_for("case_a"),
        )
    )
    print()
    failing = result.failing_cores()
    if failing:
        print(f"Cores below target: {', '.join(failing)}")
    else:
        print("All cores met their QoS targets (minimum NPI >= 1).")


if __name__ == "__main__":
    main()
