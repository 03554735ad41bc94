"""Plugging a user-defined scheduling policy into the SARA platform.

The policy registry is open: subclass
:class:`~repro.memctrl.scheduler.SchedulingPolicy`, give it a unique ``name``
and call :func:`~repro.memctrl.policies.register_policy`.  The new policy can
then be used everywhere a built-in one can — the memory controller, the NoC
arbiters, the experiment runner and the CLI.  Because this module registers
at import time it also works as a *plugin module*: parallel sweeps import it
in every worker, so the custom policy runs under ``--jobs N`` too:

    python -m repro compare case_a --plugin-module examples.custom_policy \
        --policies priority_qos strict_priority --jobs 4

The example policy below ("strict_priority") follows the paper's Policy 1 but
drops both the round-robin tiebreak and the aging backstop: ties are broken
purely by age and nothing ever gets promoted.  Comparing it against Policy 1
shows why the paper keeps the aging backstop — without it, low-priority cores
can starve behind a persistent high-priority stream.

Run with:  python examples/custom_policy.py
"""

from __future__ import annotations

from typing import List

from repro.campaign import format_points_table
from repro.memctrl.policies import register_policy
from repro.memctrl.scheduler import SchedulingContext, SchedulingPolicy
from repro.memctrl.transaction import Transaction
from repro.runner import compare_policies_specs, run_sweep
from repro.scenario import critical_cores_for
from repro.sim.clock import MS


class StrictPriorityPolicy(SchedulingPolicy):
    """Highest priority wins, oldest first within a level — no aging, no RR."""

    name = "strict_priority"

    def select(
        self, candidates: List[Transaction], context: SchedulingContext
    ) -> Transaction:
        self._check_candidates(candidates)
        top = max(transaction.priority for transaction in candidates)
        urgent = [t for t in candidates if t.priority == top]
        return self.oldest(urgent)


# Register at import time so the module doubles as a --plugin-module: sweep
# workers import it by name and see the policy before running their specs.
register_policy(StrictPriorityPolicy, replace=True)


def main() -> None:
    policies = ["priority_qos", "strict_priority"]
    specs = compare_policies_specs(
        policies,
        scenario="case_a",
        duration_ps=6 * MS,
        traffic_scale=0.6,
    )
    ordered, _ = run_sweep(specs)
    results = dict(zip(policies, ordered))

    critical = critical_cores_for("case_a")
    print("Custom policy versus the paper's Policy 1 (minimum NPI per critical core)\n")
    print(format_points_table(results, ("min_npi",), critical))
    print()
    for name, result in results.items():
        print(
            f"{name:<18} bandwidth {result.dram_bandwidth_gb_per_s():5.2f} GB/s   "
            f"failing cores: {result.failing_cores() or 'none'}"
        )
    print(
        "\nBecause SARA's adaptation only raises priorities when a core is "
        "genuinely behind target, even the strict variant usually behaves; the "
        "aging backstop in Policy 1 is what protects against pathological "
        "cases where a high-priority stream never relents."
    )


if __name__ == "__main__":
    main()
