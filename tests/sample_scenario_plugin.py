"""A plugin module used by the plugin-hook tests.

Importing this module registers a custom scheduling policy, a custom
workload kind and a custom scenario — exactly what a downstream user's
``--plugin-module`` would do.  Sweep workers import it by name (it lives on
``sys.path`` via pytest's rootdir handling) unless they inherited it from the
driver they were forked from, which is what makes the registrations visible
in every worker.
"""

from __future__ import annotations

from typing import List

from repro.memctrl.policies import _POLICY_REGISTRY, register_policy
from repro.memctrl.scheduler import SchedulingContext, SchedulingPolicy
from repro.memctrl.transaction import Transaction
from repro.scenario import (
    WorkloadSpec,
    get_scenario,
    register_scenario,
    unregister_scenario,
)


class NewestFirstPolicy(SchedulingPolicy):
    """Always serve the newest transaction (plugin-test policy)."""

    name = "plugin_newest_first"

    def select(
        self, candidates: List[Transaction], context: SchedulingContext
    ) -> Transaction:
        self._check_candidates(candidates)
        return max(candidates, key=lambda t: t.sort_key)


def _register() -> None:
    if NewestFirstPolicy.name not in _POLICY_REGISTRY:
        register_policy(NewestFirstPolicy)
    unregister_scenario("plugin_case")
    register_scenario(
        get_scenario("case_b").with_overrides(
            name="plugin_case",
            description="case_b under the plugin's newest-first policy",
            policy=NewestFirstPolicy.name,
            workload=WorkloadSpec(kind="camcorder", params={"case": "B"}),
        )
    )


_register()


__all__ = ["NewestFirstPolicy"]
