"""Switch-allocation arbiters for NoC routers.

Routers reuse the memory-controller policy family so that the whole memory
system applies one consistent QoS discipline, exactly as the paper requires
("the QoS provided in the memory controller could be deteriorated by the
interconnect if it is not applying the same QoS policy").
"""

from __future__ import annotations

from typing import List, Union

from repro.memctrl.policies import make_policy
from repro.memctrl.scheduler import SchedulingContext, SchedulingPolicy
from repro.memctrl.transaction import Transaction


class NocArbiter:
    """Wraps a scheduling policy for use as a router switch allocator.

    Row-buffer state is meaningless inside the network, so the arbitration
    context always reports "no row hit"; policies that rely on row state
    (FR-FCFS, QoS-RB) therefore degrade gracefully to their FCFS / priority
    behaviour when used inside a router.
    """

    def __init__(self, policy: Union[str, SchedulingPolicy]) -> None:
        if isinstance(policy, SchedulingPolicy):
            self._policy = policy
        else:
            self._policy = make_policy(policy)

    @property
    def name(self) -> str:
        return self._policy.name

    @property
    def policy(self) -> SchedulingPolicy:
        """The wrapped policy instance (the router builds its selector
        around it so round-robin state stays shared)."""
        return self._policy

    def select(self, candidates: List[Transaction], now_ps: int) -> Transaction:
        """Choose the next transaction to cross the switch."""
        if not candidates:
            raise ValueError("arbiter asked to select from an empty candidate list")
        context = SchedulingContext(
            now_ps=now_ps, is_row_hit=lambda _transaction: False, aging=None
        )
        return self._policy.select(candidates, context)
