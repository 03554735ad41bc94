"""Memory-controller front-end: the controller and its scheduling policies.

:class:`MemoryController` implements the paper's "distributed system
response" stage at the DRAM boundary, and it is the one controller
:func:`~repro.system.builder.build_system` builds.  It counts pending
transactions per queue class (Table 1 lists five of them), keeps each DRAM
channel's candidates in a columnar store, and arbitrates among them with a
pluggable policy — FCFS, round-robin, FR-FCFS, the frame-rate-based QoS
baseline, Policy 1 (priority-based round-robin) and Policy 2 (QoS-RB,
priority-based round-robin with row-buffer-hit optimisation below the delta
threshold).
"""

from repro.memctrl.aging import AgingTracker
from repro.memctrl.controller import MemoryController
from repro.memctrl.policies import (
    FcfsPolicy,
    FrFcfsPolicy,
    FrameRateQosPolicy,
    PriorityQosPolicy,
    PriorityRowBufferPolicy,
    RoundRobinPolicy,
    make_policy,
)
from repro.memctrl.scheduler import SchedulingContext, SchedulingPolicy
from repro.memctrl.transaction import QueueClass, Transaction

__all__ = [
    "AgingTracker",
    "FcfsPolicy",
    "FrFcfsPolicy",
    "FrameRateQosPolicy",
    "MemoryController",
    "PriorityQosPolicy",
    "PriorityRowBufferPolicy",
    "QueueClass",
    "RoundRobinPolicy",
    "SchedulingContext",
    "SchedulingPolicy",
    "Transaction",
    "make_policy",
]
