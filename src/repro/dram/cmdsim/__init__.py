"""Command-level DRAM model (DRAMSim2-style backend).

The paper drives its evaluation with DRAMSim2, a cycle-accurate command-level
simulator.  The default backend of this reproduction
(:class:`repro.dram.device.DramDevice`) is transaction-level: it folds the
ACT/PRE/RD/WR command sequence of each transaction into a single service-time
computation.  This subpackage provides the command-level alternative: every
transaction is expanded into explicit DRAM commands whose issue times are
checked against the LPDDR4 timing constraints (tRP, tRCD, CL, tRTP, tWR,
tWTR, tRRD, tFAW), and periodic refresh (tREFI/tRFC) steals time exactly as
it does on real devices.

:class:`CommandLevelDram` is a :class:`~repro.dram.device.DramDevice`
subclass whose channels are :class:`CommandChannel` objects: the same
``service(channel, bank_slot, row, ...)`` call, counters and re-clocking, so
the memory controller and the system builder swap backends with the
``dram_model`` argument alone.  The cross-check benchmark verifies that both
backends agree on bandwidth ordering and row-hit behaviour.
"""

from repro.dram.cmdsim.commands import CommandType
from repro.dram.cmdsim.bank_fsm import BankFsm, TimingViolation
from repro.dram.cmdsim.refresh import RefreshParams, RefreshScheduler
from repro.dram.cmdsim.channel import CommandChannel
from repro.dram.cmdsim.device import CommandLevelDram

__all__ = [
    "BankFsm",
    "CommandChannel",
    "CommandLevelDram",
    "CommandType",
    "RefreshParams",
    "RefreshScheduler",
    "TimingViolation",
]
