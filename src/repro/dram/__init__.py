"""Transaction-level LPDDR4 DRAM model.

The model tracks per-bank row-buffer state, per-rank activation windows
(tRRD/tFAW), and a shared data bus per channel, using the Table-1 timing
parameters of the paper.  It substitutes for the cycle-accurate DRAMSim2
simulator the authors used: service latency per transaction is computed from
the row-hit / row-miss / row-closed case instead of being replayed command by
command, which preserves the bandwidth and latency effects the paper's
experiments measure (row-buffer locality, bank parallelism, finite bus
bandwidth) at a cost proportional to the number of transactions.

There is one way into a device: :meth:`AddressMapper.locate` maps an address
to ``(channel, bank_slot, row, column)`` once, and
:meth:`DramDevice.service` and :meth:`DramDevice.is_row_hit` take the first
three.  The command-level backend in :mod:`repro.dram.cmdsim` is a
:class:`DramDevice` subclass with the same call.
"""

from repro.dram.address import AddressMapper
from repro.dram.bank import Bank, RowBufferState
from repro.dram.channel import Channel
from repro.dram.device import DramDevice
from repro.dram.rank import Rank
from repro.dram.timing import DramTimingPs

__all__ = [
    "AddressMapper",
    "Bank",
    "Channel",
    "DramDevice",
    "DramTimingPs",
    "Rank",
    "RowBufferState",
]
