"""The command-level DRAM device: a ``DramDevice`` with command-level channels."""

from __future__ import annotations

from typing import Dict, Optional

from repro.dram.cmdsim.channel import CommandChannel
from repro.dram.cmdsim.commands import CommandType
from repro.dram.cmdsim.refresh import RefreshParams
from repro.dram.device import DramDevice
from repro.sim.config import DramConfig


class CommandLevelDram(DramDevice):
    """A multi-channel LPDDR4 device simulated at command granularity.

    A :class:`~repro.dram.device.DramDevice` subclass whose channels are
    :class:`CommandChannel` objects.  The coordinate call, the counters, bus
    scaling, re-clocking and bandwidth accounting are the base class's, so
    the memory controller, the power model and the experiment runner work
    with either backend unchanged; this class adds only the command
    statistics.
    """

    def __init__(
        self,
        config: DramConfig,
        sim_scale: float = 1.0,
        refresh: Optional[RefreshParams] = None,
    ) -> None:
        self.refresh_params = refresh or RefreshParams()
        super().__init__(config, sim_scale)

    def _new_channel(self, index: int, config: DramConfig) -> CommandChannel:
        return CommandChannel(index, config, self.timing, refresh=self.refresh_params)

    def command_counts(self) -> Dict[CommandType, int]:
        """Total commands issued, aggregated over all channels."""
        totals: Dict[CommandType, int] = {kind: 0 for kind in CommandType}
        for channel in self.channels:
            for kind, count in channel.command_counts.items():
                totals[kind] += count
        return totals

    def refreshes_issued(self) -> int:
        return sum(channel.refresh.refreshes_issued for channel in self.channels)
