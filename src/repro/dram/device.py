"""The DRAM device: channels, address mapping, bandwidth accounting and DVFS."""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

from repro.dram.address import AddressMapper
from repro.dram.bank import RowBufferState
from repro.dram.channel import Channel
from repro.dram.timing import DramTimingPs
from repro.sim.config import DramConfig


class DramDevice:
    """A multi-channel LPDDR4 device at transaction granularity.

    Transactions reach the device by coordinates, not addresses: the memory
    controller maps each address once (:meth:`AddressMapper.locate` on
    :attr:`mapper`) and passes the channel, bank slot and row to
    :meth:`service` and :meth:`is_row_hit`.  The command-level backend
    (:class:`~repro.dram.cmdsim.device.CommandLevelDram`) is a subclass that
    builds command-level channels through :meth:`_new_channel`; everything
    else here serves both backends.
    """

    def __init__(self, config: DramConfig, sim_scale: float = 1.0) -> None:
        if not 0 < sim_scale <= 1.0:
            raise ValueError("sim_scale must be in (0, 1]")
        self.config = config
        self.sim_scale = sim_scale
        self.mapper = AddressMapper(config)
        self.timing = DramTimingPs.from_config(config.timing, config.io_freq_mhz)
        scaled = self._scaled_config()
        self.channels: List[Channel] = [
            self._new_channel(index, scaled) for index in range(config.channels)
        ]
        self.total_bytes = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.row_closed = 0

    def _new_channel(self, index: int, config: DramConfig) -> Channel:
        """Build channel ``index`` with the bus-scaled ``config``."""
        return Channel(index, config, self.timing)

    def _scaled_config(self) -> DramConfig:
        """Config whose bus width is scaled down by ``sim_scale``.

        Scaling the bus (rather than the traffic) keeps a single knob that
        shrinks both sides of the contention equation identically, so
        experiments preserve their qualitative shape while running faster.
        The scale is applied as a wider burst time per byte.
        """
        if self.sim_scale == 1.0:
            return self.config
        scaled_bus = max(1, int(round(self.config.bus_bytes_per_cycle * self.sim_scale)))
        return replace(self.config, bus_bytes_per_cycle=scaled_bus)

    def set_frequency(self, io_freq_mhz: float) -> None:
        """Re-clock the device (DVFS), keeping bank state intact."""
        if io_freq_mhz <= 0:
            raise ValueError("DRAM frequency must be positive")
        self.config = self.config.with_frequency(io_freq_mhz)
        self.timing = DramTimingPs.from_config(self.config.timing, io_freq_mhz)
        for channel in self.channels:
            channel.set_timing(self.timing)

    def is_row_hit(self, channel: int, bank_slot: int, row: int) -> bool:
        """Would a transaction to this row hit its bank's open row right now?"""
        return self.channels[channel].bank_slots[bank_slot].open_row == row

    def service(
        self,
        channel: int,
        bank_slot: int,
        row: int,
        size_bytes: int,
        is_write: bool,
        now_ps: int,
    ) -> Tuple[int, int, bool]:
        """Serve one transaction and update bandwidth / row-buffer statistics.

        ``channel``, ``bank_slot`` (``rank * banks_per_rank + bank``) and
        ``row`` are the first three coordinates :meth:`AddressMapper.locate`
        gives for the transaction's address.  Returns ``(data_start_ps,
        completion_ps, row_hit)``.
        """
        data_start_ps, completion_ps, state = self.channels[channel].service(
            bank_slot, row, size_bytes, is_write, now_ps
        )
        self.total_bytes += size_bytes
        if is_write:
            self.write_bytes += size_bytes
        else:
            self.read_bytes += size_bytes
        if state is RowBufferState.HIT:
            self.row_hits += 1
            return data_start_ps, completion_ps, True
        if state is RowBufferState.MISS:
            self.row_misses += 1
        else:
            self.row_closed += 1
        return data_start_ps, completion_ps, False

    @property
    def total_accesses(self) -> int:
        return self.row_hits + self.row_misses + self.row_closed

    @property
    def row_hit_rate(self) -> float:
        total = self.total_accesses
        return self.row_hits / total if total else 0.0

    def average_bandwidth_bytes_per_s(self, elapsed_ps: int) -> float:
        """Average delivered bandwidth over an elapsed simulated duration."""
        if elapsed_ps <= 0:
            raise ValueError("elapsed_ps must be positive")
        return self.total_bytes / (elapsed_ps / 1e12)

    def peak_bandwidth_bytes_per_s(self) -> float:
        return self.config.peak_bandwidth_bytes_per_s() * self.sim_scale
