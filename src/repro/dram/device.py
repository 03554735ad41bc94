"""The DRAM device: channels, address mapping, bandwidth accounting and DVFS."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.dram.address import AddressMapper, DecodedAddress
from repro.dram.bank import RowBufferState
from repro.dram.channel import Channel
from repro.dram.timing import DramTimingPs
from repro.sim.config import DramConfig


@dataclass(frozen=True)
class ServiceResult:
    """Timing of a serviced transaction as seen by the memory controller."""

    data_start_ps: int
    completion_ps: int
    row_hit: bool
    channel: int


class DramDevice:
    """A multi-channel LPDDR4 device at transaction granularity."""

    def __init__(self, config: DramConfig, sim_scale: float = 1.0) -> None:
        if not 0 < sim_scale <= 1.0:
            raise ValueError("sim_scale must be in (0, 1]")
        self.config = config
        self.sim_scale = sim_scale
        self.mapper = AddressMapper(config)
        self.timing = DramTimingPs.from_config(config.timing, config.io_freq_mhz)
        self.channels: List[Channel] = [
            Channel(index, self._scaled_config(), self.timing)
            for index in range(config.channels)
        ]
        self.total_bytes = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.row_closed = 0

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

    def decode(self, address: int) -> DecodedAddress:
        return self.mapper.decode(address)

    def is_row_hit(self, address: int) -> bool:
        """Would a transaction to this address hit an open row right now?"""
        decoded = self.mapper.decode(address)
        return self.channels[decoded.channel].is_row_hit(decoded)

    def channel_of(self, address: int) -> int:
        return self.mapper.decode(address).channel

    def next_free_ps(self, channel: int) -> int:
        return self.channels[channel].next_free_ps()

    def service(
        self, address: int, size_bytes: int, is_write: bool, now_ps: int
    ) -> ServiceResult:
        """Serve one transaction and update bandwidth / row-buffer statistics."""
        decoded = self.mapper.decode(address)
        channel = self.channels[decoded.channel]
        result = channel.service(decoded, size_bytes, is_write, now_ps)
        self.total_bytes += size_bytes
        if is_write:
            self.write_bytes += size_bytes
        else:
            self.read_bytes += size_bytes
        if result.state is RowBufferState.HIT:
            self.row_hits += 1
        elif result.state is RowBufferState.MISS:
            self.row_misses += 1
        else:
            self.row_closed += 1
        return ServiceResult(
            data_start_ps=result.data_start_ps,
            completion_ps=result.completion_ps,
            row_hit=result.state is RowBufferState.HIT,
            channel=decoded.channel,
        )

    def service_prepared(
        self,
        channel_index: int,
        bank_slot: int,
        row: int,
        size_bytes: int,
        is_write: bool,
        now_ps: int,
    ) -> Tuple[int, bool]:
        """Fast path of :meth:`service` for the batched controller.

        The batched memory controller maps each address once at enqueue
        (:meth:`AddressMapper.locate`) and keeps the channel, bank slot
        (``rank * banks_per_rank + bank``) and row in its columnar store, so
        per issue it skips the mapper, the :class:`DecodedAddress` and the
        :class:`ServiceResult` allocation.  Statistics update exactly as in
        :meth:`service`; returns ``(completion_ps, row_hit)``.
        """
        _, completion_ps, state = self.channels[channel_index].service_prepared(
            bank_slot, row, size_bytes, is_write, now_ps
        )
        self.total_bytes += size_bytes
        if is_write:
            self.write_bytes += size_bytes
        else:
            self.read_bytes += size_bytes
        if state is RowBufferState.HIT:
            self.row_hits += 1
            return completion_ps, True
        if state is RowBufferState.MISS:
            self.row_misses += 1
        else:
            self.row_closed += 1
        return completion_ps, False

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
