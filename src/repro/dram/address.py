"""Physical-address decomposition into channel / rank / bank / row / column.

The mapping interleaves channels at a fixed block granularity (so that
streaming traffic exploits channel-level parallelism), then places the column
bits lowest within a channel, followed by bank, rank and row bits.  With this
layout a sequential DMA stream fills an entire row in one bank before moving
to the next bank of the same rank, which is the behaviour the row-buffer-hit
optimisation of the paper relies on.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.sim.config import DramConfig


class AddressMapper:
    """Maps byte addresses onto DRAM coordinates for a given organisation."""

    def __init__(
        self, config: DramConfig, channel_interleave_bytes: Optional[int] = None
    ) -> None:
        if channel_interleave_bytes is None:
            # Interleave at row granularity by default: a sequential stream
            # then keeps several consecutive transactions inside one row (for
            # row-buffer hits) while still spreading across channels.
            channel_interleave_bytes = config.row_size_bytes
        if channel_interleave_bytes <= 0 or (
            channel_interleave_bytes & (channel_interleave_bytes - 1)
        ):
            raise ValueError("channel_interleave_bytes must be a positive power of two")
        if channel_interleave_bytes > config.row_size_bytes:
            raise ValueError(
                "channel interleave granularity cannot exceed the row size"
            )
        self.config = config
        self.channel_interleave_bytes = channel_interleave_bytes
        self._banks_per_channel = config.ranks_per_channel * config.banks_per_rank
        self._rows_per_bank = max(
            1,
            config.capacity_bytes
            // (config.channels * self._banks_per_channel * config.row_size_bytes),
        )

    @property
    def rows_per_bank(self) -> int:
        return self._rows_per_bank

    def locate(self, address: int) -> Tuple[int, int, int, int]:
        """Map a byte address to ``(channel, bank_slot, row, column)`` integers.

        The only address mapping: both memory controllers call it once per
        transaction, at enqueue, and hand the channel, bank slot and row to
        :meth:`~repro.dram.device.DramDevice.service` as they are.
        ``bank_slot`` is the bank's flat index within its channel,
        ``rank * banks_per_rank + bank``.
        Addresses beyond the configured capacity wrap around, which keeps
        synthetic traffic generators simple without affecting contention
        behaviour.
        """
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        config = self.config
        interleave = self.channel_interleave_bytes
        channels = config.channels
        row_size = config.row_size_bytes
        banks = self._banks_per_channel
        block, offset = divmod(address % config.capacity_bytes, interleave)
        channel_block, channel = divmod(block, channels)
        row_block, column = divmod(channel_block * interleave + offset, row_size)
        row_group, bank_slot = divmod(row_block, banks)
        return channel, bank_slot, row_group % self._rows_per_bank, column
