"""A DRAM channel: banks, ranks, a shared data bus and service-time computation."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dram.bank import Bank, RowBufferState
from repro.dram.rank import Rank
from repro.dram.timing import DramTimingPs
from repro.sim.config import DramConfig


class Channel:
    """One DRAM channel with its own banks and data bus.

    The data bus is the shared bandwidth bottleneck: every transaction
    occupies it for the duration of its burst.  Bank preparation (precharge +
    activation) happens in parallel with other banks' bursts, which is how
    bank-level parallelism shows up in aggregate bandwidth.

    Banks are addressed by flat bank slot (``rank * banks_per_rank + bank``,
    the address map's own bank index): :attr:`bank_slots` holds each slot's
    :class:`Bank` and :attr:`rank_slots` the :class:`Rank` it belongs to.
    :attr:`open_rows` holds each slot's open row, ``-1`` for a precharged
    bank; the memory controller's row-aware selectors read it.
    """

    def __init__(self, index: int, config: DramConfig, timing: DramTimingPs) -> None:
        self.index = index
        self.config = config
        self.timing = timing
        self.bus_free_at_ps = 0
        self.bank_slots: List[Bank] = []
        self.rank_slots: List[Rank] = []
        for rank_index in range(config.ranks_per_channel):
            rank = Rank(rank_index)
            for bank_index in range(config.banks_per_rank):
                self.bank_slots.append(Bank(rank=rank_index, index=bank_index))
                self.rank_slots.append(rank)
        #: Open row per bank slot (-1: precharged), written on every access.
        #: A plain list, only ever mutated in place: the selectors hold it
        #: and read a handful of entries per decision.
        self.open_rows: List[int] = [-1] * len(self.bank_slots)
        #: Burst time per transfer size at the current timing.
        self._burst_ps: Dict[int, int] = {}
        self.bytes_served = 0
        self.busy_time_ps = 0

    def set_timing(self, timing: DramTimingPs) -> None:
        """Switch the channel to a new resolved timing (DVFS)."""
        self.timing = timing
        self._burst_ps.clear()

    def service(
        self,
        bank_slot: int,
        row: int,
        size_bytes: int,
        is_write: bool,
        now_ps: int,
    ) -> Tuple[int, int, RowBufferState]:
        """Serve one transaction on a bank slot and row; return its timing.

        The caller (the memory controller) is responsible for only issuing
        one transaction at a time per channel scheduling slot; the channel
        itself enforces bus and bank availability.  The burst time is
        computed, and the size checked, once per transfer size and timing.
        Returns ``(data_start_ps, completion_ps, state)``.
        """
        burst_ps = self._burst_ps.get(size_bytes)
        if burst_ps is None:
            burst_ps = self.timing.burst_ps(size_bytes, self.config.bus_bytes_per_cycle)
            self._burst_ps[size_bytes] = burst_ps
        bank = self.bank_slots[bank_slot]
        timing = self.timing
        state = bank.classify(row)

        bank_available_ps = bank.ready_at_ps
        if bank_available_ps < now_ps:
            bank_available_ps = now_ps
        if state is RowBufferState.HIT:
            data_ready_ps = bank_available_ps + timing.row_hit_ps
        else:
            # A precharge (row miss only) plus an activation is required; the
            # activation must respect the rank's tRRD/tFAW window.
            rank = self.rank_slots[bank_slot]
            precharge_ps = timing.t_rp_ps if state is RowBufferState.MISS else 0
            activation_ps = rank.earliest_activation_ps(
                bank_available_ps + precharge_ps, timing
            )
            rank.record_activation(activation_ps)
            data_ready_ps = activation_ps + timing.t_rcd_ps + timing.cl_ps

        data_start_ps = data_ready_ps
        if data_start_ps < self.bus_free_at_ps:
            data_start_ps = self.bus_free_at_ps
        completion_ps = data_start_ps + burst_ps

        bank_recovery_ps = timing.t_wr_ps if is_write else timing.t_rtp_ps
        bank.record_access(row, state, completion_ps + bank_recovery_ps)
        self.open_rows[bank_slot] = row
        self.bus_free_at_ps = completion_ps
        self.bytes_served += size_bytes
        self.busy_time_ps += burst_ps
        return data_start_ps, completion_ps, state
