"""A command-level DRAM channel.

Where the transaction-level :class:`~repro.dram.channel.Channel` computes a
single service time per transaction, this channel expands each transaction
into its DRAM command sequence (optional PRECHARGE, optional ACTIVATE, then
READ or WRITE) and places every command at its earliest legal issue time with
respect to the per-bank FSM, the rank's tRRD/tFAW activation window, the
write-to-read turnaround (tWTR) and the shared data bus.  Periodic all-bank
refresh is injected per rank.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dram.bank import RowBufferState
from repro.dram.cmdsim.bank_fsm import BankFsm
from repro.dram.cmdsim.commands import CommandType
from repro.dram.cmdsim.refresh import RefreshParams, RefreshScheduler
from repro.dram.rank import Rank
from repro.dram.timing import DramTimingPs
from repro.sim.config import DramConfig


class CommandChannel:
    """One DRAM channel scheduled at command granularity.

    Banks are addressed by flat bank slot, as in
    :class:`~repro.dram.channel.Channel`: :attr:`bank_slots` holds each
    slot's :class:`BankFsm`, :attr:`rank_slots` the :class:`Rank` it
    belongs to and :attr:`open_rows` its open row (``-1`` for a precharged
    bank), which a refresh resets for its rank.
    """

    def __init__(
        self,
        index: int,
        config: DramConfig,
        timing: DramTimingPs,
        refresh: Optional[RefreshParams] = None,
    ) -> None:
        self.index = index
        self.config = config
        self.timing = timing
        self.bus_free_at_ps = 0
        self.last_write_data_end_ps = 0
        self.bank_slots: List[BankFsm] = []
        self.rank_slots: List[Rank] = []
        for rank_index in range(config.ranks_per_channel):
            rank = Rank(rank_index)
            for bank_index in range(config.banks_per_rank):
                self.bank_slots.append(BankFsm(rank=rank_index, index=bank_index))
                self.rank_slots.append(rank)
        #: Open row per bank slot (-1: precharged), as in ``Channel``.
        self.open_rows: List[int] = [-1] * len(self.bank_slots)
        self.refresh = RefreshScheduler(config.ranks_per_channel, refresh)
        self.command_counts: Dict[CommandType, int] = {kind: 0 for kind in CommandType}
        #: Burst time per transfer size at the current timing.
        self._burst_ps: Dict[int, int] = {}
        self.bytes_served = 0
        self.busy_time_ps = 0

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def set_timing(self, timing: DramTimingPs) -> None:
        """Switch the channel to a new resolved timing (DVFS)."""
        self.timing = timing
        self._burst_ps.clear()

    def _maybe_refresh(self, rank_index: int, now_ps: int) -> int:
        """Run an all-bank refresh if one is due; returns the blocking end time."""
        if not self.refresh.due(rank_index, now_ps):
            return now_ps
        banks_per_rank = self.config.banks_per_rank
        first_slot = rank_index * banks_per_rank
        rank_banks = self.bank_slots[first_slot : first_slot + banks_per_rank]
        # Every bank must be precharge-able before the refresh may start.
        start_ps = now_ps
        for fsm in rank_banks:
            start_ps = max(start_ps, fsm.earliest_precharge_ps(now_ps))
        end_ps = self.refresh.perform(rank_index, start_ps)
        for fsm in rank_banks:
            fsm.force_precharge_for_refresh(end_ps)
        self.open_rows[first_slot : first_slot + banks_per_rank] = [-1] * banks_per_rank
        self.command_counts[CommandType.REFRESH] += 1
        return end_ps

    # ------------------------------------------------------------------ #
    # Transaction service
    # ------------------------------------------------------------------ #
    def service(
        self,
        bank_slot: int,
        row: int,
        size_bytes: int,
        is_write: bool,
        now_ps: int,
    ) -> Tuple[int, int, RowBufferState]:
        """Expand one transaction into commands and return its data timing.

        Same call and result as :meth:`~repro.dram.channel.Channel.service`:
        ``(data_start_ps, completion_ps, state)``.  The burst time is
        computed, and the size checked, once per transfer size and timing.
        """
        burst_ps = self._burst_ps.get(size_bytes)
        if burst_ps is None:
            burst_ps = self.timing.burst_ps(size_bytes, self.config.bus_bytes_per_cycle)
            self._burst_ps[size_bytes] = burst_ps
        fsm = self.bank_slots[bank_slot]
        rank = self.rank_slots[bank_slot]
        earliest_ps = self._maybe_refresh(rank.index, now_ps)
        state = fsm.classify(row)

        if state is RowBufferState.MISS:
            pre_at = fsm.earliest_precharge_ps(earliest_ps)
            fsm.apply_precharge(pre_at, self.timing)
            self.command_counts[CommandType.PRECHARGE] += 1
            earliest_ps = pre_at

        if state is not RowBufferState.HIT:
            act_at = rank.earliest_activation_ps(
                fsm.earliest_activate_ps(earliest_ps), self.timing
            )
            fsm.apply_activate(row, act_at, self.timing)
            rank.record_activation(act_at)
            self.command_counts[CommandType.ACTIVATE] += 1
            earliest_ps = act_at

        column_at = fsm.earliest_column_ps(earliest_ps)
        if not is_write:
            # Write-to-read turnaround on the shared bus/rank.
            column_at = max(column_at, self.last_write_data_end_ps + self.timing.t_wtr_ps)

        data_ready_ps = column_at + self.timing.cl_ps
        data_start_ps = max(data_ready_ps, self.bus_free_at_ps)
        completion_ps = data_start_ps + burst_ps

        if is_write:
            fsm.apply_write(column_at, completion_ps, self.timing)
            self.last_write_data_end_ps = completion_ps
            kind = CommandType.WRITE
        else:
            fsm.apply_read(column_at, self.timing)
            kind = CommandType.READ
        self.command_counts[kind] += 1

        fsm.record_statistics(row, state, completion_ps)
        self.open_rows[bank_slot] = row
        self.bus_free_at_ps = completion_ps
        self.bytes_served += size_bytes
        self.busy_time_ps += burst_ps
        return data_start_ps, completion_ps, state
