"""Tests for the command-level bank FSM and refresh scheduler."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.bank import RowBufferState
from repro.dram.cmdsim import BankFsm, RefreshParams, RefreshScheduler, TimingViolation
from repro.dram.timing import DramTimingPs
from repro.sim.config import DramTimingConfig

TIMING = DramTimingPs.from_config(DramTimingConfig(), 1866.0)


class TestBankFsm:
    def test_starts_closed(self):
        fsm = BankFsm(rank=0, index=0)
        assert not fsm.is_open
        assert fsm.classify(5) is RowBufferState.CLOSED

    def test_activate_opens_row_and_sets_column_window(self):
        fsm = BankFsm(rank=0, index=0)
        fsm.apply_activate(7, at_ps=1000, timing=TIMING)
        assert fsm.is_open
        assert fsm.open_row == 7
        assert fsm.classify(7) is RowBufferState.HIT
        assert fsm.classify(8) is RowBufferState.MISS
        assert fsm.rw_ready_ps == 1000 + TIMING.t_rcd_ps

    def test_activate_while_open_is_illegal(self):
        fsm = BankFsm(rank=0, index=0)
        fsm.apply_activate(7, at_ps=0, timing=TIMING)
        with pytest.raises(TimingViolation):
            fsm.apply_activate(9, at_ps=10**9, timing=TIMING)

    def test_activate_before_trp_expires_is_illegal(self):
        fsm = BankFsm(rank=0, index=0)
        fsm.apply_activate(7, at_ps=0, timing=TIMING)
        read_at = fsm.earliest_column_ps(0)
        fsm.apply_read(read_at, TIMING)
        pre_at = fsm.earliest_precharge_ps(read_at)
        fsm.apply_precharge(pre_at, TIMING)
        with pytest.raises(TimingViolation):
            fsm.apply_activate(3, at_ps=pre_at + TIMING.t_rp_ps - 1, timing=TIMING)
        fsm.apply_activate(3, at_ps=pre_at + TIMING.t_rp_ps, timing=TIMING)

    def test_read_requires_open_row_and_trcd(self):
        fsm = BankFsm(rank=0, index=0)
        with pytest.raises(TimingViolation):
            fsm.apply_read(0, TIMING)
        fsm.apply_activate(1, at_ps=0, timing=TIMING)
        with pytest.raises(TimingViolation):
            fsm.apply_read(TIMING.t_rcd_ps - 1, TIMING)
        fsm.apply_read(TIMING.t_rcd_ps, TIMING)

    def test_read_pushes_precharge_by_trtp(self):
        fsm = BankFsm(rank=0, index=0)
        fsm.apply_activate(1, at_ps=0, timing=TIMING)
        read_at = fsm.earliest_column_ps(0)
        fsm.apply_read(read_at, TIMING)
        assert fsm.pre_ready_ps >= read_at + TIMING.t_rtp_ps
        with pytest.raises(TimingViolation):
            fsm.apply_precharge(read_at, TIMING)

    def test_write_pushes_precharge_by_twr_after_data(self):
        fsm = BankFsm(rank=0, index=0)
        fsm.apply_activate(1, at_ps=0, timing=TIMING)
        column_at = fsm.earliest_column_ps(0)
        data_end = column_at + 5000
        fsm.apply_write(column_at, data_end, TIMING)
        assert fsm.pre_ready_ps >= data_end + TIMING.t_wr_ps

    def test_write_rejects_data_end_before_command(self):
        fsm = BankFsm(rank=0, index=0)
        fsm.apply_activate(1, at_ps=0, timing=TIMING)
        column_at = fsm.earliest_column_ps(0)
        with pytest.raises(ValueError):
            fsm.apply_write(column_at, column_at - 1, TIMING)

    def test_refresh_blocks_activation(self):
        fsm = BankFsm(rank=0, index=0)
        fsm.apply_activate(1, at_ps=0, timing=TIMING)
        fsm.force_precharge_for_refresh(refresh_end_ps=500_000)
        assert not fsm.is_open
        with pytest.raises(TimingViolation):
            fsm.apply_activate(2, at_ps=499_999, timing=TIMING)
        fsm.apply_activate(2, at_ps=500_000, timing=TIMING)

    @given(
        act_at=st.integers(min_value=0, max_value=10**7),
        extra=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=50)
    def test_legal_sequence_never_raises(self, act_at, extra):
        """ACT -> RD -> PRE -> ACT at the FSM's own earliest times is always legal."""
        fsm = BankFsm(rank=0, index=0)
        first_act = fsm.earliest_activate_ps(act_at)
        fsm.apply_activate(1, first_act, TIMING)
        read_at = fsm.earliest_column_ps(first_act + extra)
        fsm.apply_read(read_at, TIMING)
        pre_at = fsm.earliest_precharge_ps(read_at)
        fsm.apply_precharge(pre_at, TIMING)
        second_act = fsm.earliest_activate_ps(pre_at)
        fsm.apply_activate(2, second_act, TIMING)
        assert fsm.open_row == 2


class TestRefreshScheduler:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            RefreshParams(t_refi_ns=0)
        with pytest.raises(ValueError):
            RefreshParams(t_rfc_ns=0)
        with pytest.raises(ValueError):
            RefreshParams(t_refi_ns=100.0, t_rfc_ns=200.0)

    def test_not_due_before_first_interval(self):
        scheduler = RefreshScheduler(ranks=2)
        assert not scheduler.due(0, now_ps=scheduler.params.t_refi_ps - 1)
        assert scheduler.due(0, now_ps=scheduler.params.t_refi_ps)

    def test_disabled_refresh_is_never_due(self):
        scheduler = RefreshScheduler(ranks=1, params=RefreshParams(enabled=False))
        assert not scheduler.due(0, now_ps=10**12)

    def test_perform_advances_next_due_and_counts(self):
        scheduler = RefreshScheduler(ranks=1)
        due = scheduler.next_due_ps(0)
        end = scheduler.perform(0, start_ps=due)
        assert end == due + scheduler.params.t_rfc_ps
        assert scheduler.next_due_ps(0) >= due + scheduler.params.t_refi_ps
        assert scheduler.refreshes_issued == 1

    def test_late_refresh_does_not_accumulate_debt(self):
        scheduler = RefreshScheduler(ranks=1)
        late_start = scheduler.next_due_ps(0) + 50 * scheduler.params.t_refi_ps
        scheduler.perform(0, start_ps=late_start)
        assert scheduler.next_due_ps(0) >= late_start + scheduler.params.t_refi_ps

    def test_rejects_non_positive_ranks(self):
        with pytest.raises(ValueError):
            RefreshScheduler(ranks=0)
