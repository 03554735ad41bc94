"""Tests for the command-level channel and device, including cross-checks
against the transaction-level backend."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.cmdsim import CommandLevelDram, CommandType, RefreshParams
from repro.dram.device import DramDevice
from repro.sim.clock import MS
from repro.sim.config import DramConfig
from repro.system.builder import build_system
from repro.system.experiment import run_experiment


def _serve(device, address, size_bytes, is_write, now_ps):
    """Map ``address`` and serve it: ``(data_start_ps, completion_ps, row_hit)``."""
    channel, bank_slot, row, _ = device.mapper.locate(address)
    return device.service(channel, bank_slot, row, size_bytes, is_write, now_ps)


def _drive(device, accesses: int, stride_rows: bool, size_bytes: int = 256):
    """Issue a deterministic sequence of transactions back to back.

    Returns one ``(channel, completion_ps)`` pair per transaction.
    """
    now = 0
    address = 0
    step = 1024 * 1024 if stride_rows else size_bytes
    results = []
    for index in range(accesses):
        channel, bank_slot, row, _ = device.mapper.locate(address)
        _, now, _ = device.service(
            channel, bank_slot, row, size_bytes, is_write=index % 3 == 0, now_ps=now
        )
        results.append((channel, now))
        address += step
    return results


class TestCommandLevelDram:
    def test_interface_matches_dram_device(self):
        assert issubclass(CommandLevelDram, DramDevice)
        # One implementation: the subclass adds channels, not a second copy
        # of the device's call, counters or bandwidth math.
        own = vars(CommandLevelDram)
        for name in (
            "service",
            "is_row_hit",
            "set_frequency",
            "total_accesses",
            "row_hit_rate",
            "average_bandwidth_bytes_per_s",
            "peak_bandwidth_bytes_per_s",
        ):
            assert name not in own, name

    def test_rejects_bad_sim_scale(self):
        with pytest.raises(ValueError):
            CommandLevelDram(DramConfig(), sim_scale=0.0)

    def test_sequential_accesses_hit_the_open_row(self):
        device = CommandLevelDram(DramConfig(), refresh=RefreshParams(enabled=False))
        _drive(device, accesses=32, stride_rows=False)
        assert device.row_hit_rate > 0.8
        counts = device.command_counts()
        assert counts[CommandType.ACTIVATE] < 8
        assert counts[CommandType.READ] + counts[CommandType.WRITE] == 32

    def test_row_striding_accesses_activate_every_time(self):
        device = CommandLevelDram(DramConfig(), refresh=RefreshParams(enabled=False))
        _drive(device, accesses=32, stride_rows=True)
        counts = device.command_counts()
        assert counts[CommandType.ACTIVATE] == 32
        assert device.row_hit_rate == 0.0

    def test_completion_times_are_monotone_per_channel(self):
        device = CommandLevelDram(DramConfig())
        results = _drive(device, accesses=40, stride_rows=True)
        per_channel = {}
        for channel, completion_ps in results:
            previous = per_channel.get(channel, -1)
            assert completion_ps > previous
            per_channel[channel] = completion_ps

    def test_data_never_starts_before_issue(self):
        device = CommandLevelDram(DramConfig())
        now = 0
        for index in range(16):
            data_start_ps, completion_ps, _ = _serve(
                device, index * 4096, 256, is_write=False, now_ps=now
            )
            assert data_start_ps >= now
            assert completion_ps > data_start_ps
            now = completion_ps

    def test_refresh_fires_over_long_idle_periods(self):
        params = RefreshParams(t_refi_ns=500.0, t_rfc_ns=100.0)
        device = CommandLevelDram(DramConfig(), refresh=params)
        # Space accesses far apart so several refresh intervals elapse.
        now = 0
        for index in range(10):
            _, completion_ps, _ = _serve(device, index * 64, 64, is_write=False, now_ps=now)
            now = completion_ps + 10 * params.t_refi_ps
        assert device.refreshes_issued() > 0
        assert device.command_counts()[CommandType.REFRESH] == device.refreshes_issued()

    def test_set_frequency_changes_service_time(self):
        fast = CommandLevelDram(DramConfig(io_freq_mhz=1866.0), refresh=RefreshParams(enabled=False))
        slow = CommandLevelDram(DramConfig(io_freq_mhz=1866.0), refresh=RefreshParams(enabled=False))
        slow.set_frequency(1300.0)
        _, fast_done = _drive(fast, accesses=16, stride_rows=True)[-1]
        _, slow_done = _drive(slow, accesses=16, stride_rows=True)[-1]
        assert slow_done > fast_done

    def test_set_frequency_after_service_rebursts(self):
        # Re-clocking after an access must not reuse that access's burst
        # time: the next access of the same size bursts exactly as on a
        # device built at the new frequency.
        def burst_ps(device, now_ps):
            channel = device.channels[0]
            busy_before = channel.busy_time_ps
            device.service(0, 0, 0, 2048, False, now_ps)
            return channel.busy_time_ps - busy_before

        reclocked = CommandLevelDram(DramConfig())
        at_1866 = burst_ps(reclocked, 0)
        reclocked.set_frequency(1300.0)
        fresh = CommandLevelDram(DramConfig().with_frequency(1300.0))
        assert burst_ps(reclocked, 10**6) == burst_ps(fresh, 0) > at_1866

    def test_bandwidth_accounting(self):
        device = CommandLevelDram(DramConfig())
        _drive(device, accesses=10, stride_rows=False, size_bytes=512)
        assert device.total_bytes == 10 * 512
        assert device.read_bytes + device.write_bytes == device.total_bytes
        assert device.average_bandwidth_bytes_per_s(MS) > 0
        with pytest.raises(ValueError):
            device.average_bandwidth_bytes_per_s(0)

    @given(
        sizes=st.lists(st.sampled_from([64, 128, 256, 1024]), min_size=1, max_size=30),
        stride=st.sampled_from([64, 8192, 1 << 20]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_service_times_always_progress(self, sizes, stride):
        device = CommandLevelDram(DramConfig())
        now = 0
        address = 0
        for size in sizes:
            data_start_ps, completion_ps, _ = _serve(
                device, address, size, is_write=False, now_ps=now
            )
            assert completion_ps >= data_start_ps >= now
            now = completion_ps
            address += stride
        assert device.total_accesses == len(sizes)


class TestCommandVersusTransactionLevel:
    def test_row_hits_make_both_backends_faster(self):
        """Both backends must show the basic locality effect the paper uses."""
        for backend in (DramDevice, CommandLevelDram):
            device_hits = backend(DramConfig())
            device_miss = backend(DramConfig())
            _, hits_done = _drive(device_hits, accesses=32, stride_rows=False)[-1]
            _, miss_done = _drive(device_miss, accesses=32, stride_rows=True)[-1]
            assert miss_done > hits_done, backend.__name__

    def test_backends_agree_on_row_hit_classification(self):
        txn = DramDevice(DramConfig())
        cmd = CommandLevelDram(DramConfig(), refresh=RefreshParams(enabled=False))
        now_a = now_b = 0
        for index in range(24):
            channel, bank_slot, row, _ = txn.mapper.locate((index % 6) * 128)
            assert txn.is_row_hit(channel, bank_slot, row) == cmd.is_row_hit(
                channel, bank_slot, row
            )
            _, now_a, _ = txn.service(channel, bank_slot, row, 128, False, now_a)
            _, now_b, _ = cmd.service(channel, bank_slot, row, 128, False, now_b)
        assert txn.row_hits == cmd.row_hits
        assert txn.row_misses == cmd.row_misses


class TestCommandLevelSystem:
    def test_build_system_with_command_backend(self):
        system = build_system(
            scenario="case_b", policy="priority_qos", traffic_scale=0.2, dram_model="command"
        )
        assert isinstance(system.dram, CommandLevelDram)

    def test_build_system_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown dram_model"):
            build_system(scenario="case_b", dram_model="quantum")

    def test_short_run_with_command_backend_meets_targets(self):
        result = run_experiment(
            scenario="case_b",
            policy="priority_qos",
            duration_ps=MS,
            traffic_scale=0.2,
            dram_model="command",
        )
        assert result.dram_bandwidth_bytes_per_s > 0
        assert result.served_transactions > 0
