"""Unit tests for the DRAM channel and device models."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.device import DramDevice
from repro.dram.timing import DramTimingPs
from repro.sim.config import DramConfig, DramTimingConfig


@pytest.fixture
def device() -> DramDevice:
    return DramDevice(DramConfig())


class TestTimingPs:
    def test_resolution_at_1866(self):
        timing = DramTimingPs.from_config(DramTimingConfig(), 1866.0)
        assert timing.clock_period_ps == 536
        assert timing.cl_ps == 36 * 536
        assert timing.row_miss_ps > timing.row_closed_ps > timing.row_hit_ps

    def test_lower_frequency_stretches_timings(self):
        fast = DramTimingPs.from_config(DramTimingConfig(), 1866.0)
        slow = DramTimingPs.from_config(DramTimingConfig(), 1300.0)
        assert slow.cl_ps > fast.cl_ps
        assert slow.t_faw_ps > fast.t_faw_ps

    def test_burst_time_scales_with_size(self):
        timing = DramTimingPs.from_config(DramTimingConfig(), 1866.0)
        assert timing.burst_ps(2048, 8) == 2 * timing.burst_ps(1024, 8)

    def test_burst_rejects_bad_sizes(self):
        timing = DramTimingPs.from_config(DramTimingConfig(), 1866.0)
        with pytest.raises(ValueError):
            timing.burst_ps(0, 8)
        with pytest.raises(ValueError):
            timing.burst_ps(64, 0)


class TestDramDevice:
    def test_row_hit_is_faster_than_miss(self, device):
        first = device.service(address=0, size_bytes=1024, is_write=False, now_ps=0)
        hit = device.service(
            address=1024, size_bytes=1024, is_write=False, now_ps=first.completion_ps
        )
        assert hit.row_hit is True
        miss = device.service(
            address=1 << 26, size_bytes=1024, is_write=False, now_ps=hit.completion_ps
        )
        hit_latency = hit.completion_ps - first.completion_ps
        miss_latency = miss.completion_ps - hit.completion_ps
        assert not miss.row_hit or miss_latency >= hit_latency
        assert device.total_accesses == 3

    def test_sequential_stream_mostly_hits(self, device):
        now = 0
        for index in range(64):
            result = device.service(index * 1024, 1024, is_write=False, now_ps=now)
            now = result.completion_ps
        assert device.row_hit_rate > 0.6

    def test_random_far_apart_accesses_mostly_miss(self, device):
        now = 0
        stride = 16 * 1024 * 1024 + 8192
        for index in range(32):
            result = device.service(index * stride, 2048, is_write=False, now_ps=now)
            now = result.completion_ps
        assert device.row_hit_rate < 0.2

    def test_is_row_hit_reflects_bank_state(self, device):
        assert device.is_row_hit(0) is False
        device.service(0, 1024, is_write=False, now_ps=0)
        assert device.is_row_hit(1024) is True
        assert device.is_row_hit(1 << 26) is False

    def test_bandwidth_accounting(self, device):
        result = device.service(0, 4096, is_write=False, now_ps=0)
        bandwidth = device.average_bandwidth_bytes_per_s(result.completion_ps)
        assert bandwidth > 0
        assert device.total_bytes == 4096

    def test_set_frequency_changes_service_time(self):
        fast = DramDevice(DramConfig())
        slow = DramDevice(DramConfig())
        slow.set_frequency(1300.0)
        fast_result = fast.service(0, 2048, is_write=False, now_ps=0)
        slow_result = slow.service(0, 2048, is_write=False, now_ps=0)
        assert slow_result.completion_ps > fast_result.completion_ps

    @pytest.mark.parametrize("path", ["service", "slot"])
    def test_set_frequency_after_service_rebursts(self, path):
        # Re-clocking after an access must not reuse that access's burst
        # time: the next access of the same size bursts exactly as on a
        # device built at the new frequency.
        def burst_ps(device, now_ps):
            channel = device.channels[0]
            busy_before = channel.busy_time_ps
            if path == "service":
                device.service(0, 2048, is_write=False, now_ps=now_ps)
            else:
                device.service_prepared(0, 0, 0, 2048, False, now_ps)
            return channel.busy_time_ps - busy_before

        reclocked = DramDevice(DramConfig())
        at_1866 = burst_ps(reclocked, 0)
        reclocked.set_frequency(1300.0)
        fresh = DramDevice(DramConfig().with_frequency(1300.0))
        assert burst_ps(reclocked, 10**6) == burst_ps(fresh, 0) > at_1866

    def test_peak_bandwidth_positive(self, device):
        assert device.peak_bandwidth_bytes_per_s() == pytest.approx(2 * 8 * 1866e6)

    def test_invalid_sim_scale_rejected(self):
        with pytest.raises(ValueError):
            DramDevice(DramConfig(), sim_scale=0.0)

    def test_completion_never_precedes_issue(self, device):
        now = 0
        for index in range(32):
            result = device.service(index * 4096, 2048, is_write=index % 2 == 0, now_ps=now)
            assert result.completion_ps > now
            assert result.data_start_ps <= result.completion_ps
            now = result.completion_ps

    @settings(max_examples=25, deadline=None)
    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=40
        )
    )
    def test_bus_never_overlaps(self, addresses):
        device = DramDevice(DramConfig())
        now = 0
        windows = {channel: [] for channel in range(device.config.channels)}
        for address in addresses:
            result = device.service(address, 1024, is_write=False, now_ps=now)
            windows[result.channel].append((result.data_start_ps, result.completion_ps))
            now = max(now, result.completion_ps)
        for channel_windows in windows.values():
            for (s1, e1), (s2, e2) in zip(channel_windows, channel_windows[1:]):
                assert s2 >= e1, "data bursts on one channel must not overlap"
