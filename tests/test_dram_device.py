"""Unit tests for the DRAM channel and device models."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.cmdsim import CommandLevelDram, RefreshParams
from repro.dram.device import DramDevice
from repro.dram.timing import DramTimingPs
from repro.sim.config import DramConfig, DramTimingConfig


@pytest.fixture
def device() -> DramDevice:
    return DramDevice(DramConfig())


def _serve(device, address, size_bytes, is_write, now_ps):
    """Map ``address`` and serve it: ``(data_start_ps, completion_ps, row_hit)``."""
    channel, bank_slot, row, _ = device.mapper.locate(address)
    return device.service(channel, bank_slot, row, size_bytes, is_write, now_ps)


def _is_row_hit(device, address):
    channel, bank_slot, row, _ = device.mapper.locate(address)
    return device.is_row_hit(channel, bank_slot, row)


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
        _, first_done, _ = _serve(device, 0, 1024, is_write=False, now_ps=0)
        _, hit_done, hit = _serve(device, 1024, 1024, is_write=False, now_ps=first_done)
        assert hit is True
        _, miss_done, miss_hit = _serve(
            device, 1 << 26, 1024, is_write=False, now_ps=hit_done
        )
        hit_latency = hit_done - first_done
        miss_latency = miss_done - hit_done
        assert not miss_hit or miss_latency >= hit_latency
        assert device.total_accesses == 3

    def test_sequential_stream_mostly_hits(self, device):
        now = 0
        for index in range(64):
            _, now, _ = _serve(device, index * 1024, 1024, is_write=False, now_ps=now)
        assert device.row_hit_rate > 0.6

    def test_random_far_apart_accesses_mostly_miss(self, device):
        now = 0
        stride = 16 * 1024 * 1024 + 8192
        for index in range(32):
            _, now, _ = _serve(device, index * stride, 2048, is_write=False, now_ps=now)
        assert device.row_hit_rate < 0.2

    def test_is_row_hit_reflects_bank_state(self, device):
        assert _is_row_hit(device, 0) is False
        _serve(device, 0, 1024, is_write=False, now_ps=0)
        assert _is_row_hit(device, 1024) is True
        assert _is_row_hit(device, 1 << 26) is False

    def test_bandwidth_accounting(self, device):
        _, completion_ps, _ = _serve(device, 0, 4096, is_write=False, now_ps=0)
        bandwidth = device.average_bandwidth_bytes_per_s(completion_ps)
        assert bandwidth > 0
        assert device.total_bytes == 4096

    def test_set_frequency_changes_service_time(self):
        fast = DramDevice(DramConfig())
        slow = DramDevice(DramConfig())
        slow.set_frequency(1300.0)
        _, fast_done, _ = _serve(fast, 0, 2048, is_write=False, now_ps=0)
        _, slow_done, _ = _serve(slow, 0, 2048, is_write=False, now_ps=0)
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
            data_start_ps, completion_ps, _ = _serve(
                device, index * 4096, 2048, is_write=index % 2 == 0, now_ps=now
            )
            assert completion_ps > now
            assert data_start_ps <= completion_ps
            now = completion_ps

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
            channel, bank_slot, row, _ = device.mapper.locate(address)
            data_start_ps, completion_ps, _ = device.service(
                channel, bank_slot, row, 1024, is_write=False, now_ps=now
            )
            windows[channel].append((data_start_ps, completion_ps))
            now = max(now, completion_ps)
        for channel_windows in windows.values():
            for (s1, e1), (s2, e2) in zip(channel_windows, channel_windows[1:]):
                assert s2 >= e1, "data bursts on one channel must not overlap"


#: A refresh every 2 µs, so generated sequences cross several of them.
FREQUENT_REFRESH = RefreshParams(t_refi_ns=2000.0, t_rfc_ns=180.0)

#: Both DRAM backends, by test id.
BACKENDS = {
    "transaction": lambda: DramDevice(DramConfig()),
    "command": lambda: CommandLevelDram(DramConfig(), refresh=FREQUENT_REFRESH),
}

_CONFIG = DramConfig()

#: One access: (channel, bank slot, row, size, is_write, gap before it in ps).
_ACCESS = st.tuples(
    st.integers(0, _CONFIG.channels - 1),
    st.integers(0, _CONFIG.ranks_per_channel * _CONFIG.banks_per_rank - 1),
    st.integers(0, 3),
    st.sampled_from((64, 256, 2048)),
    st.booleans(),
    st.sampled_from((0, 100_000, 1_000_000, 5_000_000)),
)


def _bank_rows(channel):
    """Each bank slot's open row as the banks hold it, -1 for a closed bank."""
    return [-1 if bank.open_row is None else bank.open_row for bank in channel.bank_slots]


class TestOpenRows:
    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_open_rows_follow_the_banks(self, backend):
        # The controller's row-aware selectors read each channel's
        # open_rows; after every access it must equal the banks' own state,
        # including the banks a command-level refresh precharged.
        closed_by_refresh = []

        @settings(max_examples=60, deadline=None)
        @given(accesses=st.lists(_ACCESS, min_size=1, max_size=60))
        def check(accesses):
            device = BACKENDS[backend]()
            accessed = set()
            now = 0
            for channel, bank_slot, row, size, is_write, gap in accesses:
                now += gap
                device.service(channel, bank_slot, row, size, is_write, now)
                accessed.add((channel, bank_slot))
                for index, each in enumerate(device.channels):
                    assert each.open_rows == _bank_rows(each)
                    closed_by_refresh.extend(
                        slot
                        for slot, open_row in enumerate(each.open_rows)
                        if open_row == -1 and (index, slot) in accessed
                    )

        check()
        # Only a refresh closes a bank that was accessed.
        assert bool(closed_by_refresh) == (backend == "command")
