"""Tests for DRAM / NoC / system energy estimation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.device import DramDevice
from repro.power import (
    DramPowerParams,
    NocPowerParams,
    estimate_dram_energy,
    estimate_noc_energy,
    estimate_system_energy,
    format_energy_report,
)
from repro.sim.clock import MS
from repro.sim.config import DramConfig
from repro.system.builder import build_system


def _device_with_traffic(accesses: int, size_bytes: int = 256, stride: int = 64) -> DramDevice:
    """A DRAM device after a deterministic burst of transactions."""
    device = DramDevice(DramConfig())
    now = 0
    address = 0
    for index in range(accesses):
        channel, bank_slot, row, _ = device.mapper.locate(address)
        _, now, _ = device.service(
            channel, bank_slot, row, size_bytes, is_write=index % 2 == 0, now_ps=now
        )
        address += stride * size_bytes
    return device


class TestDramEnergy:
    def test_idle_device_has_only_static_energy(self):
        device = DramDevice(DramConfig())
        breakdown = estimate_dram_energy(device, elapsed_ps=MS)
        assert breakdown.dynamic_j == 0.0
        assert breakdown.static_j > 0.0
        assert breakdown.total_j == pytest.approx(breakdown.static_j)

    def test_traffic_adds_dynamic_energy(self):
        device = _device_with_traffic(accesses=50)
        breakdown = estimate_dram_energy(device, elapsed_ps=MS)
        assert breakdown.activation_j > 0.0
        assert breakdown.read_j > 0.0
        assert breakdown.write_j > 0.0
        assert breakdown.io_j > 0.0
        assert breakdown.total_j > breakdown.static_j

    def test_more_row_misses_cost_more_activation_energy(self):
        # Large stride forces a different row every access; small stride stays
        # within the open row and should activate far less often.
        hits = _device_with_traffic(accesses=64, stride=1)
        misses = _device_with_traffic(accesses=64, stride=1024)
        elapsed = MS
        hit_energy = estimate_dram_energy(hits, elapsed).activation_j
        miss_energy = estimate_dram_energy(misses, elapsed).activation_j
        assert miss_energy > hit_energy

    def test_longer_elapsed_costs_more_background(self):
        device = _device_with_traffic(accesses=10)
        short = estimate_dram_energy(device, elapsed_ps=MS)
        long = estimate_dram_energy(device, elapsed_ps=4 * MS)
        assert long.background_j > short.background_j
        assert long.refresh_j > short.refresh_j
        assert long.dynamic_j == pytest.approx(short.dynamic_j)

    def test_average_power_consistency(self):
        device = _device_with_traffic(accesses=20)
        breakdown = estimate_dram_energy(device, elapsed_ps=2 * MS)
        assert breakdown.average_power_w == pytest.approx(
            breakdown.total_j / breakdown.elapsed_s
        )

    def test_rejects_non_positive_elapsed(self):
        device = DramDevice(DramConfig())
        with pytest.raises(ValueError):
            estimate_dram_energy(device, elapsed_ps=0)

    def test_explicit_params_are_honoured(self):
        device = _device_with_traffic(accesses=16)
        cheap = DramPowerParams(
            activate_precharge_nj=0.001,
            read_pj_per_byte=0.001,
            write_pj_per_byte=0.001,
            io_pj_per_byte=0.001,
        )
        default = estimate_dram_energy(device, MS)
        custom = estimate_dram_energy(device, MS, params=cheap)
        assert custom.dynamic_j < default.dynamic_j

    def test_as_dict_matches_fields(self):
        device = _device_with_traffic(accesses=8)
        breakdown = estimate_dram_energy(device, MS)
        flat = breakdown.as_dict()
        assert flat["total_j"] == pytest.approx(breakdown.total_j)
        assert flat["dynamic_j"] == pytest.approx(breakdown.dynamic_j)
        assert flat["static_j"] == pytest.approx(breakdown.static_j)

    def test_energy_per_byte_zero_without_traffic(self):
        device = DramDevice(DramConfig())
        breakdown = estimate_dram_energy(device, MS)
        assert breakdown.energy_per_byte_pj(0) == 0.0

    @given(
        accesses=st.integers(min_value=1, max_value=40),
        elapsed_ms=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=20, deadline=None)
    def test_energy_components_never_negative(self, accesses, elapsed_ms):
        device = _device_with_traffic(accesses=accesses)
        breakdown = estimate_dram_energy(device, elapsed_ps=elapsed_ms * MS)
        for value in breakdown.as_dict().values():
            assert value >= 0.0


class TestSystemEnergy:
    @pytest.fixture(scope="class")
    def finished_system(self):
        system = build_system(scenario="case_b", policy="priority_qos", traffic_scale=0.2)
        system.run(duration_ps=MS)
        return system

    def test_noc_energy_counts_hops(self, finished_system):
        breakdown = estimate_noc_energy(finished_system.network, finished_system.engine.now_ps)
        assert breakdown.forwarded_packets > 0
        assert breakdown.forwarded_bytes > 0
        assert breakdown.dynamic_j > 0.0
        assert breakdown.leakage_j > 0.0

    def test_noc_energy_rejects_bad_elapsed(self, finished_system):
        with pytest.raises(ValueError):
            estimate_noc_energy(finished_system.network, 0)

    def test_system_report_combines_dram_and_noc(self, finished_system):
        report = estimate_system_energy(finished_system)
        assert report.total_j == pytest.approx(report.dram.total_j + report.noc.total_j)
        assert report.served_bytes == finished_system.dram.total_bytes
        assert report.average_power_w > 0.0
        assert report.energy_per_byte_pj > 0.0
        assert report.energy_per_bit_pj == pytest.approx(report.energy_per_byte_pj / 8)

    def test_system_report_respects_custom_noc_params(self, finished_system):
        hot = NocPowerParams(hop_pj_per_byte=50.0)
        default = estimate_system_energy(finished_system)
        custom = estimate_system_energy(finished_system, noc_params=hot)
        assert custom.noc.dynamic_j > default.noc.dynamic_j

    def test_format_energy_report_mentions_components(self, finished_system):
        text = format_energy_report(estimate_system_energy(finished_system))
        assert "DRAM activation/precharge" in text
        assert "NoC dynamic" in text
        assert "Average power" in text

    def test_unrun_system_is_rejected(self):
        system = build_system(scenario="case_b", policy="fcfs", traffic_scale=0.2)
        with pytest.raises(ValueError):
            estimate_system_energy(system)

    def test_read_write_split_recorded(self, finished_system):
        dram = finished_system.dram
        assert dram.read_bytes + dram.write_bytes == dram.total_bytes
        assert dram.read_bytes > 0
        assert dram.write_bytes > 0
