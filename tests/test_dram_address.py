"""Unit tests for the DRAM address mapper."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.dram.address import AddressMapper
from repro.sim.config import DramConfig


def test_coordinates_stay_within_organisation(dram_config):
    mapper = AddressMapper(dram_config)
    for address in range(0, 64 * 1024 * 1024, 1_234_567):
        channel, bank_slot, row, column = mapper.locate(address)
        rank, bank = divmod(bank_slot, dram_config.banks_per_rank)
        assert 0 <= channel < dram_config.channels
        assert 0 <= rank < dram_config.ranks_per_channel
        assert 0 <= bank < dram_config.banks_per_rank
        assert 0 <= column < dram_config.row_size_bytes
        assert 0 <= row < mapper.rows_per_bank


def test_sequential_stream_stays_in_one_row_within_interleave(dram_config):
    mapper = AddressMapper(dram_config)
    channel, bank_slot, row, _ = mapper.locate(0)
    same_channel, same_slot, same_row, _ = mapper.locate(dram_config.row_size_bytes - 1)
    assert channel == same_channel
    assert bank_slot == same_slot
    assert row == same_row


def test_adjacent_interleave_blocks_alternate_channels(dram_config):
    mapper = AddressMapper(dram_config)
    first_channel = mapper.locate(0)[0]
    second_channel = mapper.locate(dram_config.row_size_bytes)[0]
    assert first_channel != second_channel


def test_addresses_wrap_at_capacity(dram_config):
    mapper = AddressMapper(dram_config)
    assert mapper.locate(dram_config.capacity_bytes + 64) == mapper.locate(64)


def test_negative_address_rejected(dram_config):
    mapper = AddressMapper(dram_config)
    with pytest.raises(ValueError):
        mapper.locate(-1)


def test_interleave_must_be_power_of_two(dram_config):
    with pytest.raises(ValueError):
        AddressMapper(dram_config, channel_interleave_bytes=3000)


def test_interleave_cannot_exceed_row_size(dram_config):
    with pytest.raises(ValueError):
        AddressMapper(dram_config, channel_interleave_bytes=dram_config.row_size_bytes * 2)


def test_disjoint_regions_map_to_disjoint_rows():
    config = DramConfig()
    mapper = AddressMapper(config)
    region = 64 * 1024 * 1024
    a = mapper.locate(0)
    b = mapper.locate(region)
    assert a[:3] != b[:3]


@given(address=st.integers(min_value=0, max_value=2**40))
def test_decode_is_deterministic(address):
    mapper = AddressMapper(DramConfig())
    assert mapper.locate(address) == mapper.locate(address)
