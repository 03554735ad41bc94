"""Table 1 — simulation settings.

Regenerates the simulation-settings table (DRAM organisation and timing,
memory-controller entries and queues, per-case DRAM frequency) directly from
the configuration objects the simulator actually uses, and checks that they
match the values printed in the paper.
"""

from __future__ import annotations

from repro.campaign import render_markdown_table
from repro.system.builder import build_system
from repro.system.platform import table1_settings
from repro.traffic.camcorder import CASE_B_INACTIVE_CORES


def test_table1_settings():
    settings = {case: table1_settings(case) for case in ("A", "B")}

    for case, values in settings.items():
        print(f"\nTable 1 — test case {case}")
        rows = [[key, str(values[key])] for key in sorted(values)]
        print(render_markdown_table(["setting", "value"], rows))

    case_a, case_b = settings["A"], settings["B"]
    assert case_a["dram_io_freq_mhz"] == 1866.0
    assert case_b["dram_io_freq_mhz"] == 1700.0
    assert case_a["memory_controller_total_entries"] == 42
    assert case_a["memory_controller_transaction_queues"] == 5
    assert case_a["dram_capacity_bytes"] == 2 * 1024**3
    assert case_a["dram_channels"] == 2
    assert case_a["dram_ranks_per_channel"] == 2
    assert case_a["dram_banks_per_rank"] == 8
    assert case_a["timing_cl_trcd_trp"] == (36, 34, 34)
    assert case_a["timing_twtr_trtp_twr"] == (19, 14, 34)
    assert case_a["timing_trrd_tfaw"] == (19, 75)


def test_case_b_deactivates_the_listed_cores():
    system = build_system(scenario="case_b", policy="priority_qos", traffic_scale=0.1)
    for core in CASE_B_INACTIVE_CORES:
        assert core not in system.cores
    assert system.dram.config.io_freq_mhz == 1700.0
