"""Table 2 — heterogeneous cores and their types of target performance.

Regenerates the core/QoS-type summary from the core registry and the
camcorder workload and checks it against the paper's table.
"""

from __future__ import annotations

from repro.system.platform import table2_core_types
from repro.traffic.camcorder import camcorder_workload

#: The paper's Table 2 (core -> type of target performance).
PAPER_TABLE2 = {
    "gpu": "frame rate",
    "display": "buffer occupancy",
    "dsp": "latency",
    "gps": "processing time",
    "image_processor": "frame rate",
    "wifi": "bandwidth",
    "video_codec": "frame rate",
    "usb": "bandwidth",
    "rotator": "frame rate",
    "modem": "processing time",
    "jpeg": "frame rate",
    "audio": "latency",
    "camera": "buffer occupancy",
}


def test_table2_core_types():
    types = table2_core_types()

    print("\nTable 2 — cores and types of target performance")
    for core in sorted(PAPER_TABLE2):
        print(f"  {core:18s} {types[core]}")

    for core, performance_type in PAPER_TABLE2.items():
        assert types[core] == performance_type, core
    # The CPU is additionally modelled (best-effort bandwidth), as in Table 1's
    # dedicated CPU transaction queue.
    assert types["cpu"] == "bandwidth"


def test_workload_instantiates_every_table2_core():
    workload = camcorder_workload("A")
    assert set(PAPER_TABLE2).issubset(set(workload.cores()))
