"""Adding your own core to the platform.

The paper argues that distributed self-monitoring makes the system easy to
extend: "a new core can be added or modified without updating the rest of the
system".  This example demonstrates exactly that — it adds a neural
accelerator ("npu") to the camcorder workload with its own traffic pattern,
its own QoS notion (frame progress at ~60 inference windows per second) and
the stock frame-progress adaptation curve, without touching any other core or
the memory system.

Run with:  python examples/custom_core.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import build_system, camcorder_workload, run_experiment
from repro.campaign import format_points_table
from repro.memctrl.transaction import QueueClass
from repro.sim.clock import MS
from repro.traffic.camcorder import CamcorderWorkload, DmaSpec

MB = 1_000_000


def workload_with_npu() -> CamcorderWorkload:
    """The stock case-A workload plus a 60 Hz neural accelerator."""
    base = camcorder_workload("A", traffic_scale=0.6)
    next_region = max(spec.region_base + spec.region_bytes for spec in base.dmas)
    npu = DmaSpec(
        name="npu.read",
        core="npu",
        queue_class=QueueClass.SYSTEM,
        cluster="compute",
        is_write=False,
        traffic="frame_burst",
        bytes_per_s=400 * MB,
        transaction_bytes=2048,
        meter="frame_progress",
        window_ps=16 * MS,          # ~60 inference windows per second
        region_base=next_region,
    )
    return replace(base, dmas=base.dmas + (npu,))


def main() -> None:
    system = build_system(policy="priority_qos", workload=workload_with_npu())
    result = run_experiment(duration_ps=8 * MS, system=system)

    print("Camcorder workload extended with a custom 'npu' core\n")
    print(
        format_points_table(
            {"priority_qos": result},
            ("min_npi", "mean_npi", "bandwidth"),
            ["npu", "display", "dsp", "gpu"],
        )
    )
    print()
    npu_min = result.min_core_npi["npu"]
    status = "target met" if npu_min >= 1 else "below target"
    print(f"npu minimum NPI: {npu_min:.2f} ({status})")


if __name__ == "__main__":
    main()
