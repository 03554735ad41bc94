"""Authoring a custom scenario: platform + workload as plain data.

Scenarios make experiments declarative: a platform (simulation config and
interconnect link widths), a workload (a registry kind plus parameters), a
default policy and sweep axes — all serializable to a JSON/TOML file that
``python -m repro run <file>`` consumes directly.

This example builds a "drone camera" variant of the paper's platform in
code, saves it to ``drone_camera.json``, reloads it (losslessly), and runs
it under two policies.  The same file works from the CLI:

    python -m repro run drone_camera.json --duration-ms 4
    python -m repro run drone_camera.json --set workload.params.traffic_scale=0.5

Run with:  python examples/custom_scenario.py
"""

from __future__ import annotations

from repro import Scenario, scenario_from_file
from repro.campaign import format_points_table
from repro.runner import compare_policies_specs, run_sweep
from repro.scenario import PlatformSpec, WorkloadSpec
from repro.sim.clock import MS
from repro.sim.config import DramConfig, SimulationConfig

MB = 1_000_000

#: A 60 fps drone camera: the camcorder's media pipeline at a faster frame
#: rate over a single-channel DRAM — bandwidth is scarcer, so policy choice
#: matters more than on the paper's platform.
DRONE_CAMERA = Scenario(
    name="drone_camera",
    description="60 fps drone camera pipeline on single-channel LPDDR4-1866",
    platform=PlatformSpec(
        sim=SimulationConfig(
            duration_ps=16 * MS,
            dram=DramConfig(io_freq_mhz=1866.0, channels=1),
        ),
        cluster_links_bytes_per_ns={"media": 16.0, "compute": 12.0, "system": 2.0},
        root_link_bytes_per_ns=24.0,
    ),
    workload=WorkloadSpec(
        kind="camcorder",
        params={"case": "A", "frame_period_ps": 16 * MS, "traffic_scale": 0.7},
    ),
    policy="priority_qos",
    critical_cores=("camera", "image_processor", "video_codec", "display"),
    sweep={"policy": ["fcfs", "priority_qos"]},
)


def main() -> None:
    path = DRONE_CAMERA.save("drone_camera.json")
    loaded = scenario_from_file(path)
    assert loaded == DRONE_CAMERA, "scenario serialisation is lossless"
    print(f"scenario written to {path} and reloaded losslessly\n")

    policies = list(loaded.sweep["policy"])
    specs = compare_policies_specs(
        policies,
        scenario=loaded,
        duration_ps=4 * MS,
        traffic_scale=0.5,  # trim for a quick demo
    )
    ordered, _ = run_sweep(specs)
    results = dict(zip(policies, ordered))
    print("Minimum NPI per critical core (drone camera, single-channel DRAM)\n")
    print(format_points_table(results, ("min_npi",), loaded.critical_cores))
    print()
    for name, result in results.items():
        print(
            f"{name:<14} bandwidth {result.dram_bandwidth_gb_per_s():5.2f} GB/s   "
            f"failing cores: {result.failing_cores() or 'none'}"
        )


if __name__ == "__main__":
    main()
