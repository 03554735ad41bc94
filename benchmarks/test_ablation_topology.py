"""Ablation — interconnect topology (Fig. 1 tree versus a 2D mesh).

The paper's platform is a two-level arbiter tree.  This ablation swaps in a
2D mesh with XY routing (all traffic drains to the controller corner) while
keeping the same policy and workload, to confirm that SARA's end-to-end QoS
argument does not depend on the specific interconnect: the priority carried
by each transaction is honoured at every mesh router just as it is at every
tree arbiter.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import cached_sweep
from repro.analysis.metrics import qos_satisfied
from repro.runner import RunSpec
from repro.scenario import critical_cores_for, scenario_config
from repro.sim.clock import MS
from repro.sim.config import NocConfig

DURATION_PS = 8 * MS
TOPOLOGIES = ["tree", "mesh"]


def _spec(topology: str) -> RunSpec:
    """The one spec per topology: the prefetch and every test share its key."""
    base = scenario_config("case_a")
    return RunSpec(
        scenario="case_a",
        policy="priority_qos",
        duration_ps=DURATION_PS,
        config=base.with_overrides(
            duration_ps=DURATION_PS,
            noc=NocConfig(
                link_bytes_per_ns=base.noc.link_bytes_per_ns,
                router_latency_ns=base.noc.router_latency_ns,
                arbitration="priority_qos",
                topology=topology,
            ),
        ),
        keep_trace=False,
        label=topology,
    )


@pytest.fixture(scope="module", autouse=True)
def _prefetch_grid():
    """Batch the whole grid through one sweep so cold runs can parallelise."""
    cached_sweep([_spec(topology) for topology in TOPOLOGIES])


def _run(topology: str):
    return cached_sweep([_spec(topology)])[0]


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_topology_run(topology):
    result = _run(topology)
    assert result.served_transactions > 0


def test_topology_shape():
    tree = _run("tree")
    mesh = _run("mesh")
    critical = critical_cores_for("case_a")

    print("\nTopology ablation (case A, Policy 1)")
    print(f"{'topology':<10}{'bandwidth (GB/s)':>18}{'avg latency (ns)':>18}  failing critical cores")
    for name, result in (("tree", tree), ("mesh", mesh)):
        failing = [core for core in result.failing_cores() if core in critical]
        print(
            f"{name:<10}{result.dram_bandwidth_gb_per_s():>18.2f}"
            f"{result.average_latency_ps / 1000:>18.1f}  {failing or 'none'}"
        )

    # The priority-based policy keeps delivering target performance on both
    # interconnects; DRAM remains the bottleneck, so bandwidth is comparable.
    assert qos_satisfied(tree, cores=critical)
    assert qos_satisfied(mesh, cores=critical)
    ratio = mesh.dram_bandwidth_bytes_per_s / tree.dram_bandwidth_bytes_per_s
    assert 0.8 <= ratio <= 1.2, f"bandwidth ratio {ratio:.2f}"
