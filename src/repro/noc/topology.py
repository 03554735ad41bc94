"""Tree-topology builder for the MPSoC interconnect.

The default platform uses the two-level tree sketched in Fig. 1 of the paper:
DMAs inject into their cluster router (compute, media or system cluster) and
cluster routers feed a root router sitting in front of the memory controller.
Cluster links are narrower than the root link, so cores of one cluster can
interfere with each other (e.g. the USB overwhelming the GPS on the system
interconnect under FCFS) before DRAM even becomes the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.noc.arbiter import NocArbiter
from repro.noc.link import Link
from repro.noc.router import Router
from repro.sim.engine import Engine


@dataclass(frozen=True)
class ClusterSpec:
    """Description of one cluster router."""

    name: str
    link_bytes_per_ns: float
    members: tuple


@dataclass
class TreeTopology:
    """A built two-level router tree."""

    root: Router
    clusters: Dict[str, Router] = field(default_factory=dict)
    cluster_of: Dict[str, str] = field(default_factory=dict)

    def cluster_for(self, core_name: str) -> Router:
        """The cluster router a given core injects into."""
        try:
            cluster_name = self.cluster_of[core_name]
        except KeyError:
            raise KeyError(f"core '{core_name}' is not attached to any cluster") from None
        return self.clusters[cluster_name]

    def routers(self) -> List[Router]:
        return [self.root] + list(self.clusters.values())


def build_tree(
    engine: Engine,
    cluster_specs: List[ClusterSpec],
    arbitration: str,
    root_link_bytes_per_ns: float,
    router_latency_ns: float,
) -> TreeTopology:
    """Build the two-level tree used by the default platform."""
    if not cluster_specs:
        raise ValueError("at least one cluster is required")
    root = Router(
        name="root",
        engine=engine,
        arbiter=NocArbiter(arbitration),
        output_link=Link("root-to-mc", root_link_bytes_per_ns),
        latency_ns=router_latency_ns,
    )
    topology = TreeTopology(root=root)
    for spec in cluster_specs:
        if spec.name in topology.clusters:
            raise ValueError(f"duplicate cluster name '{spec.name}'")
        cluster = Router(
            name=spec.name,
            engine=engine,
            arbiter=NocArbiter(arbitration),
            output_link=Link(f"{spec.name}-to-root", spec.link_bytes_per_ns),
            latency_ns=router_latency_ns,
        )
        cluster.set_sink(root.receive)
        topology.clusters[spec.name] = cluster
        for member in spec.members:
            if member in topology.cluster_of:
                raise ValueError(f"core '{member}' appears in more than one cluster")
            topology.cluster_of[member] = spec.name
    return topology
