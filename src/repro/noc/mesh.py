"""2D-mesh topology with dimension-ordered (XY) routing toward the memory controller.

The default platform uses the two-level tree of Fig. 1, but many MPSoCs route
memory traffic over a mesh.  Because every memory transaction in this system
targets the single memory controller, dimension-ordered routing degenerates
into a fixed next-hop per router: transactions first travel along X toward
column 0 and then along Y toward row 0, where the egress router feeds the
memory controller.  That property lets the mesh reuse the single-output
:class:`~repro.noc.router.Router`: each node's output link points at its XY
next hop, and the egress node's output link is the connection to the memory
controller.

Clusters (the same :class:`~repro.noc.topology.ClusterSpec` list the tree
uses) are placed on mesh nodes row-major, skipping the egress node, so cores
of different clusters traverse different numbers of hops — distant clusters
see more serialisation and more interference, which is the behaviour a mesh
adds over the tree."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.noc.arbiter import NocArbiter
from repro.noc.link import Link
from repro.noc.router import Router
from repro.noc.topology import ClusterSpec
from repro.sim.engine import Engine

Coordinate = Tuple[int, int]


def xy_next_hop(node: Coordinate) -> Coordinate:
    """The dimension-ordered next hop toward the egress node (0, 0)."""
    x, y = node
    if x < 0 or y < 0:
        raise ValueError("mesh coordinates must be non-negative")
    if x > 0:
        return (x - 1, y)
    if y > 0:
        return (x, y - 1)
    raise ValueError("the egress node (0, 0) has no next hop")


def xy_path(node: Coordinate) -> List[Coordinate]:
    """Every node a packet injected at ``node`` traverses, egress included."""
    path = [node]
    current = node
    while current != (0, 0):
        current = xy_next_hop(current)
        path.append(current)
    return path


@dataclass
class MeshTopology:
    """A built 2D mesh of routers draining into the memory controller.

    ``root`` is the egress router at (0, 0): its output link is the memory
    controller connection, and the system builder installs the controller
    back-pressure gate on it exactly as it does on the tree's root router.
    """

    columns: int
    rows: int
    nodes: Dict[Coordinate, Router] = field(default_factory=dict)
    cluster_node: Dict[str, Coordinate] = field(default_factory=dict)
    cluster_of: Dict[str, str] = field(default_factory=dict)

    @property
    def root(self) -> Router:
        return self.nodes[(0, 0)]

    def cluster_for(self, core_name: str) -> Router:
        """The mesh node router a given core injects into."""
        try:
            cluster_name = self.cluster_of[core_name]
        except KeyError:
            raise KeyError(f"core '{core_name}' is not attached to any cluster") from None
        return self.nodes[self.cluster_node[cluster_name]]

    def node_of_cluster(self, cluster_name: str) -> Coordinate:
        try:
            return self.cluster_node[cluster_name]
        except KeyError:
            raise KeyError(f"unknown cluster '{cluster_name}'") from None

    def hops_to_controller(self, cluster_name: str) -> int:
        """Number of router traversals from a cluster's node to the controller."""
        return len(xy_path(self.node_of_cluster(cluster_name)))

    def routers(self) -> List[Router]:
        return [self.nodes[coord] for coord in sorted(self.nodes)]


def _grid_dimensions(cluster_count: int, columns: int) -> Tuple[int, int]:
    """Columns and rows needed to place every cluster plus the egress node."""
    if columns <= 0:
        raise ValueError("columns must be positive")
    nodes_needed = cluster_count + 1  # clusters plus the reserved egress node
    rows = max(1, math.ceil(nodes_needed / columns))
    return columns, rows


def build_mesh(
    engine: Engine,
    cluster_specs: List[ClusterSpec],
    arbitration: str,
    root_link_bytes_per_ns: float,
    router_latency_ns: float,
    columns: int = 2,
) -> MeshTopology:
    """Build a mesh with one node per cluster plus the egress node at (0, 0)."""
    if not cluster_specs:
        raise ValueError("at least one cluster is required")
    columns, rows = _grid_dimensions(len(cluster_specs), columns)
    topology = MeshTopology(columns=columns, rows=rows)

    # Create every node router.  Link bandwidth: the egress node gets the wide
    # root link (it carries everything); interior nodes inherit the bandwidth
    # of the cluster they host, or the root bandwidth for pure pass-through
    # nodes, so the mesh never throttles below what the tree would.
    coordinates = [(x, y) for y in range(rows) for x in range(columns)]
    cluster_iter = iter(cluster_specs)
    placements: Dict[Coordinate, ClusterSpec] = {}
    for coordinate in coordinates:
        if coordinate == (0, 0):
            continue
        try:
            placements[coordinate] = next(cluster_iter)
        except StopIteration:
            break
    leftover = list(cluster_iter)
    if leftover:
        raise ValueError(
            f"mesh of {columns}x{rows} cannot place {len(cluster_specs)} clusters"
        )

    for coordinate in coordinates:
        spec = placements.get(coordinate)
        if coordinate == (0, 0):
            link = Link("mesh-egress-to-mc", root_link_bytes_per_ns)
        else:
            bandwidth = spec.link_bytes_per_ns if spec else root_link_bytes_per_ns
            next_hop = xy_next_hop(coordinate)
            link = Link(f"mesh-{coordinate}-to-{next_hop}", bandwidth)
        topology.nodes[coordinate] = Router(
            name=f"mesh{coordinate[0]}_{coordinate[1]}",
            engine=engine,
            arbiter=NocArbiter(arbitration),
            output_link=link,
            latency_ns=router_latency_ns,
        )

    # Wire each node's output to its XY next hop.
    for coordinate, router in topology.nodes.items():
        if coordinate == (0, 0):
            continue
        router.set_sink(topology.nodes[xy_next_hop(coordinate)].receive)

    # Attach clusters and their member cores to their node routers.
    for coordinate, spec in placements.items():
        if spec.name in topology.cluster_node:
            raise ValueError(f"duplicate cluster name '{spec.name}'")
        topology.cluster_node[spec.name] = coordinate
        for member in spec.members:
            if member in topology.cluster_of:
                raise ValueError(f"core '{member}' appears in more than one cluster")
            topology.cluster_of[member] = spec.name
    return topology
