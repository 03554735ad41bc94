"""Network facade: the injection point cores use to reach the memory controller."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.memctrl.transaction import Transaction
from repro.noc.mesh import MeshTopology, build_mesh
from repro.noc.router import Router
from repro.noc.topology import ClusterSpec, TreeTopology, build_tree
from repro.sim.config import NocConfig
from repro.sim.engine import Engine
from repro.sim.stats import RunningMean

TransactionSink = Callable[[Transaction], None]


class Network:
    """The on-chip network connecting DMAs to the memory controller.

    Cores inject transactions via :meth:`inject`; the network routes them
    through the routers of the configured topology (the default two-level
    tree of Fig. 1, or a 2D mesh with XY routing) and finally hands each
    transaction to the memory-controller sink.  The injection point caches
    the core-to-router resolution.
    """

    def __init__(
        self,
        engine: Engine,
        cluster_specs: List[ClusterSpec],
        config: Optional[NocConfig] = None,
        root_link_bytes_per_ns: Optional[float] = None,
    ) -> None:
        self.engine = engine
        self.config = config or NocConfig()
        root_bw = root_link_bytes_per_ns or self.config.link_bytes_per_ns * 4
        self.topology: Union[TreeTopology, MeshTopology]
        if self.config.topology == "mesh":
            self.topology = build_mesh(
                engine,
                cluster_specs,
                arbitration=self.config.arbitration,
                root_link_bytes_per_ns=root_bw,
                router_latency_ns=self.config.router_latency_ns,
                columns=self.config.mesh_columns,
            )
        else:
            self.topology = build_tree(
                engine,
                cluster_specs,
                arbitration=self.config.arbitration,
                root_link_bytes_per_ns=root_bw,
                router_latency_ns=self.config.router_latency_ns,
            )
        self._sink: Optional[TransactionSink] = None
        self.topology.root.set_sink(self._deliver_to_sink)
        self.injected_packets = 0
        self.network_latency = RunningMean()
        self._cluster_cache: Dict[str, Router] = {}
        self._in_flight = 0

    def set_sink(self, sink: TransactionSink) -> None:
        """Connect the network output to the memory controller."""
        self._sink = sink

    def inject(self, core_name: str, transaction: Transaction) -> None:
        """Inject a transaction from a core into its cluster router."""
        if self._sink is None:
            raise RuntimeError("network has no sink; call set_sink() first")
        cluster = self._cluster_cache.get(core_name)
        if cluster is None:
            cluster = self.topology.cluster_for(core_name)
            self._cluster_cache[core_name] = cluster
        self.injected_packets += 1
        self._in_flight += 1
        cluster.receive(transaction)

    def _deliver_to_sink(self, transaction: Transaction) -> None:
        # A transaction is created and injected at the same timestamp (the
        # DMA issue loop injects synchronously), so created_ps IS the
        # injection time — no per-transaction timestamp map needed.
        self._in_flight -= 1
        self.network_latency.add(self.engine._now_ps - transaction.created_ps)
        sink = self._sink
        if sink is not None:
            sink(transaction)

    def in_flight(self) -> int:
        """Transactions injected but not yet delivered to the controller."""
        return self._in_flight

    def average_latency_ps(self) -> float:
        return self.network_latency.mean
