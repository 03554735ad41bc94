"""Unit tests for the on-chip network substrate."""

from __future__ import annotations

from typing import List

import pytest

from repro.memctrl.transaction import QueueClass, Transaction
from repro.noc.arbiter import NocArbiter
from repro.noc.link import Link
from repro.noc.network import Network
from repro.noc.router import Router
from repro.noc.topology import ClusterSpec, build_tree
from repro.sim.config import NocConfig
from repro.sim.engine import Engine


def make_txn(dma: str = "a.read", priority: int = 0, size: int = 1024) -> Transaction:
    return Transaction(
        source=dma.split(".")[0],
        dma=dma,
        queue_class=QueueClass.MEDIA,
        address=0,
        size_bytes=size,
        is_write=False,
        priority=priority,
    )


class TestLink:
    def test_transfer_time_scales_with_size(self):
        link = Link("l", bytes_per_ns=16.0)
        assert link.transfer_time_ps(1600) == 100_000
        assert link.transfer_time_ps(3200) == 200_000

    def test_reserve_serialises_transfers(self):
        link = Link("l", bytes_per_ns=16.0)
        first_end = link.reserve(0, 1600)
        second_end = link.reserve(0, 1600)
        assert second_end == first_end + link.transfer_time_ps(1600)
        assert link.bytes_transferred == 3200

    def test_utilisation_bounded(self):
        link = Link("l", bytes_per_ns=16.0)
        link.reserve(0, 1600)
        assert 0 < link.utilisation(1_000_000) <= 1.0

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Link("l", 0)


class TestArbiter:
    def test_priority_arbiter_prefers_urgent(self):
        arbiter = NocArbiter("priority_qos")
        low = make_txn("low", priority=1)
        high = make_txn("high", priority=6)
        assert arbiter.select([low, high], now_ps=0) is high

    def test_fcfs_arbiter_prefers_oldest(self):
        arbiter = NocArbiter("fcfs")
        old = make_txn("old")
        old.enqueued_ps = 0
        old.sort_key = (0, old.uid)
        new = make_txn("new")
        new.enqueued_ps = 100
        new.sort_key = (100, new.uid)
        assert arbiter.select([new, old], now_ps=0) is old

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            NocArbiter("fcfs").select([], now_ps=0)


class TestRouter:
    def _router(self, engine: Engine, policy: str = "priority_qos") -> Router:
        return Router(
            name="r",
            engine=engine,
            arbiter=NocArbiter(policy),
            output_link=Link("out", bytes_per_ns=16.0),
            latency_ns=5.0,
        )

    def test_forwards_packet_to_sink(self):
        engine = Engine()
        router = self._router(engine)
        delivered: List[Transaction] = []
        router.set_sink(delivered.append)
        txn = make_txn()
        router.receive(txn)
        engine.run()
        assert delivered == [txn]
        assert router.forwarded_packets == 1
        assert router.forwarded_bytes == txn.size_bytes

    def test_priority_packet_overtakes_queued_bulk(self):
        engine = Engine()
        router = self._router(engine)
        order: List[str] = []
        router.set_sink(lambda txn: order.append(txn.dma))
        router.receive(make_txn("bulk.0", priority=0))
        router.receive(make_txn("bulk.1", priority=0))
        router.receive(make_txn("bulk.2", priority=0))
        router.receive(make_txn("urgent", priority=7))
        engine.run()
        # bulk.0 was already in flight; the urgent packet must pass bulk.1/2.
        assert order.index("urgent") < order.index("bulk.1")

    def test_gate_stalls_forwarding_until_kick(self):
        engine = Engine()
        router = self._router(engine)
        delivered: List[Transaction] = []
        router.set_sink(delivered.append)
        open_gate = {"value": False}
        router.set_gate(lambda: open_gate["value"])
        router.receive(make_txn())
        engine.run()
        assert delivered == []
        assert router.stalled_attempts >= 1
        open_gate["value"] = True
        router.kick()
        engine.run()
        assert len(delivered) == 1

    def test_occupancy_counts_waiting_packets(self):
        engine = Engine()
        router = self._router(engine)
        router.set_sink(lambda txn: None)
        router.set_gate(lambda: False)
        for index in range(3):
            router.receive(make_txn(f"d{index}"))
        assert router.occupancy() == 3


class TestTopologyAndNetwork:
    def _specs(self) -> List[ClusterSpec]:
        return [
            ClusterSpec(name="media", link_bytes_per_ns=16.0, members=("display", "gpu")),
            ClusterSpec(name="system", link_bytes_per_ns=2.0, members=("usb",)),
        ]

    def test_build_tree_structure(self):
        engine = Engine()
        topology = build_tree(engine, self._specs(), "round_robin", 32.0, 5.0)
        assert set(topology.clusters) == {"media", "system"}
        assert topology.cluster_for("display").name == "media"
        assert topology.cluster_for("usb").name == "system"
        assert len(topology.routers()) == 3

    def test_unknown_core_rejected(self):
        engine = Engine()
        topology = build_tree(engine, self._specs(), "round_robin", 32.0, 5.0)
        with pytest.raises(KeyError):
            topology.cluster_for("nonexistent")

    def test_duplicate_member_rejected(self):
        engine = Engine()
        specs = [
            ClusterSpec(name="a", link_bytes_per_ns=1.0, members=("x",)),
            ClusterSpec(name="b", link_bytes_per_ns=1.0, members=("x",)),
        ]
        with pytest.raises(ValueError):
            build_tree(engine, specs, "fcfs", 32.0, 5.0)

    def test_network_delivers_to_sink_and_tracks_latency(self):
        engine = Engine()
        network = Network(engine, self._specs(), config=NocConfig(arbitration="fcfs"))
        delivered: List[Transaction] = []
        network.set_sink(delivered.append)
        txn = make_txn("display.read")
        network.inject("display", txn)
        engine.run()
        assert delivered == [txn]
        assert network.injected_packets == 1
        assert network.in_flight() == 0
        assert network.average_latency_ps() > 0

    def test_inject_without_sink_raises(self):
        engine = Engine()
        network = Network(engine, self._specs())
        with pytest.raises(RuntimeError):
            network.inject("display", make_txn())
