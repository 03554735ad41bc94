"""Unit tests for the memory-controller front-end."""

from __future__ import annotations

from typing import List

import pytest

from repro.dram.address import AddressMapper
from repro.dram.cmdsim import CommandLevelDram
from repro.dram.device import DramDevice
from repro.memctrl.controller import BatchedMemoryController, MemoryController
from repro.memctrl.policies import make_policy
from repro.memctrl.transaction import QueueClass, Transaction
from repro.sim.clock import MS
from repro.sim.config import DramConfig, MemoryControllerConfig
from repro.sim.engine import Engine
from repro.system.builder import build_system


def make_txn(dma: str, address: int, priority: int = 0, size: int = 1024) -> Transaction:
    return Transaction(
        source=dma.split(".")[0],
        dma=dma,
        queue_class=QueueClass.MEDIA,
        address=address,
        size_bytes=size,
        is_write=False,
        priority=priority,
    )


@pytest.fixture
def controller_setup():
    engine = Engine()
    dram = DramDevice(DramConfig())
    controller = MemoryController(engine, dram, make_policy("fcfs"))
    return engine, dram, controller


class TestMemoryController:
    def test_transaction_completes_and_notifies_dma(self, controller_setup):
        engine, _, controller = controller_setup
        completions: List[Transaction] = []
        controller.register_dma("display.read", completions.append)
        txn = make_txn("display.read", address=0)
        controller.enqueue(txn)
        engine.run()
        assert completions == [txn]
        assert txn.completed_ps is not None
        assert txn.issued_ps is not None
        assert txn.completed_ps > txn.issued_ps
        assert controller.served_transactions == 1
        assert controller.served_bytes == 1024

    def test_unregistered_dma_does_not_break_completion(self, controller_setup):
        engine, _, controller = controller_setup
        controller.enqueue(make_txn("unknown.dma", address=0))
        engine.run()
        assert controller.served_transactions == 1

    def test_global_listener_sees_all_completions(self, controller_setup):
        engine, _, controller = controller_setup
        seen = []
        controller.add_completion_listener(lambda txn: seen.append(txn.uid))
        for index in range(5):
            controller.enqueue(make_txn("a.read", address=index * 4096))
        engine.run()
        assert len(seen) == 5

    def test_duplicate_dma_registration_rejected(self, controller_setup):
        _, _, controller = controller_setup
        controller.register_dma("a", lambda txn: None)
        with pytest.raises(ValueError):
            controller.register_dma("a", lambda txn: None)

    def test_priority_policy_reorders_pending_transactions(self):
        engine = Engine()
        dram = DramDevice(DramConfig())
        controller = MemoryController(engine, dram, make_policy("priority_qos"))
        order: List[str] = []
        controller.add_completion_listener(lambda txn: order.append(txn.dma))
        # All transactions target the same channel so they compete for one bus.
        base = 0
        controller.enqueue(make_txn("bulk.0", address=base, priority=0))
        controller.enqueue(make_txn("bulk.1", address=base + 1024, priority=0))
        controller.enqueue(make_txn("bulk.2", address=base + 2048, priority=0))
        controller.enqueue(make_txn("urgent", address=base + 3072, priority=7))
        engine.run()
        # The first transaction was already issued when the urgent one arrived,
        # but the urgent one must overtake the remaining low-priority ones.
        assert order.index("urgent") < order.index("bulk.1")

    def test_has_space_reflects_total_entries(self):
        engine = Engine()
        dram = DramDevice(DramConfig())
        config = MemoryControllerConfig(total_entries=4)
        controller = MemoryController(engine, dram, make_policy("fcfs"), config)
        assert controller.has_space()
        for index in range(6):
            controller.enqueue(make_txn("a.read", address=index * (1 << 24)))
        # More transactions are pending than entries (one is in service).
        assert controller.pending_transactions() >= 4
        assert not controller.has_space()
        engine.run()
        assert controller.has_space()

    def test_space_listener_called_on_completion(self, controller_setup):
        engine, _, controller = controller_setup
        calls = []
        controller.add_space_listener(lambda: calls.append(engine.now_ps))
        controller.enqueue(make_txn("a.read", address=0))
        engine.run()
        assert len(calls) == 1

    def test_average_latency_positive_after_service(self, controller_setup):
        engine, _, controller = controller_setup
        controller.enqueue(make_txn("a.read", address=0))
        engine.run()
        assert controller.average_latency_ps() > 0

    def test_per_source_accounting(self, controller_setup):
        engine, _, controller = controller_setup
        controller.enqueue(make_txn("display.read", address=0))
        controller.enqueue(make_txn("display.read", address=1024))
        controller.enqueue(make_txn("gpu.read", address=1 << 24))
        engine.run()
        assert controller.per_source_served["display"] == 2
        assert controller.per_source_bytes["gpu"] == 1024

    def test_queue_occupancy_reporting(self, controller_setup):
        _, _, controller = controller_setup
        controller.enqueue(make_txn("a.read", address=0))
        occupancy = controller.queue_occupancy()
        assert set(occupancy) == {"cpu", "gpu", "dsp", "media", "system"}


class TestAddressMapping:
    def test_queue_based_controller_locates_each_transaction_once(self, monkeypatch):
        # The channel filter, the row-hit probes (priority_rowbuffer probes
        # every candidate) and the issue all read the coordinates mapped at
        # enqueue.
        calls = {"locate": 0, "enqueue": 0}
        locate = AddressMapper.locate
        enqueue = MemoryController.enqueue

        def counting_locate(mapper, address):
            calls["locate"] += 1
            return locate(mapper, address)

        def counting_enqueue(controller, transaction):
            calls["enqueue"] += 1
            enqueue(controller, transaction)

        monkeypatch.setattr(AddressMapper, "locate", counting_locate)
        monkeypatch.setattr(MemoryController, "enqueue", counting_enqueue)
        system = build_system(
            scenario="case_b",
            policy="priority_rowbuffer",
            traffic_scale=0.2,
            dram_model="command",
        )
        assert type(system.controller) is MemoryController
        system.run(duration_ps=MS // 4)
        assert system.controller.served_transactions > 0
        assert calls["locate"] == calls["enqueue"]


class TestColumnarControllerGuards:
    def test_refuses_the_command_level_device(self):
        with pytest.raises(ValueError, match="transaction-level DRAM device"):
            BatchedMemoryController(
                Engine(), CommandLevelDram(DramConfig()), make_policy("fcfs")
            )

    def test_refuses_a_bounded_scheduler_window(self):
        config = MemoryControllerConfig(scheduler_window_entries=16)
        with pytest.raises(ValueError, match="unbounded scheduler window"):
            BatchedMemoryController(
                Engine(), DramDevice(DramConfig()), make_policy("fcfs"), config
            )
