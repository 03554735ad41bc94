"""Unit tests for transactions and the controller's per-class queues."""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.dram.device import DramDevice
from repro.memctrl.controller import MemoryController
from repro.memctrl.scheduler import SchedulingContext, SchedulingPolicy
from repro.memctrl.transaction import QueueClass, Transaction
from repro.sim.clock import MS
from repro.sim.config import DramConfig, MemoryControllerConfig
from repro.sim.engine import Engine
from repro.system.builder import build_system


def make_txn(**overrides) -> Transaction:
    defaults = dict(
        source="dsp",
        dma="dsp.read",
        queue_class=QueueClass.DSP,
        address=0x1000,
        size_bytes=256,
        is_write=False,
    )
    defaults.update(overrides)
    return Transaction(**defaults)


class TestTransaction:
    def test_unique_ids(self):
        assert make_txn().uid != make_txn().uid

    def test_latency_requires_completion(self):
        txn = make_txn(created_ps=100)
        assert txn.latency_ps is None
        txn.completed_ps = 600
        assert txn.latency_ps == 500

    def test_waiting_time(self):
        txn = make_txn()
        assert txn.waiting_time_ps(1000) == 0
        txn.enqueued_ps = 400
        txn.sort_key = (400, txn.uid)
        assert txn.waiting_time_ps(1000) == 600

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            make_txn(size_bytes=0)

    def test_invalid_address_rejected(self):
        with pytest.raises(ValueError):
            make_txn(address=-1)

    def test_invalid_priority_rejected(self):
        with pytest.raises(ValueError):
            make_txn(priority=-2)

    def test_queue_classes_match_table1(self):
        assert {qc.value for qc in QueueClass} == {"cpu", "gpu", "dsp", "media", "system"}


class PickingPolicy(SchedulingPolicy):
    """Records every candidate list it is handed; issues ``pick`` when it is
    among them and the oldest candidate otherwise."""

    name = "picking"

    def __init__(self, pick: Optional[Transaction] = None) -> None:
        self.pick = pick
        self.handed: List[List[Transaction]] = []

    def select(
        self, candidates: List[Transaction], context: SchedulingContext
    ) -> Transaction:
        self.handed.append(list(candidates))
        return self.pick if self.pick in candidates else candidates[0]


def queue_setup(policy: SchedulingPolicy, window: Optional[int] = None):
    """A controller whose one channel is busy serving a blocker, so the
    transactions enqueued next all wait in the media queue."""
    engine = Engine()
    config = MemoryControllerConfig(scheduler_window_entries=window)
    controller = MemoryController(
        engine, DramDevice(DramConfig(channels=1)), policy, config
    )
    controller.enqueue(make_txn(queue_class=QueueClass.MEDIA))
    assert controller.pending_transactions() == 0
    return engine, controller


class TestTransactionQueue:
    def test_push_and_visible_order(self):
        policy = PickingPolicy()
        engine, controller = queue_setup(policy, window=2)
        txns = [make_txn(queue_class=QueueClass.MEDIA) for _ in range(4)]
        for txn in txns:
            controller.enqueue(txn)
        assert controller.pending_transactions() == 4
        assert controller.queue_occupancy()["media"] == 4
        engine.run()
        # The blocker's completion hands the policy the oldest two; each
        # issue then lets the next held-back arrival into the window.
        assert policy.handed[1:] == [txns[:2], txns[1:3], txns[2:], txns[3:]]
        assert controller.served_transactions == 5

    def test_remove_middle_entry(self):
        policy = PickingPolicy()
        engine, controller = queue_setup(policy)
        txns = [make_txn(queue_class=QueueClass.MEDIA) for _ in range(3)]
        policy.pick = txns[1]
        for txn in txns:
            controller.enqueue(txn)
        engine.run()
        assert policy.handed[1:] == [txns, [txns[0], txns[2]], [txns[2]]]
        assert controller.pending_transactions() == 0

    def test_invalid_window_rejected(self):
        for window in (0, -1):
            with pytest.raises(ValueError):
                MemoryController(
                    Engine(),
                    DramDevice(DramConfig()),
                    PickingPolicy(),
                    MemoryControllerConfig(scheduler_window_entries=window),
                )


class TestSimulatorTransactions:
    def test_every_completed_transaction_is_a_transaction(self):
        # The unit tests above build the very class the DMAs issue, so what
        # they pin (validation, the age key) is what the simulator runs.
        system = build_system(scenario="case_b", traffic_scale=0.2)
        completed = []
        system.controller.add_completion_listener(completed.append)
        system.run(duration_ps=MS // 4)
        assert completed
        assert {type(transaction) for transaction in completed} == {Transaction}
