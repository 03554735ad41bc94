"""Unit tests for transactions and transaction queues."""

from __future__ import annotations

import pytest

from repro.memctrl.queue import TransactionQueue
from repro.memctrl.transaction import QueueClass, Transaction
from repro.sim.clock import MS
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


class TestTransactionQueue:
    def test_push_and_visible_order(self):
        queue = TransactionQueue("media", visible_entries=2)
        txns = [make_txn() for _ in range(4)]
        for index, txn in enumerate(txns):
            queue.push(txn, now_ps=index * 10)
        assert len(queue) == 4
        assert queue.visible() == txns[:2]
        assert queue.peak_occupancy == 4
        assert queue.total_enqueued == 4

    def test_push_records_enqueue_time(self):
        queue = TransactionQueue("media", visible_entries=8)
        txn = make_txn()
        queue.push(txn, now_ps=777)
        assert txn.enqueued_ps == 777
        assert txn.sort_key == (777, txn.uid)

    def test_remove_middle_entry(self):
        queue = TransactionQueue("media", visible_entries=8)
        txns = [make_txn() for _ in range(3)]
        for txn in txns:
            queue.push(txn, now_ps=0)
        queue.remove(txns[1])
        assert list(queue) == [txns[0], txns[2]]

    def test_remove_unknown_raises(self):
        queue = TransactionQueue("media", visible_entries=8)
        with pytest.raises(KeyError):
            queue.remove(make_txn())

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            TransactionQueue("media", visible_entries=0)

    def test_is_empty(self):
        queue = TransactionQueue("media", visible_entries=4)
        assert queue.is_empty
        queue.push(make_txn(), now_ps=0)
        assert not queue.is_empty


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
