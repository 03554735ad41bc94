"""Edge cases of the simulator's batched and columnar structures.

Whole-run results are pinned by ``tests/test_sim_golden.py``; this module
pins the edge cases the batched structures introduce:

* engine event ordering around same-timestamp buckets: empty (all-tombstone)
  buckets, single-entry buckets, tombstone compaction interleaved with
  bucketed batches, and horizon put-back;
* columnar-store tombstone compaction interleaved with further pushes;
* a router store fed in reverse age order: it keeps age order, and every
  selector picks what its policy's ``select()`` picks;
* NPI meter saturation at batch boundaries (the one
  ``PerformanceMeter.record_completion`` path must validate before it
  counts, and ``npi()`` must clamp at the cap and floor);
* ``serve_direct`` empty-idle bypass state parity (round-robin rotation,
  priority turns, aging accounting).
"""

from __future__ import annotations

import pytest

from repro.core.npi import (
    NPI_CAP,
    NPI_FLOOR,
    BandwidthMeter,
    FrameProgressMeter,
    LatencyMeter,
)
from repro.memctrl.aging import AgingTracker
from repro.memctrl.columnar import ColumnarStore, make_selector
from repro.memctrl.policies import (
    FcfsPolicy,
    PriorityQosPolicy,
    RoundRobinPolicy,
    make_policy,
)
from repro.memctrl.transaction import QueueClass, Transaction
from repro.noc.arbiter import NocArbiter
from repro.sim.clock import MS
from repro.sim.engine import COMPACT_MIN_TOMBSTONES, Engine


def _scripted_engine(engine_cls=Engine):
    """An engine loaded with the bucket/heap merge edge cases.

    Returns the engine and the list its callbacks append ``(tag, now_ps)``
    to as they fire.
    """
    engine = engine_cls()
    fired = []

    def note(tag):
        fired.append((tag, engine.now_ps))

    def burst(tag, count):
        # Same-timestamp batch: live bucket entries interleaved with
        # tombstones, plus a handle-free schedule_call entry.
        events = [engine.schedule(0, note, f"{tag}/bucket{i}") for i in range(count)]
        for event in events[::2]:
            event.cancel()
        engine.schedule_call(engine.now_ps, note, (f"{tag}/call",))

    def empty_bucket(tag):
        # The bucket becomes all tombstones: the engine must skip them and
        # advance time without firing anything at this timestamp.
        for _ in range(2):
            engine.schedule(0, note, f"{tag}/dead").cancel()
        note(tag)

    def single_entry_bucket(tag):
        engine.schedule(0, note, f"{tag}/only")
        note(tag)

    engine.schedule_at(10, note, "heap-first")
    engine.schedule_at(10, burst, "burst", 4)
    engine.schedule_at(15, note, "doomed").cancel()
    engine.schedule_at(20, empty_bucket, "empty")
    engine.schedule_at(22, single_entry_bucket, "single")
    engine.schedule_at(30, note, "after-horizon")
    return engine, fired


class TestEngineEdgeCases:
    @pytest.mark.parametrize("engine_cls", [Engine])
    def test_scripted_order_is_the_documented_one(self, engine_cls):
        engine, fired = _scripted_engine(engine_cls)
        first = engine.run(until_ps=25)  # 30 is put back for later
        second = engine.run(until_ps=100)
        assert [tag for tag, _ in fired] == [
            "heap-first",  # smaller sequence at t=10 fires before the burst
            "burst/bucket1",  # bucket FIFO order, tombstones skipped
            "burst/bucket3",
            "burst/call",
            "empty",  # the all-tombstone bucket fires nothing extra
            "single",
            "single/only",  # a one-entry bucket drains before time advances
            "after-horizon",
        ]
        assert [time_ps for _, time_ps in fired] == [10, 10, 10, 10, 20, 22, 22, 30]
        # 9 events executed in all: the 8 notes above plus the un-noted
        # `burst` callback itself; only "after-horizon" runs in the second
        # call.
        assert (first, second) == (8, 1)
        assert engine.fired_events == 9
        assert engine.now_ps == 100  # clock advances to the horizon after draining
        assert engine.pending_events == 0
        assert engine.cancelled_pending == 0

    def test_tombstone_compaction_interleaved_with_bucket_batch(self):
        engine = Engine()
        fired = []
        engine.schedule_at(0, fired.append, "bucket-live")  # t == now: bucket
        keeper = engine.schedule_at(50, fired.append, "keep")
        doomed = [
            engine.schedule_at(40, fired.append, f"dead{i}")
            for i in range(COMPACT_MIN_TOMBSTONES + 10)
        ]
        for event in doomed:
            event.cancel()
        # The 64th cancel crossed the compaction trigger and drained the heap
        # in place (live entries, bucket included, untouched); the 10 cancels
        # after it sit below the floor and stay as tombstones.
        assert engine.cancelled_pending == 10
        assert engine.pending_events == 12  # 2 live + 10 tombstones, not 76
        engine.run()
        assert fired == ["bucket-live", "keep"]
        assert keeper.cancelled is False
        assert engine.fired_events == 2
        assert engine.cancelled_pending == 0


def _txn(
    dma: str = "dma0",
    queue_class: QueueClass = QueueClass.CPU,
    priority: int = 0,
    created_ps: int = 0,
    behind: bool = False,
) -> Transaction:
    return Transaction(
        "core0", dma, queue_class, 0x1000, 64, False, priority, behind, created_ps
    )


def _store_for(selector) -> ColumnarStore:
    return ColumnarStore.for_selector(selector, codebook={}, track_rows=False)


class TestColumnarCompaction:
    def test_compaction_interleaves_with_batched_pushes(self):
        selector = make_selector(FcfsPolicy())
        store = _store_for(selector)
        first_batch = [_txn(created_ps=t) for t in range(100)]
        for txn in first_batch:
            store.push(txn)
        # Drain most of the first batch: crossing _COMPACT_SLACK dead entries
        # must compact in place without disturbing FIFO order.
        for _ in range(90):
            store.remove_index(selector.select(store, now_ps=1000))
        # The 65th removal crossed _COMPACT_SLACK dead entries and rebased
        # the columns to the 35 then-live entries; the 25 removals after it
        # advanced the head over a fresh dead prefix without re-compacting.
        assert store.size == 35
        assert store.head == 25
        assert store.live == 10
        # A second batch lands after compaction; the drain order must still
        # be global FIFO over survivors + newcomers.
        second_batch = [_txn(created_ps=200 + t) for t in range(5)]
        for txn in second_batch:
            store.push(txn)
        drained = []
        while store.live:
            index = selector.select(store, now_ps=2000)
            drained.append(store.objs[index].uid)
            store.remove_index(index)
        expected = [txn.uid for txn in first_batch[90:] + second_batch]
        assert drained == expected

    def test_empty_and_single_candidate_windows(self):
        selector = make_selector(FcfsPolicy())
        store = _store_for(selector)
        assert store.live == 0  # empty bucket: nothing to select
        only = _txn(created_ps=7)
        store.push(only)
        index = selector.select(store, now_ps=100)
        assert store.objs[index] is only  # single-candidate fast path
        store.remove_index(index)
        assert store.live == 0
        assert store.head == store.size


class TestAgeOrderedStore:
    @pytest.mark.parametrize(
        "policy_name",
        ["fcfs", "fr_fcfs", "frame_rate_qos", "priority_qos", "priority_rowbuffer", "round_robin"],
    )
    def test_reverse_age_order_router_store(self, policy_name):
        # A router store (no row state, no aging) fed newest first, as an
        # interior router merging a slow link behind a fast one can be.
        arbiter = NocArbiter(make_policy(policy_name))
        selector = make_selector(arbiter.policy)
        store = _store_for(selector)
        classes = list(QueueClass)
        newest_first = [
            _txn(
                dma=f"dma{i % 5}",
                queue_class=classes[i % len(classes)],
                priority=(3 * i) % 8,
                created_ps=1000 - 10 * i,
                behind=i % 3 == 0,
            )
            for i in range(100)
        ]
        for count, txn in enumerate(newest_first):
            # Each arrival is older than every candidate already stored.
            assert store.push(txn) == store.head
            assert store.live == count + 1
        reference = NocArbiter(make_policy(policy_name))
        live = sorted(newest_first, key=lambda txn: txn.sort_key)
        while live:
            assert store.fallback_candidates() == live
            index = selector.select(store, now_ps=2000)
            assert store.objs[index] is reference.select(list(live), 2000)
            live.remove(store.objs[index])
            store.remove_index(index)
        assert store.size < len(newest_first)  # compaction ran mid-drain


class TestMeterSaturation:
    """Every meter's completion path at batch boundaries."""

    def test_latency_meter_clamps_at_cap_and_floor(self):
        meter = LatencyMeter(limit_ps=1000, window_ps=MS)
        # Saturated-high: no completions in the window => healthy by
        # definition, clamped at the cap.
        assert meter.raw_npi(0) == NPI_CAP
        assert meter.npi(0) == NPI_CAP
        # A batch of pathologically slow completions at one timestamp drives
        # the raw value far below the floor; npi() must clamp, raw must not.
        for _ in range(8):
            meter.record_completion(64, 10**9, now_ps=500)
        assert meter.raw_npi(500) < NPI_FLOOR
        assert meter.npi(500) == NPI_FLOOR
        assert meter.completed_transactions == 8
        assert meter.completed_bytes == 8 * 64

    def test_bandwidth_meter_keeps_base_class_validation(self):
        meter = BandwidthMeter(target_bytes_per_s=1e9)
        with pytest.raises(ValueError, match="size_bytes"):
            meter.record_completion(0, 10, now_ps=0)
        with pytest.raises(ValueError, match="latency_ps"):
            meter.record_completion(64, -1, now_ps=0)
        # Rejected completions must not have leaked into the counters.
        assert meter.completed_transactions == 0
        assert meter.completed_bytes == 0

    def test_frame_meter_rolls_exactly_at_the_batch_boundary(self):
        meter = FrameProgressMeter(bytes_per_frame=128, frame_period_ps=1000)
        # Fill frame 0 with a same-timestamp batch ending exactly at the
        # frame boundary: completions at t=999 belong to frame 0, the next
        # batch at t=1000 must roll into frame 1 first.
        meter.record_completion(64, 10, now_ps=999)
        meter.record_completion(64, 10, now_ps=999)
        meter.record_completion(64, 10, now_ps=1000)
        assert meter.frames_completed == 1
        assert meter.frames_missed == 0
        assert meter._frame_bytes == 64  # the boundary batch opened frame 1
        # An under-filled frame rolled over counts as missed.
        meter.record_completion(32, 10, now_ps=2500)
        assert meter.frames_missed == 1


class TestServeDirectBypass:
    """serve_direct must equal push + select + remove on an empty store."""

    def _select_path(self, policy, txn, now_ps, aging=None):
        selector = make_selector(policy, aging=aging)
        store = _store_for(selector)
        store.push(txn)
        index = selector.select(store, now_ps)
        assert store.objs[index] is txn
        store.remove_index(index)
        return selector, store

    def _direct_path(self, policy, txn, now_ps, aging=None):
        selector = make_selector(policy, aging=aging)
        store = _store_for(selector)
        assert selector.serve_direct(store, txn, now_ps) is True
        return selector, store

    def test_round_robin_rotation_matches_select_path(self):
        for queue_class in QueueClass:
            txn_a = _txn(queue_class=queue_class)
            via_select, _ = self._select_path(RoundRobinPolicy(), txn_a, 100)
            txn_b = _txn(queue_class=queue_class)
            via_direct, _ = self._direct_path(RoundRobinPolicy(), txn_b, 100)
            assert (
                via_direct.policy._next_class_index
                == via_select.policy._next_class_index
            )

    def test_priority_turns_and_codebook_match_select_path(self):
        def serve_three(path):
            selector = make_selector(PriorityQosPolicy())
            store = _store_for(selector)
            for dma in ("dma_a", "dma_b", "dma_a"):
                txn = _txn(dma=dma, priority=3)
                if path == "select":
                    store.push(txn)
                    store.remove_index(selector.select(store, now_ps=100))
                else:
                    assert selector.serve_direct(store, txn, now_ps=100)
            return selector.turn, list(selector.turns), dict(store.codebook)

        assert serve_three("select") == serve_three("direct")

    def test_priority_aging_is_accounted_on_bypass(self):
        aging = AgingTracker(threshold_cycles=10, clock_period_ps=10)
        now_ps = 1000
        aged = _txn(created_ps=now_ps - aging.threshold_ps)
        selector, _ = self._direct_path(PriorityQosPolicy(), aged, now_ps, aging=aging)
        assert selector.aging is aging
        assert aging.aged_served == 1
        # A fresh transaction must not trip the aging counter.
        fresh = _txn(created_ps=now_ps)
        self._direct_path(PriorityQosPolicy(), fresh, now_ps, aging=aging)
        assert aging.aged_served == 1
