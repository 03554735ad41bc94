"""Reference 3: the queue-based memory controller.

:class:`~repro.memctrl.controller.MemoryController` keeps its candidates in
columnar stores, decides through the policy's selector where one exists,
bypasses the store when a channel is idle and empty, and its row-aware
selectors read the DRAM channels' ``open_rows`` lists.  The reference below
keeps what it shares with that controller (registration, back-pressure, the
window size, the occupancy counters and the completion path) and replaces
how candidates are held and chosen: an insertion-ordered dict per channel
and queue class, a candidate list rebuilt for every decision, every
decision made by the policy's own ``select()``, and row-hit probes that ask
the DRAM banks (:meth:`~repro.dram.device.DramDevice.is_row_hit`).

``tests/test_sim_golden.py`` installs it by patching ``MemoryController``
in ``repro.system.builder`` and requires equal full results;
``tests/test_memctrl_controller.py`` checks its decisions, and the
production controller's, against generated arrival histories.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.dram.device import DramDevice
from repro.memctrl.controller import MemoryController
from repro.memctrl.scheduler import SchedulingContext, SchedulingPolicy
from repro.memctrl.transaction import QueueClass, Transaction
from repro.sim.config import MemoryControllerConfig
from repro.sim.engine import Engine


class QueueController(MemoryController):
    """A candidate index per channel and class, FIFOs beyond the window.

    Per channel, an insertion-ordered dict per :class:`QueueClass` holds the
    transactions the scheduler may see; per class, one FIFO holds the
    arrivals beyond the window.  An arrival joins its channel's index while
    its class holds fewer than W pending transactions and waits in the FIFO
    otherwise; each issue moves the oldest waiting transaction of the issued
    class into its own channel's index, and schedules no channel.  Each
    address is mapped once, at enqueue, to ``(channel, bank slot, row)``.
    """

    def __init__(
        self,
        engine: Engine,
        dram: DramDevice,
        policy: SchedulingPolicy,
        config: Optional[MemoryControllerConfig] = None,
    ) -> None:
        super().__init__(engine, dram, policy, config)
        self._visible: List[Dict[QueueClass, Dict[int, Transaction]]] = [
            {queue_class: {} for queue_class in QueueClass}
            for _ in range(dram.config.channels)
        ]
        self._waiting: Dict[QueueClass, Deque[Transaction]] = {
            queue_class: deque() for queue_class in QueueClass
        }
        #: ``(channel, bank_slot, row)`` of each pending transaction, by uid.
        self._coordinates: Dict[int, Tuple[int, int, int]] = {}

    def enqueue(self, transaction: Transaction) -> None:
        now = self.engine._now_ps
        # Whoever sets enqueued_ps sets the age key too (see Transaction).
        transaction.enqueued_ps = now
        transaction.sort_key = (now, transaction.uid)
        queue_class = transaction.queue_class
        channel, bank_slot, row, _ = self._locate(transaction.address)
        self._coordinates[transaction.uid] = (channel, bank_slot, row)
        if self._class_occupancy[queue_class] < self._window:
            self._visible[channel][queue_class][transaction.uid] = transaction
        else:
            self._waiting[queue_class].append(transaction)
        self._class_occupancy[queue_class] += 1
        self._pending_count += 1
        if not self._channel_busy[channel]:
            self._schedule_from(channel)

    def _is_row_hit(self, transaction: Transaction) -> bool:
        return self.dram.is_row_hit(*self._coordinates[transaction.uid])

    def _schedule_from(self, channel: int) -> None:
        visible = self._visible[channel]
        candidates: List[Transaction] = []
        for bucket in visible.values():
            candidates.extend(bucket.values())
        if not candidates:
            return
        now = self.engine._now_ps
        context = SchedulingContext(
            now_ps=now,
            is_row_hit=self._is_row_hit,
            aging=self.aging,
            row_buffer_delta=self.config.row_buffer_delta,
        )
        chosen = self.policy.select(candidates, context)
        queue_class = chosen.queue_class
        del visible[queue_class][chosen.uid]
        self._class_occupancy[queue_class] -= 1
        self._pending_count -= 1
        coordinates = self._coordinates
        waiting = self._waiting[queue_class]
        if waiting:
            promoted = waiting.popleft()
            promoted_channel = coordinates[promoted.uid][0]
            self._visible[promoted_channel][queue_class][promoted.uid] = promoted

        _, bank_slot, row = coordinates.pop(chosen.uid)
        chosen.issued_ps = now
        _, completion_ps, row_hit = self.dram.service(
            channel, bank_slot, row, chosen.size_bytes, chosen.is_write, now
        )
        chosen.row_hit = row_hit
        chosen.completed_ps = completion_ps
        self._channel_busy[channel] = True
        self.engine.schedule_call(completion_ps, self._on_complete, (chosen, channel))
