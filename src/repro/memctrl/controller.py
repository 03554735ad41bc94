"""The memory-controller front-end driving the DRAM device."""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.dram.device import DramDevice
from repro.memctrl.aging import AgingTracker
from repro.memctrl.columnar import ColumnarStore, make_selector
from repro.memctrl.scheduler import SchedulingContext, SchedulingPolicy
from repro.memctrl.transaction import QueueClass, Transaction
from repro.sim.config import MemoryControllerConfig
from repro.sim.engine import Engine
from repro.sim.stats import RunningMean

CompletionHandler = Callable[[Transaction], None]


class MemoryController:
    """The memory controller: a columnar candidate store per DRAM channel.

    This is the controller :func:`~repro.system.builder.build_system`
    builds, on either DRAM backend and for any scheduler window.  Each DRAM
    channel is scheduled independently.  A channel schedules when a
    transaction arrives for it while it is idle, and when its own
    transaction completes: the controller chooses among the visible
    transactions destined to that channel and issues the winner.
    Completions are delivered to per-DMA handlers registered by the system
    builder, which is how read data and write acknowledgements find their
    way back to the cores' performance meters.

    The per-channel candidate sets live in
    :class:`~repro.memctrl.columnar.ColumnarStore` columns, so scheduling
    decisions are selector reductions.  Each address is mapped once, at
    enqueue, to ``(channel, bank slot, row)``; the store keeps the slot and
    row in its columns and issue hands them to the DRAM device as they are.
    Row-buffer-aware selectors read each DRAM channel's own ``open_rows``
    list, which the channel writes on every access and a command-level
    refresh resets.

    The scheduler window (``scheduler_window_entries``, W) bounds how many
    pending transactions per queue class the policy may reorder among.  An
    arrival whose queue class already holds W pending transactions waits,
    with its mapped coordinates, in a per-class FIFO, and each issue pushes
    the oldest waiting arrival of the issued class into its own channel's
    store without scheduling that channel.  Every waiting transaction of a
    class arrived after every visible one, so a channel's candidates are
    the first W pending transactions of each class, restricted to the
    channel.

    Policies without a selector (ATLAS, TCM, SMS, EDF, user-registered
    ones) receive the candidate list grouped by queue class in
    :class:`QueueClass` order, oldest first within a class; a row-hit probe
    on that path maps the candidate's address again, since the stores
    index by position.

    Its queue-based reference, a subclass in ``tests/queue_reference.py``,
    holds and chooses candidates its own way; ``tests/test_sim_golden.py``
    swaps it in and requires results equal to this controller's.
    """

    def __init__(
        self,
        engine: Engine,
        dram: DramDevice,
        policy: SchedulingPolicy,
        config: Optional[MemoryControllerConfig] = None,
    ) -> None:
        self.engine = engine
        self.dram = dram
        self.policy = policy
        self.config = config or MemoryControllerConfig()
        # Incrementally maintained count of queued transactions; has_space()
        # runs on every NoC forward attempt, so it must not sum queue lengths.
        self._pending_count = 0
        self._class_occupancy: Dict[QueueClass, int] = {
            queue_class: 0 for queue_class in QueueClass
        }
        # The scheduler window W: pending transactions per queue class the
        # policy may reorder among.  By default it is unbounded and nothing
        # is held back: the controller is work-conserving over everything
        # the DMAs' outstanding-request windows allow in flight, which stands
        # in for the credit-based flow control a real front-end uses to keep
        # its 42 entries fed with the most urgent traffic.
        window = self.config.scheduler_window_entries
        self._window = math.inf if window is None else window
        self.aging = AgingTracker(
            self.config.aging_threshold_cycles, dram.timing.clock_period_ps
        )
        self._channel_busy: List[bool] = [False] * dram.config.channels
        self._locate = dram.mapper.locate
        self._completion_handlers: Dict[str, CompletionHandler] = {}
        self._global_handlers: List[CompletionHandler] = []
        self._space_listeners: List[Callable[[], None]] = []

        self.served_transactions = 0
        self.served_bytes = 0
        self.latency_stats = RunningMean()
        self.per_source_bytes: Dict[str, int] = {}
        self.per_source_served: Dict[str, int] = {}

        #: Arrivals beyond the window per class, oldest first, each with its
        #: ``(channel, bank_slot, row)``; empty while the window is unbounded.
        self._waiting: Dict[QueueClass, Deque[Tuple[Transaction, int, int, int]]] = {
            queue_class: deque() for queue_class in QueueClass
        }
        self._codebook: Dict[str, int] = {}
        self._selector = make_selector(
            policy,
            aging=self.aging,
            row_buffer_delta=self.config.row_buffer_delta,
            open_rows=[channel.open_rows for channel in dram.channels],
        )
        self._stores = [
            ColumnarStore.for_selector(self._selector, self._codebook, track_rows=True)
            for _ in range(dram.config.channels)
        ]
        self._serve_direct = getattr(self._selector, "serve_direct", None)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register_dma(self, dma_name: str, handler: CompletionHandler) -> None:
        """Route completions of transactions issued by ``dma_name`` to a handler."""
        if dma_name in self._completion_handlers:
            raise ValueError(f"DMA '{dma_name}' is already registered")
        self._completion_handlers[dma_name] = handler

    def add_completion_listener(self, handler: CompletionHandler) -> None:
        """Add a handler invoked for every completed transaction."""
        self._global_handlers.append(handler)

    def add_space_listener(self, handler: Callable[[], None]) -> None:
        """Register a callback fired whenever a controller entry frees up.

        The NoC uses this for back-pressure: the root router stalls while the
        controller's entries (42 in Table 1) are occupied and resumes — with a
        fresh priority arbitration — as soon as space becomes available.
        """
        self._space_listeners.append(handler)

    def has_space(self) -> bool:
        """Whether the front-end can accept another transaction right now."""
        return self._pending_count < self.config.total_entries

    # ------------------------------------------------------------------ #
    # Transaction flow
    # ------------------------------------------------------------------ #
    def enqueue(self, transaction: Transaction) -> None:
        """Accept a transaction from the NoC into its channel's store, or
        into its class's FIFO when the class already fills the window.

        The address is mapped once, to ``(channel, bank slot, row)``
        integers (:meth:`~repro.dram.address.AddressMapper.locate`); the
        store (or the FIFO) keeps them, and issue hands the slot and row to
        :meth:`~repro.dram.device.DramDevice.service` as they are.
        """
        now = self.engine._now_ps
        # Whoever sets enqueued_ps sets the age key too (see Transaction).
        transaction.enqueued_ps = now
        transaction.sort_key = (now, transaction.uid)
        channel, bank_slot, row, _ = self._locate(transaction.address)
        queue_class = transaction.queue_class
        if self._class_occupancy[queue_class] >= self._window:
            # Held back beyond the window; its idle channel still schedules
            # below, among the candidates it already holds.
            self._waiting[queue_class].append((transaction, channel, bank_slot, row))
        else:
            store = self._stores[channel]
            serve_direct = self._serve_direct
            if serve_direct is not None and not store.live and not self._channel_busy[channel]:
                # Empty-idle bypass: an idle channel with an empty store
                # issues the arriving transaction immediately, so the store
                # round-trip (and the transient occupancy counts, net zero
                # within this synchronous call) can be skipped; only the
                # selector's policy state is committed.  A visible arrival
                # means its class's FIFO is empty, so there is nothing to
                # promote either.  This is _schedule_from's issue tail with
                # the mapped coordinates used directly.
                if serve_direct(store, transaction, now, channel, bank_slot, row):
                    transaction.issued_ps = now
                    _, completion_ps, row_hit = self.dram.service(
                        channel,
                        bank_slot,
                        row,
                        transaction.size_bytes,
                        transaction.is_write,
                        now,
                    )
                    transaction.row_hit = row_hit
                    transaction.completed_ps = completion_ps
                    self._channel_busy[channel] = True
                    self.engine.schedule_call(
                        completion_ps, self._on_complete, (transaction, channel)
                    )
                    return
            store.push(transaction, bank_slot, row)
        self._class_occupancy[queue_class] += 1
        self._pending_count += 1
        if not self._channel_busy[channel]:
            self._schedule_from(channel)

    def pending_transactions(self) -> int:
        """Total transactions waiting in all class queues."""
        return self._pending_count

    def _is_row_hit(self, transaction: Transaction) -> bool:
        channel, bank_slot, row, _ = self._locate(transaction.address)
        return self.dram.is_row_hit(channel, bank_slot, row)

    def _schedule_from(self, channel: int) -> None:
        """Pick, dequeue and issue the next transaction for an idle channel."""
        store = self._stores[channel]
        if not store.live:
            return
        now = self.engine._now_ps
        selector = self._selector
        if selector is not None:
            index = selector.select(store, now, channel)
            chosen = store.objs[index]
        else:
            context = SchedulingContext(
                now_ps=now,
                is_row_hit=self._is_row_hit,
                aging=self.aging,
                row_buffer_delta=self.config.row_buffer_delta,
            )
            chosen = self.policy.select(store.fallback_candidates_by_class(), context)
            index = store.index_of_uid(chosen.uid)
        bank_slot = store.bank[index]
        row = store.row[index]
        store.remove_index(index)
        queue_class = chosen.queue_class
        self._class_occupancy[queue_class] -= 1
        self._pending_count -= 1
        waiting = self._waiting[queue_class]
        if waiting:
            # The class's oldest held-back arrival enters the window on its
            # own channel; that channel is not scheduled here.
            promoted, promoted_channel, promoted_slot, promoted_row = waiting.popleft()
            self._stores[promoted_channel].push(promoted, promoted_slot, promoted_row)

        chosen.issued_ps = now
        _, completion_ps, row_hit = self.dram.service(
            channel, bank_slot, row, chosen.size_bytes, chosen.is_write, now
        )
        chosen.row_hit = row_hit
        chosen.completed_ps = completion_ps
        self._channel_busy[channel] = True
        # Completions are never cancelled; skip the Event handle.
        self.engine.schedule_call(completion_ps, self._on_complete, (chosen, channel))

    def _on_complete(self, transaction: Transaction, channel: int) -> None:
        self._channel_busy[channel] = False
        size = transaction.size_bytes
        source = transaction.source
        self.served_transactions += 1
        self.served_bytes += size
        per_bytes = self.per_source_bytes
        per_bytes[source] = per_bytes.get(source, 0) + size
        per_served = self.per_source_served
        per_served[source] = per_served.get(source, 0) + 1
        # completed_ps is always stamped at issue; RunningMean.add is inlined
        # (one call per completion on the hottest chain).
        latency = transaction.completed_ps - transaction.created_ps
        stats = self.latency_stats
        stats.count += 1
        stats.total += latency
        if stats.minimum is None or latency < stats.minimum:
            stats.minimum = latency
        if stats.maximum is None or latency > stats.maximum:
            stats.maximum = latency

        handler = self._completion_handlers.get(transaction.dma)
        if handler is not None:
            handler(transaction)
        for listener in self._global_handlers:
            listener(transaction)
        self._schedule_from(channel)
        for space_listener in self._space_listeners:
            space_listener()

    # ------------------------------------------------------------------ #
    # Reporting helpers
    # ------------------------------------------------------------------ #
    def average_latency_ps(self) -> float:
        return self.latency_stats.mean

    def queue_occupancy(self) -> Dict[str, int]:
        """Pending transactions per queue class, held-back ones included."""
        return {
            queue_class.value: count
            for queue_class, count in self._class_occupancy.items()
        }
