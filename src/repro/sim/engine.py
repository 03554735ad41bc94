"""Discrete-event simulation engine.

The engine keeps a binary heap of ``(time_ps, sequence, callback, args,
event)`` entries ordered by ``(time_ps, sequence)``.  Components schedule
callbacks; the engine fires them in timestamp order until a time horizon is
reached or the queue drains.

Three hot-path shortcuts keep per-event overhead low under heavy sweeps:

* Events scheduled for the *current* timestamp (``delay_ps == 0`` bursts,
  completion cascades) bypass the heap entirely and go into a FIFO bucket.
  Sequence numbers guarantee that anything already on the heap for the same
  timestamp still fires first, so execution order is identical to the pure
  heap — just without an O(log n) push/pop per event.
* :meth:`Engine.schedule_call` queues a bare callback without allocating an
  :class:`Event` handle at all (the ``event`` slot of its entry is ``None``).
  Fire-and-forget hot paths — link deliveries, DRAM completions — use it;
  anything that might be cancelled must go through :meth:`Engine.schedule_at`.
* Cancelled events leave a tombstone on the heap that is skipped when popped
  — cheaper and simpler than heap surgery.  The engine counts live
  tombstones and compacts the heap in place once they exceed both a fixed
  floor and half of the queue, so a workload that cancels heavily cannot
  bloat the heap indefinitely.

Entries never tie on ``(time_ps, sequence)`` (sequences are unique), so heap
sifting compares plain integers only and the trailing tuple elements never
participate in comparisons.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional

#: Compaction never triggers below this many tombstones (a small heap is
#: cheap to carry and compacting it would thrash).
COMPACT_MIN_TOMBSTONES = 64


class Event:
    """A cancellable handle to a scheduled callback.

    Only :meth:`Engine.schedule_at` / :meth:`Engine.schedule` allocate these;
    the handle exists so callers can :meth:`cancel` before the fire time.
    """

    __slots__ = ("time_ps", "sequence", "callback", "args", "cancelled", "engine")

    def __init__(
        self,
        time_ps: int,
        sequence: int,
        callback: Callable[..., None],
        args: tuple,
        engine: Optional["Engine"] = None,
    ) -> None:
        self.time_ps = time_ps
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.engine = engine

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it reaches the heap top."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.engine is not None:
            self.engine._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time_ps, self.sequence) < (other.time_ps, other.sequence)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time_ps}ps, seq={self.sequence}, {state})"


class Engine:
    """Event-driven simulation kernel with integer-picosecond time."""

    def __init__(self) -> None:
        # Both containers hold (time_ps, sequence, callback, args, event)
        # tuples; ``event`` is None for schedule_call entries.
        self._queue: List[tuple] = []
        # Entries scheduled for exactly the current timestamp.  Invariant:
        # every entry in the bucket has ``time_ps == self._now_ps`` — time
        # only advances once the bucket is empty, because a bucket entry
        # always sorts before any heap entry at a later time.
        self._bucket: Deque[tuple] = deque()
        self._now_ps: int = 0
        self._sequence: int = 0
        self._fired: int = 0
        self._cancelled: int = 0
        self._running = False

    @property
    def now_ps(self) -> int:
        """Current simulated time in picoseconds."""
        return self._now_ps

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled tombstones)."""
        return len(self._queue) + len(self._bucket)

    @property
    def fired_events(self) -> int:
        """Number of events executed so far."""
        return self._fired

    @property
    def cancelled_pending(self) -> int:
        """Number of tombstones currently queued."""
        return self._cancelled

    def schedule_at(
        self, time_ps: int, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time_ps < self._now_ps:
            raise ValueError(
                f"cannot schedule event in the past: {time_ps} < now {self._now_ps}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time_ps, sequence, callback, args, self)
        entry = (time_ps, sequence, callback, args, event)
        if time_ps == self._now_ps:
            # Same-timestamp fast path: FIFO order equals sequence order, and
            # heap entries at this timestamp all carry smaller sequences, so
            # the run loop can merge the two sources exactly.
            self._bucket.append(entry)
        else:
            heapq.heappush(self._queue, entry)
        return event

    def schedule_call(
        self, time_ps: int, callback: Callable[..., None], args: tuple = ()
    ) -> None:
        """Schedule a fire-and-forget ``callback(*args)`` with no Event handle.

        Identical ordering semantics to :meth:`schedule_at` (one shared
        sequence counter), but nothing is allocated besides the queue entry —
        and consequently the call cannot be cancelled.  Hot paths that never
        cancel (link deliveries, DRAM completion callbacks) use this.
        """
        if time_ps < self._now_ps:
            raise ValueError(
                f"cannot schedule event in the past: {time_ps} < now {self._now_ps}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        entry = (time_ps, sequence, callback, args, None)
        if time_ps == self._now_ps:
            self._bucket.append(entry)
        else:
            heapq.heappush(self._queue, entry)

    def schedule(
        self, delay_ps: int, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` after a relative delay in picoseconds."""
        if delay_ps < 0:
            raise ValueError(f"delay must be non-negative, got {delay_ps}")
        return self.schedule_at(self._now_ps + delay_ps, callback, *args)

    def _note_cancelled(self) -> None:
        """Account for a new tombstone and compact the heap if it dominates."""
        self._cancelled += 1
        if (
            self._cancelled >= COMPACT_MIN_TOMBSTONES
            and self._cancelled * 2 >= len(self._queue) + len(self._bucket)
        ):
            self.drain_cancelled()

    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation.

        Parameters
        ----------
        until_ps:
            Stop once simulated time would advance past this horizon.  Events
            scheduled exactly at the horizon still fire.  ``None`` runs until
            the queue drains.
        max_events:
            Optional safety valve on the number of events executed in this
            call.

        Returns
        -------
        int
            The number of events executed during this call.
        """
        if self._running:
            raise RuntimeError("engine is already running (re-entrant run() call)")
        self._running = True
        executed = 0
        queue = self._queue
        bucket = self._bucket
        pop = heapq.heappop
        try:
            while queue or bucket:
                if max_events is not None and executed >= max_events:
                    break
                # Pop the next live entry in (time_ps, sequence) order,
                # skipping tombstones.
                entry = None
                while queue or bucket:
                    if bucket and (
                        not queue
                        or queue[0][0] > self._now_ps
                        or queue[0][1] > bucket[0][1]
                    ):
                        candidate = bucket.popleft()
                    else:
                        candidate = pop(queue)
                    event = candidate[4]
                    if event is not None:
                        if event.cancelled:
                            self._cancelled -= 1
                            continue
                        # Detach the engine reference: a cancel() after the
                        # event fired must not count a tombstone that is no
                        # longer queued.
                        event.engine = None
                    entry = candidate
                    break
                if entry is None:
                    break
                time_ps = entry[0]
                if until_ps is not None and time_ps > until_ps:
                    # Put the entry back; it belongs to a later run() call.
                    event = entry[4]
                    if event is not None:
                        event.engine = self
                    if time_ps == self._now_ps:
                        bucket.appendleft(entry)
                    else:
                        heapq.heappush(queue, entry)
                    break
                self._now_ps = time_ps
                entry[2](*entry[3])
                executed += 1
                self._fired += 1
            if until_ps is not None and self._now_ps < until_ps:
                # Advance the clock to the horizon even if the queue drained
                # early so callers can rely on `now_ps == until_ps`.
                self._now_ps = until_ps
        finally:
            self._running = False
        return executed

    def step(self) -> bool:
        """Execute exactly one pending event.

        Returns ``True`` if an event fired, ``False`` if the queue is empty.
        """
        return self.run(max_events=1) > 0

    def drain_cancelled(self) -> int:
        """Remove cancelled tombstones in place; returns how many were removed.

        This runs automatically once tombstones outnumber live events (see
        :data:`COMPACT_MIN_TOMBSTONES`) but can also be called explicitly.
        The heap list keeps its identity so iterators held by the run loop
        stay valid.
        """
        before = len(self._queue) + len(self._bucket)
        live = [
            entry
            for entry in self._queue
            if entry[4] is None or not entry[4].cancelled
        ]
        heapq.heapify(live)
        self._queue[:] = live
        live_bucket = [
            entry
            for entry in self._bucket
            if entry[4] is None or not entry[4].cancelled
        ]
        self._bucket.clear()
        self._bucket.extend(live_bucket)
        self._cancelled = 0
        return before - len(self._queue) - len(self._bucket)
