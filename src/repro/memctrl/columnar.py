"""Columnar candidate stores and policy selectors.

A policy's own ``select()`` takes a freshly built Python list of transaction
objects and scans it (``min`` over attribute tuples, list-comprehension
filters, per-candidate aging probes).  The columnar memory controller and
the NoC routers instead keep each candidate set — one per DRAM channel in
the controller, one per router — as a :class:`ColumnarStore`: parallel
columns (age key, priority, queue class, DMA code, realtime-behind flag,
bank slot, row) plus the owning transaction objects.  A *selector* makes the
scheduling decision by reducing the columns directly instead of walking an
object graph, and a store only maintains the columns its selector actually
reads (an FCFS router push is three list appends).

Every store keeps its candidates in age order: a push appends, and an
arrival older than the newest entry (an interior router merging links of
different speeds) is inserted in its place.  So the oldest live candidate is
always ``head``, and the first match found scanning from ``head`` is the
oldest match.  Removal writes a sentinel into the scanned columns (priority
and queue class ``-1``, realtime-behind ``False``), so a selector finds the
next live match with ``list.index`` in C.  All policies break ties on total
per-transaction keys (``(age, uid)`` with unique uids), so there are no ties
for iteration order to resolve.  Copying the columns into numpy arrays for a
masked reduction costs more than the whole scan, even for windows of
thousands of candidates (measurements in ``docs/engine.md``).

Selectors replicate their policies' ``select()`` *exactly*:

* the same transaction is chosen for every candidate set;
* the same mutable policy state evolves identically (round-robin rotation
  index, priority round-robin turn counter and per-DMA last-served turns,
  aged-service accounting).

``tests/test_sim_golden.py`` checks this on whole runs by making
:func:`make_selector` return ``None``, which sends every decision through
the policy's own ``select()``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.memctrl.aging import AgingTracker
from repro.memctrl.policies import (
    FcfsPolicy,
    FrameRateQosPolicy,
    FrFcfsPolicy,
    PriorityQosPolicy,
    PriorityRowBufferPolicy,
    RoundRobinPolicy,
)
from repro.memctrl.scheduler import SchedulingPolicy
from repro.memctrl.transaction import QueueClass, Transaction

#: Queue classes in enum order; the codes double as round-robin rotation
#: positions because the scalar policy's rotation order equals enum order.
_CLASS_CODE: Dict[QueueClass, int] = {qc: i for i, qc in enumerate(QueueClass)}
_NUM_CLASSES = len(_CLASS_CODE)

#: Precomputed rotation orders: _ROTATIONS[base] is the class-code visit
#: order starting at ``base``, and _NEXT_CLASS[code] is the rotation position
#: after serving ``code``.  Replaces per-step modulo in the arbitration loop.
_ROTATIONS = tuple(
    tuple((base + step) % _NUM_CLASSES for step in range(_NUM_CLASSES))
    for base in range(_NUM_CLASSES)
)
_NEXT_CLASS = tuple((code + 1) % _NUM_CLASSES for code in range(_NUM_CLASSES))

#: The sentinel round-robin turn greater than every real turn.
_TURN_MAX = 1 << 62

#: Dead entries tolerated before a store compacts its columns in place.
_COMPACT_SLACK = 64


class ColumnarStore:
    """A candidate set as parallel columns plus the owning objects, in age
    order.

    Columns are plain Python lists: cheap to append, and scanned in place
    by the selectors.  From ``head`` on, the age keys (``skey``) strictly
    increase with the index, dead entries included, so ``head`` is the
    oldest live candidate; entries before ``head`` are dead.  A removed
    entry keeps its age key and gets a sentinel in the scanned columns:
    ``prio`` and ``cls`` ``-1``, ``behind`` ``False``.

    The ``track_*`` flags disable columns (and their counters) that the
    owning selector never reads, shrinking the per-push work: a disabled
    column stays an empty list.  ``track_rows`` is owner-driven rather than
    selector-driven — the memory controller always needs the ``bank``
    slot and ``row`` for issuing, NoC routers never do.
    """

    __slots__ = (
        "codebook",
        "skey",
        "prio",
        "cls",
        "dma",
        "behind",
        "bank",
        "row",
        "alive",
        "objs",
        "track_cls",
        "track_prio",
        "track_dma",
        "track_behind",
        "track_rows",
        "_columns",
        "head",
        "live",
        "class_count",
        "prio_count",
        "behind_count",
    )

    def __init__(
        self,
        codebook: Dict[str, int],
        track_cls: bool = True,
        track_prio: bool = True,
        track_dma: bool = True,
        track_behind: bool = True,
        track_rows: bool = True,
    ) -> None:
        self.codebook = codebook
        #: Age key column: the transactions' ``sort_key`` tuples, shared with
        #: the objects themselves (one append, tuple comparisons — exactly
        #: the scalar policies' ordering).
        self.skey: List[Tuple[int, int]] = []
        self.prio: List[int] = []
        self.cls: List[int] = []
        self.dma: List[int] = []
        self.behind: List[bool] = []
        self.bank: List[int] = []
        self.row: List[int] = []
        self.alive: List[bool] = []
        self.objs: List[Optional[Transaction]] = []
        self.track_cls = track_cls
        self.track_prio = track_prio
        self.track_dma = track_dma
        self.track_behind = track_behind
        self.track_rows = track_rows
        #: The maintained columns themselves; every one is only ever
        #: mutated in place, never rebound.
        columns = [self.skey, self.objs, self.alive]
        if track_cls:
            columns.append(self.cls)
        if track_prio:
            columns.append(self.prio)
        if track_dma:
            columns.append(self.dma)
        if track_behind:
            columns.append(self.behind)
        if track_rows:
            columns.extend((self.bank, self.row))
        self._columns = tuple(columns)
        self.head = 0  # the oldest live entry (the size when none is live)
        self.live = 0
        self.class_count = [0] * _NUM_CLASSES
        #: Live candidates per priority level, grown on demand (the paper's
        #: k = 3 priority bits give 8 levels); makes "highest live priority"
        #: an O(levels) lookup instead of an O(window) scan.
        self.prio_count = [0] * 8
        self.behind_count = 0

    @classmethod
    def for_selector(
        cls,
        selector,
        codebook: Dict[str, int],
        track_rows: bool,
    ) -> "ColumnarStore":
        """A store maintaining exactly the columns ``selector`` reads.

        ``selector=None`` (fallback to a scalar policy) keeps every column:
        the store must then rebuild full scalar candidate lists in class
        order and cannot know what the policy will look at.
        """
        needs = getattr(selector, "NEEDS", None)
        if needs is None:
            return cls(codebook, track_rows=track_rows)
        return cls(
            codebook,
            track_cls="cls" in needs,
            track_prio="prio" in needs,
            track_dma="dma" in needs,
            track_behind="behind" in needs,
            track_rows=track_rows,
        )

    @property
    def size(self) -> int:
        """The append cursor: columns are valid on ``[0, size)``."""
        return len(self.skey)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def push(self, transaction: Transaction, bank_slot: int = 0, row: int = -1) -> int:
        """Add a candidate in age order; returns its store index.

        The age key is the transaction's cached ``sort_key`` (enqueue time in
        the controller, creation time inside the NoC).  A key newer than the
        last entry's is appended; an older one is moved from the tail to its
        place, found by bisection from ``head``.
        """
        skey = transaction.sort_key
        skeys = self.skey
        size = len(skeys)
        skeys.append(skey)
        self.objs.append(transaction)
        self.alive.append(True)
        self.live += 1
        if self.track_cls:
            cls_code = _CLASS_CODE[transaction.queue_class]
            self.cls.append(cls_code)
            self.class_count[cls_code] += 1
        if self.track_prio:
            prio = transaction.priority
            self.prio.append(prio)
            prio_count = self.prio_count
            if prio >= len(prio_count):
                prio_count.extend([0] * (prio + 1 - len(prio_count)))
            prio_count[prio] += 1
        if self.track_dma:
            codebook = self.codebook
            code = codebook.get(transaction.dma)
            if code is None:
                code = len(codebook)
                codebook[transaction.dma] = code
            self.dma.append(code)
        if self.track_behind:
            behind = transaction.realtime_behind
            self.behind.append(behind)
            if behind:
                self.behind_count += 1
        if self.track_rows:
            self.bank.append(bank_slot)
            self.row.append(row)
        if size and skey < skeys[size - 1]:
            # Older than the newest entry: entries from head on are in
            # strictly increasing key order, dead ones included, so bisect
            # there (entries before head are dead and may be out of order).
            index = bisect_left(skeys, skey, self.head, size)
            if index < size:
                for column in self._columns:
                    column.insert(index, column.pop())
                return index
        return size

    def remove_index(self, index: int) -> None:
        """Kill the candidate at a store index: update the counters, then
        write the sentinels into the scanned columns (the age key stays)."""
        alive = self.alive
        alive[index] = False
        live = self.live - 1
        self.live = live
        if self.track_cls:
            cls = self.cls
            self.class_count[cls[index]] -= 1
            cls[index] = -1
        if self.track_prio:
            prio = self.prio
            self.prio_count[prio[index]] -= 1
            prio[index] = -1
        if self.track_behind:
            behind = self.behind
            if behind[index]:
                self.behind_count -= 1
                behind[index] = False
        self.objs[index] = None
        if index == self.head:
            self.head = alive.index(True, index + 1) if live else len(alive)
        if len(alive) - live > _COMPACT_SLACK:
            self._compact()

    def index_of_uid(self, uid: int) -> int:
        """Store index of a live candidate by transaction uid (fallback path)."""
        skeys = self.skey
        alive = self.alive
        for i in range(self.head, len(skeys)):
            if alive[i] and skeys[i][1] == uid:
                return i
        raise KeyError(f"uid {uid} is not a live candidate")

    def _compact(self) -> None:
        """Drop dead entries in place, keeping the age order."""
        alive = self.alive
        keep = [i for i in range(self.head, len(alive)) if alive[i]]
        for column in self._columns:
            column[:] = [column[i] for i in keep]
        self.head = 0

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def top_priority(self) -> int:
        """Highest priority among live candidates (-1 when empty)."""
        counts = self.prio_count
        for level in range(len(counts) - 1, -1, -1):
            if counts[level]:
                return level
        return -1

    def fallback_candidates(self) -> List[Transaction]:
        """Live candidates in age order (a router's policy without a
        selector sees them so; every policy chooses by per-transaction
        keys, not by list position)."""
        return [obj for obj in self.objs[self.head :] if obj is not None]

    def fallback_candidates_by_class(self) -> List[Transaction]:
        """Live candidates grouped by queue class in enum order, oldest first
        within a class: the list
        :class:`~repro.memctrl.controller.MemoryController` hands a policy
        without a selector.  The queue-based test reference reads its
        per-class candidate index in the same order, so such a policy sees
        the same list under both."""
        groups: List[List[Transaction]] = [[] for _ in range(_NUM_CLASSES)]
        alive = self.alive
        cls = self.cls
        objs = self.objs
        for i in range(self.head, len(alive)):
            if alive[i]:
                groups[cls[i]].append(objs[i])
        out: List[Transaction] = []
        for group in groups:
            out.extend(group)
        return out


# ---------------------------------------------------------------------- #
# Batched selectors
# ---------------------------------------------------------------------- #
class FcfsSelector:
    """FCFS and (row-state-blind) FR-FCFS: plain oldest."""

    NEEDS = frozenset()

    def __init__(self, policy: SchedulingPolicy) -> None:
        self.policy = policy

    def select(self, store: ColumnarStore, now_ps: int, channel: int = 0) -> int:
        return store.head

    def serve_direct(
        self,
        store: ColumnarStore,
        transaction,
        now_ps: int,
        channel: int = 0,
        bank_slot: int = 0,
        row: int = -1,
    ) -> bool:
        """Commit a trivial single-candidate arbitration (empty-store bypass).

        FCFS keeps no per-serve state, so there is nothing to commit.
        """
        return True


class RoundRobinSelector:
    """Round-robin over queue classes; rotation state shared with the policy."""

    NEEDS = frozenset(("cls",))

    def __init__(self, policy: RoundRobinPolicy) -> None:
        self.policy = policy

    def select(self, store: ColumnarStore, now_ps: int, channel: int = 0) -> int:
        policy = self.policy
        counts = store.class_count
        for code in _ROTATIONS[policy._next_class_index]:
            count = counts[code]
            if count:
                policy._next_class_index = _NEXT_CLASS[code]
                if count == store.live:
                    return store.head
                return store.cls.index(code, store.head)
        raise ValueError("round-robin selector asked to select from an empty store")

    def serve_direct(
        self,
        store: ColumnarStore,
        transaction,
        now_ps: int,
        channel: int = 0,
        bank_slot: int = 0,
        row: int = -1,
    ) -> bool:
        """Commit a trivial single-candidate arbitration (empty-store bypass).

        With one candidate the rotation scan always lands on its class (the
        only non-empty one) and leaves the rotation pointing just past it.
        """
        self.policy._next_class_index = _NEXT_CLASS[_CLASS_CODE[transaction.queue_class]]
        return True


class FrameRateSelector:
    """Frame-rate QoS: oldest realtime-behind candidate, else oldest."""

    NEEDS = frozenset(("behind",))

    def __init__(self, policy: FrameRateQosPolicy) -> None:
        self.policy = policy

    def select(self, store: ColumnarStore, now_ps: int, channel: int = 0) -> int:
        behind_count = store.behind_count
        if behind_count == 0 or behind_count == store.live:
            return store.head
        return store.behind.index(True, store.head)

    def serve_direct(
        self,
        store: ColumnarStore,
        transaction,
        now_ps: int,
        channel: int = 0,
        bank_slot: int = 0,
        row: int = -1,
    ) -> bool:
        """Commit a trivial single-candidate arbitration (empty-store bypass).

        Frame-rate QoS keeps no per-serve state, so there is nothing to
        commit.
        """
        return True


class PriorityQosSelector:
    """Policy 1: priority round-robin with an aging backstop, batched.

    Owns the round-robin state of one :class:`PriorityQosPolicy` instance
    (the scalar ``_turn`` counter plus last-served turns indexed by the
    shared DMA codebook).  In batched runs the policy's own
    ``_last_served_turn`` dict stays untouched — this selector *is* the
    authoritative state, and it evolves turn-for-turn like the scalar dict.
    """

    NEEDS = frozenset(("prio", "dma"))

    def __init__(self, policy: PriorityQosPolicy, aging: Optional[AgingTracker]) -> None:
        self.policy = policy
        self.aging = aging
        self.turn = 0
        self.turns: List[int] = []

    def _turns_for(self, store: ColumnarStore) -> List[int]:
        turns = self.turns
        missing = len(store.codebook) - len(turns)
        if missing > 0:
            turns.extend([-1] * missing)
        return turns

    def _serve(self, store: ColumnarStore, index: int, now_ps: int) -> int:
        """Commit a pick: advance the turn, stamp the DMA, account aging."""
        self.turn += 1
        code = store.dma[index]
        turns = self.turns
        if code >= len(turns):
            turns = self._turns_for(store)
        turns[code] = self.turn
        aging = self.aging
        if aging is not None and store.skey[index][0] <= now_ps - aging.threshold_ps:
            aging.record_aged_service()
        return index

    def pick_urgent(
        self, store: ColumnarStore, top: int, cutoff: Optional[int], now_ps: int
    ) -> int:
        """Round-robin pick within the urgent group (priority == ``top`` or
        enqueued at/before ``cutoff``): least recently served DMA first,
        oldest transaction within it — the scalar ``_round_robin_pick``
        ordering over the scalar ``_urgent_group`` membership.

        Candidates are visited oldest first, so a strictly smaller turn
        replaces the best and a tie keeps the older one; a never-served DMA
        (turn -1, the smallest) wins outright.  Keys increase with the
        index, so the aged candidates are a prefix of the live window: scan
        it, then visit only the remaining top-priority members, found with
        ``prio.index`` and counted down from ``prio_count[top]``.
        """
        turns = self.turns
        if len(turns) < len(store.codebook):
            turns = self._turns_for(store)
        prio = store.prio
        dma = store.dma
        remaining = store.prio_count[top]
        best = -1
        best_turn = _TURN_MAX
        i = store.head
        if cutoff is not None:
            skeys = store.skey
            alive = store.alive
            size = len(skeys)
            while i < size and skeys[i][0] <= cutoff:
                if alive[i]:
                    turn = turns[dma[i]]
                    if turn < best_turn:
                        if turn == -1:
                            return self._serve(store, i, now_ps)
                        best = i
                        best_turn = turn
                    if prio[i] == top:
                        remaining -= 1
                i += 1
        find = prio.index
        while remaining:
            i = find(top, i)
            turn = turns[dma[i]]
            if turn < best_turn:
                best = i
                best_turn = turn
                if turn == -1:
                    break
            remaining -= 1
            i += 1
        return self._serve(store, best, now_ps)

    def select(self, store: ColumnarStore, now_ps: int, channel: int = 0) -> int:
        if store.live == 1:
            return self._serve(store, store.head, now_ps)
        aging = self.aging
        cutoff = None if aging is None else now_ps - aging.threshold_ps
        # top_priority() inlined: highest non-empty prio_count level.
        counts = store.prio_count
        top = len(counts) - 1
        while not counts[top]:
            top -= 1
        return self.pick_urgent(store, top, cutoff, now_ps)

    def serve_direct(
        self,
        store: ColumnarStore,
        transaction,
        now_ps: int,
        channel: int = 0,
        bank_slot: int = 0,
        row: int = -1,
    ) -> bool:
        """Commit a trivial single-candidate arbitration (empty-store bypass).

        Mirrors :meth:`_serve` for a transaction that never entered the
        store: advance the turn, stamp the DMA's code (allocating it in the
        store's codebook exactly as ``push`` would have), and account aging
        against the transaction's cached sort key — the same key ``push``
        would have stored.
        """
        self.turn += 1
        codebook = store.codebook
        code = codebook.get(transaction.dma)
        if code is None:
            code = len(codebook)
            codebook[transaction.dma] = code
        turns = self.turns
        if code >= len(turns):
            turns.extend([-1] * (len(codebook) - len(turns)))
        turns[code] = self.turn
        aging = self.aging
        if aging is not None and transaction.sort_key[0] <= now_ps - aging.threshold_ps:
            aging.record_aged_service()
        return True


class FrFcfsSelector:
    """FR-FCFS with row state: oldest row hit, else oldest (controller only)."""

    NEEDS = frozenset()

    def __init__(self, policy: FrFcfsPolicy, open_rows: List[List[int]]) -> None:
        self.policy = policy
        self.open_rows = open_rows

    def select(self, store: ColumnarStore, now_ps: int, channel: int = 0) -> int:
        head = store.head
        if store.live == 1:
            return head
        open_rows = self.open_rows[channel]
        alive = store.alive
        bank = store.bank
        row = store.row
        for i in range(head, len(alive)):
            if alive[i] and open_rows[bank[i]] == row[i]:
                return i  # the first row hit is the oldest
        return head

    def serve_direct(
        self,
        store: ColumnarStore,
        transaction,
        now_ps: int,
        channel: int = 0,
        bank_slot: int = 0,
        row: int = -1,
    ) -> bool:
        """Commit a trivial single-candidate arbitration (empty-store bypass).

        FR-FCFS keeps no per-serve state (row state lives in the DRAM
        channel's ``open_rows``, written at every access), so nothing to
        commit.
        """
        return True


class PriorityRowBufferSelector:
    """Policy 2 (QoS-RB): Policy 1 plus row-buffer-hit optimisation.

    Requires row state (controller only): the store's ``bank``/``row``
    columns are compared against the DRAM channel's own ``open_rows`` list,
    which the channel writes on every access.  Both row-hit branches
    return without touching the inner round-robin state, exactly like the
    scalar policy's early ``oldest(row_hits)`` returns.
    """

    NEEDS = frozenset(("prio", "dma"))

    def __init__(
        self,
        policy: PriorityRowBufferPolicy,
        aging: Optional[AgingTracker],
        row_buffer_delta: int,
        open_rows: List[List[int]],
    ) -> None:
        self.policy = policy
        self.delta = row_buffer_delta
        #: The DRAM channels' ``open_rows`` lists, indexed by channel.
        self.open_rows = open_rows
        self.inner = PriorityQosSelector(policy._priority_rr, aging)

    def select(self, store: ColumnarStore, now_ps: int, channel: int = 0) -> int:
        open_rows = self.open_rows[channel]
        inner = self.inner
        if store.live == 1:
            index = store.head
            if open_rows[store.bank[index]] == store.row[index]:
                return index  # row hit: served for efficiency, no RR state
            return inner._serve(store, index, now_ps)
        top = store.top_priority()
        aging = inner.aging
        cutoff = None if aging is None else now_ps - aging.threshold_ps
        alive = store.alive
        prio = store.prio
        skeys = store.skey
        bank = store.bank
        row = store.row
        # In both branches the first row hit found is the oldest one.
        if top < self.delta:
            # No transaction is urgent: spend the slot on DRAM efficiency.
            for i in range(store.head, len(alive)):
                if alive[i] and open_rows[bank[i]] == row[i]:
                    return i
            return inner.pick_urgent(store, top, cutoff, now_ps)
        # Urgent traffic exists: a row hit *within* the urgent group wins,
        # otherwise round-robin over the group.
        for i in range(store.head, len(alive)):
            if (
                alive[i]
                and (prio[i] == top or (cutoff is not None and skeys[i][0] <= cutoff))
                and open_rows[bank[i]] == row[i]
            ):
                return i
        return inner.pick_urgent(store, top, cutoff, now_ps)

    def serve_direct(
        self,
        store: ColumnarStore,
        transaction,
        now_ps: int,
        channel: int = 0,
        bank_slot: int = 0,
        row: int = -1,
    ) -> bool:
        """Commit a trivial single-candidate arbitration (empty-store bypass).

        Mirrors the ``live == 1`` branch of :meth:`select`: a row hit is
        served for efficiency without touching the inner round-robin state,
        anything else commits the inner serve.
        """
        if self.open_rows[channel][bank_slot] == row:
            return True
        return self.inner.serve_direct(store, transaction, now_ps)


def make_selector(
    policy: SchedulingPolicy,
    aging: Optional[AgingTracker] = None,
    row_buffer_delta: int = 6,
    open_rows: Optional[List[List[int]]] = None,
):
    """Build the batched selector for a policy instance, or ``None``.

    ``None`` means "no selector for this policy" — the memory controller
    and the routers then fall back to handing the policy a candidate list
    (see :meth:`ColumnarStore.fallback_candidates` and
    :meth:`ColumnarStore.fallback_candidates_by_class`), so unknown or
    user-registered policies keep bit-identical behaviour (just without the
    speedup).  Matching is on exact policy class: a subclass overriding
    ``select`` must not be silently routed through its parent's batched path.
    """
    cls = type(policy)
    if cls is FcfsPolicy:
        return FcfsSelector(policy)
    if cls is RoundRobinPolicy:
        return RoundRobinSelector(policy)
    if cls is FrameRateQosPolicy:
        return FrameRateSelector(policy)
    if cls is PriorityQosPolicy:
        return PriorityQosSelector(policy, aging)
    if cls is PriorityRowBufferPolicy:
        if open_rows is None:
            # No row state (NoC router): every is_row_hit is False, so the
            # policy degenerates to Policy 1 driven by its inner round-robin
            # instance — share that instance's state exactly.
            return PriorityQosSelector(policy._priority_rr, aging)
        return PriorityRowBufferSelector(policy, aging, row_buffer_delta, open_rows)
    if cls is FrFcfsPolicy:
        if open_rows is None:
            # Row-state-blind FR-FCFS (NoC router) degenerates to FCFS.
            return FcfsSelector(policy)
        return FrFcfsSelector(policy, open_rows)
    return None
