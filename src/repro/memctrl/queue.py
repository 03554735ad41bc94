"""Per-class transaction queues with a bounded scheduler-visible window."""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List

from repro.memctrl.transaction import Transaction


class TransactionQueue:
    """A FIFO of pending transactions for one queue class.

    The memory controller in the paper has a finite number of entries (42
    split over 5 queues).  Rather than exerting back-pressure on the NoC, the
    model accepts every transaction but only exposes the oldest
    ``visible_entries`` to the scheduler, which is what bounds the reordering
    window exactly as a finite command queue would.

    Storage is an insertion-ordered ``uid -> transaction`` map: iteration
    order is FIFO (matching the old deque) while the scheduler's arbitrary
    removals are O(1) instead of an equality scan per issue.
    """

    def __init__(self, name: str, visible_entries: int) -> None:
        if visible_entries <= 0:
            raise ValueError("visible_entries must be positive")
        self.name = name
        self.visible_entries = visible_entries
        self._pending: Dict[int, Transaction] = {}
        self.peak_occupancy = 0
        self.total_enqueued = 0

    def push(self, transaction: Transaction, now_ps: int) -> None:
        # Whoever sets enqueued_ps sets the age key too (see Transaction).
        transaction.enqueued_ps = now_ps
        transaction.sort_key = (now_ps, transaction.uid)
        pending = self._pending
        pending[transaction.uid] = transaction
        self.total_enqueued += 1
        if len(pending) > self.peak_occupancy:
            self.peak_occupancy = len(pending)

    def visible(self) -> List[Transaction]:
        """The transactions the scheduler may currently reorder among."""
        pending = self._pending
        if len(pending) <= self.visible_entries:
            return list(pending.values())
        return list(islice(pending.values(), self.visible_entries))

    def remove(self, transaction: Transaction) -> None:
        """Remove a transaction that the scheduler selected for issue."""
        if self._pending.pop(transaction.uid, None) is None:
            raise KeyError(
                f"transaction #{transaction.uid} is not in queue '{self.name}'"
            )

    def __len__(self) -> int:
        return len(self._pending)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._pending.values())

    @property
    def is_empty(self) -> bool:
        return not self._pending
