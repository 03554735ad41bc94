"""Memory transactions exchanged between DMAs, the NoC and the controller."""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Optional


class QueueClass(Enum):
    """The five memory-controller transaction queues of Table 1."""

    CPU = "cpu"
    GPU = "gpu"
    DSP = "dsp"
    MEDIA = "media"
    SYSTEM = "system"

    # Enum's default __hash__ hashes the member *name* through a Python-level
    # method; queue classes key several per-transaction dict lookups, and
    # identity hashing (members are singletons) makes those lookups C-level.
    __hash__ = object.__hash__


_transaction_ids = itertools.count()


class Transaction:
    """A single memory transaction, as every DMA issues it.

    Priorities follow the paper's convention: higher values mean more urgent
    (level 7 is the most urgent with k = 3 priority bits).  ``realtime_behind``
    is the hint the frame-rate-based QoS baseline uses: the issuing core sets
    it when its frame progress lags the real-time deadline.

    A plain ``__slots__`` class, built once per transaction on the
    simulator's hot path.  Transactions compare by identity: every instance
    carries a unique ``uid``.

    ``sort_key`` is the age-ordering key the schedulers read:
    ``(created_ps, uid)`` until a memory controller accepts the transaction,
    ``(enqueued_ps, uid)`` after.  Caching it lets hot-path ``min()`` and
    ``sort()`` calls read an attribute instead of building tuples per
    comparison.  Nothing refreshes it behind the caller's back: code that
    assigns ``enqueued_ps`` assigns ``sort_key`` too, as
    :meth:`~repro.memctrl.controller.MemoryController.enqueue` and its
    queue-based test reference's ``enqueue`` do.
    """

    __slots__ = (
        "source",
        "dma",
        "queue_class",
        "address",
        "size_bytes",
        "is_write",
        "priority",
        "realtime_behind",
        "created_ps",
        "enqueued_ps",
        "issued_ps",
        "completed_ps",
        "row_hit",
        "uid",
        "sort_key",
    )

    def __init__(
        self,
        source: str,
        dma: str,
        queue_class: QueueClass,
        address: int,
        size_bytes: int,
        is_write: bool,
        priority: int = 0,
        realtime_behind: bool = False,
        created_ps: int = 0,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"transaction size must be positive, got {size_bytes}")
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        if priority < 0:
            raise ValueError(f"priority must be non-negative, got {priority}")
        self.source = source
        self.dma = dma
        self.queue_class = queue_class
        self.address = address
        self.size_bytes = size_bytes
        self.is_write = is_write
        self.priority = priority
        self.realtime_behind = realtime_behind
        self.created_ps = created_ps
        self.enqueued_ps: Optional[int] = None
        self.issued_ps: Optional[int] = None
        self.completed_ps: Optional[int] = None
        self.row_hit: Optional[bool] = None
        uid = next(_transaction_ids)
        self.uid = uid
        self.sort_key = (created_ps, uid)

    @property
    def latency_ps(self) -> Optional[int]:
        """End-to-end latency from creation to completion, if completed."""
        if self.completed_ps is None:
            return None
        return self.completed_ps - self.created_ps

    def waiting_time_ps(self, now_ps: int) -> int:
        """Time spent waiting in the memory controller so far."""
        if self.enqueued_ps is None:
            return 0
        return max(0, now_ps - self.enqueued_ps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.is_write else "R"
        return (
            f"Transaction(#{self.uid} {self.source}/{self.dma} {kind}"
            f" {self.size_bytes}B @0x{self.address:x} prio={self.priority})"
        )
