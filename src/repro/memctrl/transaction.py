"""Memory transactions exchanged between DMAs, the NoC and the controller."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple


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


@dataclass(eq=False)
class Transaction:
    """A single memory transaction.

    Priorities follow the paper's convention: higher values mean more urgent
    (level 7 is the most urgent with k = 3 priority bits).  ``realtime_behind``
    is the hint the frame-rate-based QoS baseline uses: the issuing core sets
    it when its frame progress lags the real-time deadline.

    Transactions compare by identity (``eq=False``): every instance carries a
    unique ``uid``, so the generated field-by-field ``__eq__`` could never
    find two equal instances anyway — it only made every queue membership
    test compare a dozen fields per element on the scheduler's hot path.
    """

    source: str
    dma: str
    queue_class: QueueClass
    address: int
    size_bytes: int
    is_write: bool
    priority: int = 0
    realtime_behind: bool = False
    created_ps: int = 0
    enqueued_ps: Optional[int] = None
    issued_ps: Optional[int] = None
    completed_ps: Optional[int] = None
    row_hit: Optional[bool] = None
    uid: int = field(default_factory=lambda: next(_transaction_ids))
    #: Age-ordering key used by the schedulers: ``(enqueued_ps, uid)`` once
    #: the transaction enters a controller queue, ``(created_ps, uid)``
    #: before that.  Cached here so hot-path ``min()``/``sort()`` calls read
    #: an attribute instead of rebuilding tuples per comparison.
    sort_key: Tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"transaction size must be positive, got {self.size_bytes}")
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")
        if self.priority < 0:
            raise ValueError(f"priority must be non-negative, got {self.priority}")
        self.sort_key = (
            self.enqueued_ps if self.enqueued_ps is not None else self.created_ps,
            self.uid,
        )

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if name == "enqueued_ps":
            # Keep the cached ordering key coherent for callers that assign
            # enqueued_ps directly instead of going through TransactionQueue.
            uid = getattr(self, "uid", None)  # unset mid-__init__
            if uid is not None:
                object.__setattr__(
                    self,
                    "sort_key",
                    (value if value is not None else self.created_ps, uid),
                )

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


class BatchTransaction:
    """The hot-path transaction every DMA issues.

    Attribute-compatible with :class:`Transaction` (same fields, same
    ``latency_ps`` / ``waiting_time_ps`` accessors, uids drawn from the same
    global counter so a run may mix both types), but built for speed:

    * plain ``__slots__`` class — no dataclass machinery, no per-field
      validation on the per-transaction fast path (the DMA already
      guarantees positive sizes and addresses by construction);
    * no ``__setattr__`` coherency hook.  :class:`Transaction` refreshes its
      cached ``sort_key`` on every ``enqueued_ps`` assignment; batch
      transactions have their key refreshed explicitly where a controller
      enqueues them (:meth:`~repro.memctrl.queue.TransactionQueue.push` and
      :meth:`~repro.memctrl.controller.BatchedMemoryController.enqueue`).
      Code that assigns ``enqueued_ps`` directly elsewhere must refresh
      ``sort_key`` itself.
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
        priority: int,
        realtime_behind: bool,
        created_ps: int,
    ) -> None:
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
            f"BatchTransaction(#{self.uid} {self.source}/{self.dma} {kind}"
            f" {self.size_bytes}B @0x{self.address:x} prio={self.priority})"
        )
