"""Core and DMA base classes.

A *core* is one heterogeneous agent of the MPSoC (GPU, display, DSP, ...); it
owns one or more *DMAs*, each of which turns a traffic generator's released
work into memory transactions, carries its own performance meter, and attaches
the priority supplied by its SARA adapter to every transaction it issues.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.npi import PerformanceMeter
from repro.memctrl.transaction import QueueClass, Transaction
from repro.sim.engine import Engine
from repro.traffic.addresses import AddressStream
from repro.traffic.generator import TrafficGenerator

InjectFn = Callable[[str, Transaction], None]
PriorityProvider = Callable[[], int]


class Dma:
    """A direct-memory-access engine issuing transactions for its core."""

    def __init__(
        self,
        name: str,
        core: str,
        queue_class: QueueClass,
        is_write: bool,
        transaction_bytes: int,
        generator: TrafficGenerator,
        addresses: AddressStream,
        meter: PerformanceMeter,
        max_outstanding: int = 8,
    ) -> None:
        if transaction_bytes <= 0:
            raise ValueError("transaction_bytes must be positive")
        if max_outstanding <= 0:
            raise ValueError("max_outstanding must be positive")
        self.name = name
        self.core = core
        self.queue_class = queue_class
        self.is_write = is_write
        self.transaction_bytes = transaction_bytes
        self.generator = generator
        self.addresses = addresses
        self.meter = meter
        self.max_outstanding = max_outstanding

        self._engine: Optional[Engine] = None
        self._inject: Optional[InjectFn] = None
        self._priority_provider: PriorityProvider = lambda: 0
        self._backlog_bytes = 0
        self._outstanding = 0

        self.issued_transactions = 0
        self.completed_transactions = 0
        self.issued_bytes = 0
        self.completed_bytes = 0

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def connect(self, engine: Engine, inject: InjectFn) -> None:
        """Connect the DMA to the simulation engine and the NoC injection point."""
        self._engine = engine
        self._inject = inject

    def set_priority_provider(self, provider: PriorityProvider) -> None:
        """Install the SARA adapter's priority source (defaults to priority 0)."""
        self._priority_provider = provider

    def start(self, stop_ps: Optional[int] = None) -> None:
        """Start the DMA's traffic generator."""
        if self._engine is None or self._inject is None:
            raise RuntimeError(f"DMA '{self.name}' must be connected before starting")
        self.generator.start(self._engine, self._on_release, stop_ps)

    # ------------------------------------------------------------------ #
    # Traffic flow
    # ------------------------------------------------------------------ #
    @property
    def backlog_bytes(self) -> int:
        """Released work not yet turned into transactions."""
        return self._backlog_bytes

    @property
    def outstanding(self) -> int:
        """Transactions in flight (injected but not completed)."""
        return self._outstanding

    def _on_release(self, size_bytes: int) -> None:
        self._backlog_bytes += size_bytes
        self._try_issue()

    def _realtime_behind(self, now_ps: int) -> bool:
        # raw_npi, not npi: clamping to [NPI_FLOOR, NPI_CAP] cannot change
        # which side of 1.0 the value falls on, so the decision is identical
        # and the clamp call is saved on every issue attempt.
        return self.meter.is_frame_based and self.meter.raw_npi(now_ps) < 1.0

    def _try_issue(self) -> None:
        """Turn backlog into transactions while the outstanding window allows.

        Three per-iteration lookups are hoisted out of the loop, and each
        hoist is exact because nothing inside the loop can change the value:

        * the priority provider is a pure read of the SARA adapter's current
          priority, which only changes in the framework's sampling tick (a
          separate engine event);
        * the realtime-behind flag reads the DMA's own meter at a fixed
          ``now``.  The meter's lazy window maintenance mutates internal
          state, but it is idempotent at a given timestamp;
        * injection is fire-and-forget into the NoC — a completion (the only
          thing that changes ``_outstanding`` or the backlog) can only arrive
          via a later engine event, never synchronously from ``inject``.
        """
        engine = self._engine
        inject = self._inject
        if engine is None or inject is None:
            return
        backlog = self._backlog_bytes
        size = self.transaction_bytes
        outstanding = self._outstanding
        if backlog < size or outstanding >= self.max_outstanding:
            return
        now = engine._now_ps
        priority = self._priority_provider()
        behind = self._realtime_behind(now)
        core = self.core
        name = self.name
        queue_class = self.queue_class
        is_write = self.is_write
        next_address = self.addresses.next_address
        max_outstanding = self.max_outstanding
        issued = 0
        while backlog >= size and outstanding < max_outstanding:
            transaction = Transaction(
                core,
                name,
                queue_class,
                next_address(size),
                size,
                is_write,
                priority,
                behind,
                now,
            )
            backlog -= size
            self._backlog_bytes = backlog
            outstanding += 1
            self._outstanding = outstanding
            issued += 1
            inject(core, transaction)
        self.issued_transactions += issued
        self.issued_bytes += issued * size

    def on_complete(self, transaction: Transaction) -> None:
        """Completion callback registered with the memory controller.

        Both controllers stamp ``completed_ps`` at issue, before the
        completion event that calls this, so the latency needs no None-guard.
        """
        engine = self._engine
        if engine is None:
            raise RuntimeError(f"DMA '{self.name}' received a completion before connect()")
        self._outstanding = max(0, self._outstanding - 1)
        self.completed_transactions += 1
        size = transaction.size_bytes
        self.completed_bytes += size
        self.meter.record_completion(
            size, transaction.completed_ps - transaction.created_ps, engine._now_ps
        )
        self._try_issue()


class Core:
    """A heterogeneous core: a named collection of DMAs with one QoS notion."""

    #: Table-2 style description of the core's target-performance type.
    performance_type = "generic"

    def __init__(self, name: str, cluster: str, queue_class: QueueClass) -> None:
        self.name = name
        self.cluster = cluster
        self.queue_class = queue_class
        self.dmas: List[Dma] = []

    def add_dma(self, dma: Dma) -> None:
        if dma.core != self.name:
            raise ValueError(
                f"DMA '{dma.name}' belongs to core '{dma.core}', not '{self.name}'"
            )
        self.dmas.append(dma)

    def npi(self, now_ps: int) -> float:
        """The core's intrinsic health: the worst NPI across its DMAs."""
        if not self.dmas:
            raise RuntimeError(f"core '{self.name}' has no DMAs")
        return min(dma.meter.npi(now_ps) for dma in self.dmas)

    def total_completed_bytes(self) -> int:
        return sum(dma.completed_bytes for dma in self.dmas)

    def total_issued_bytes(self) -> int:
        return sum(dma.issued_bytes for dma in self.dmas)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, cluster={self.cluster!r}, "
            f"dmas={len(self.dmas)})"
        )
