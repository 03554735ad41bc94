"""Store-and-forward router with arbitrated switch allocation."""

from __future__ import annotations

from typing import Callable, Optional

from repro.memctrl.columnar import ColumnarStore, make_selector
from repro.memctrl.transaction import Transaction
from repro.noc.arbiter import NocArbiter
from repro.noc.link import Link
from repro.sim.clock import NS
from repro.sim.engine import Engine

TransactionSink = Callable[[Transaction], None]


class Router:
    """One router (switch) of the NoC.

    Transactions arrive from injecting DMAs or upstream routers, wait, and
    compete for the single output link.  When the link is idle the arbiter
    picks the winner among everything queued — modelling per-priority
    virtual channels, so an urgent transaction is never stuck behind a bulk
    transfer that arrived on the same input.  The winner occupies the link
    for its serialisation delay plus the router's pipeline latency and is
    handed to the downstream sink (another router or the network's
    controller sink).

    Transactions traverse the NoC bare, with no per-hop wrapper.  The
    candidate set lives in a :class:`~repro.memctrl.columnar.ColumnarStore`
    kept in age order (creation time, then uid): a leaf router receives
    transactions in that order, because DMAs inject synchronously at
    creation, and an interior router, which merges links of different
    speeds, inserts a late-arriving older transaction in its place.
    Arbitration for the built-in policies is a selector reduction over the
    store's columns; policies without a selector get the live candidates as
    a list in age order (not arrival order) and choose through
    :meth:`NocArbiter.select`.  Every policy in the repository breaks ties
    on total per-transaction keys (age, uid), never on candidate order, so
    the router keeps no input ports: the input a transaction arrived on
    cannot take part in arbitration.
    """

    def __init__(
        self,
        name: str,
        engine: Engine,
        arbiter: NocArbiter,
        output_link: Link,
        sink: Optional[TransactionSink] = None,
        latency_ns: float = 5.0,
    ) -> None:
        if latency_ns < 0:
            raise ValueError("router latency must be non-negative")
        self.name = name
        self.engine = engine
        self.arbiter = arbiter
        self.output_link = output_link
        self.latency_ps = round(latency_ns * NS)
        self._sink = sink
        self._busy = False
        self._gate: Optional[Callable[[], bool]] = None
        self.forwarded_packets = 0
        self.forwarded_bytes = 0
        self.stalled_attempts = 0
        self._selector = make_selector(arbiter.policy)
        self._store = ColumnarStore.for_selector(self._selector, {}, track_rows=False)
        self._serve_direct = getattr(self._selector, "serve_direct", None)

    def set_sink(self, sink: TransactionSink) -> None:
        """Connect the router's output to its downstream consumer."""
        self._sink = sink

    def set_gate(self, gate: Callable[[], bool]) -> None:
        """Install a back-pressure gate.

        While the gate returns False the router keeps its transactions
        queued; :meth:`kick` re-arbitrates once the downstream resource (e.g.
        the memory controller's entry pool) has space again.
        """
        self._gate = gate

    def kick(self) -> None:
        """Re-attempt switch allocation (called when back-pressure releases)."""
        if not self._busy and self._store.live:
            self._try_forward()

    def receive(self, transaction: Transaction) -> None:
        """Accept a transaction and try to allocate the switch."""
        store = self._store
        if not self._busy and not store.live and self._sink is not None:
            # Empty-idle bypass: the arbitration over a one-candidate set is
            # trivially this transaction, so skip the store round-trip and
            # only commit the selector's policy state.  Net state changes
            # (gate stall accounting included) are identical to the
            # push + _try_forward path.
            if self._gate is not None and not self._gate():
                self.stalled_attempts += 1
                store.push(transaction)
                return
            serve_direct = self._serve_direct
            engine = self.engine
            if serve_direct is not None and serve_direct(
                store, transaction, engine._now_ps
            ):
                self._busy = True
                finish_ps = self.output_link.reserve(
                    engine._now_ps, transaction.size_bytes
                )
                engine.schedule_call(
                    finish_ps + self.latency_ps, self._deliver, (transaction,)
                )
                return
        store.push(transaction)
        if not self._busy:
            self._try_forward()

    def occupancy(self) -> int:
        """Total transactions waiting for the output link."""
        return self._store.live

    def _try_forward(self) -> None:
        if self._busy or self._sink is None:
            return
        store = self._store
        if not store.live:
            return
        if self._gate is not None and not self._gate():
            self.stalled_attempts += 1
            return
        engine = self.engine
        selector = self._selector
        if selector is not None:
            index = selector.select(store, engine._now_ps)
            transaction = store.objs[index]
        else:
            transaction = self.arbiter.select(
                store.fallback_candidates(), engine._now_ps
            )
            index = store.index_of_uid(transaction.uid)
        store.remove_index(index)
        self._busy = True
        finish_ps = self.output_link.reserve(engine._now_ps, transaction.size_bytes)
        # Deliveries are never cancelled, so skip the Event handle entirely.
        engine.schedule_call(
            finish_ps + self.latency_ps, self._deliver, (transaction,)
        )

    def _deliver(self, transaction: Transaction) -> None:
        self.forwarded_packets += 1
        self.forwarded_bytes += transaction.size_bytes
        self._busy = False
        sink = self._sink
        if sink is not None:
            sink(transaction)
        if self._store.live and not self._busy:
            self._try_forward()
