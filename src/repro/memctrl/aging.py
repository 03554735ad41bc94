"""Starvation protection: the aging backstop of Policies 1 and 2.

The paper's schedulers periodically clear the backlog of transactions that
have waited at least T cycles (T = 10 000 in the evaluation) so that
low-priority traffic is never starved indefinitely by high-priority cores.

Aging is a hot-path predicate — the priority policies evaluate it for every
candidate on every scheduling decision — so the tracker exposes a
precomputed *cutoff* timestamp: a transaction is aged iff it was enqueued at
or before ``now_ps - threshold_ps``.  Policies compare ``enqueued_ps``
against the cutoff directly instead of recomputing waiting times per
transaction.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List

from repro.memctrl.transaction import Transaction

_SORT_KEY = attrgetter("sort_key")


class AgingTracker:
    """Identifies transactions whose waiting time exceeds the aging threshold."""

    def __init__(self, threshold_cycles: int, clock_period_ps: int) -> None:
        if threshold_cycles <= 0:
            raise ValueError("aging threshold must be positive")
        if clock_period_ps <= 0:
            raise ValueError("clock period must be positive")
        self.threshold_cycles = threshold_cycles
        self.clock_period_ps = clock_period_ps
        self.aged_served = 0

    @property
    def threshold_ps(self) -> int:
        return self.threshold_cycles * self.clock_period_ps

    def cutoff_ps(self, now_ps: int) -> int:
        """Latest enqueue time that already counts as aged at ``now_ps``."""
        return now_ps - self.threshold_ps

    def is_aged(self, transaction: Transaction, now_ps: int) -> bool:
        """Has this transaction waited at least T cycles in the controller?"""
        enqueued = transaction.enqueued_ps
        return enqueued is not None and enqueued <= now_ps - self.threshold_ps

    def aged_backlog(self, candidates: List[Transaction], now_ps: int) -> List[Transaction]:
        """All candidates past the threshold, oldest first."""
        cutoff = now_ps - self.threshold_ps
        aged = [
            t
            for t in candidates
            if t.enqueued_ps is not None and t.enqueued_ps <= cutoff
        ]
        aged.sort(key=_SORT_KEY)
        return aged

    def record_aged_service(self) -> None:
        self.aged_served += 1
