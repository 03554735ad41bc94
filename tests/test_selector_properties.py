"""Columnar selectors against their policies' own ``select()``, on generated
windows and store states.

The golden rows pin whole runs, but they only reach the store states those
runs happen to build: the controller's stores only ever append.  Here every
built-in selector is driven through generated candidate sets of 1–300
transactions (priorities 0–7, every queue class, 1–12 DMAs, realtime-behind
flags, bank/row pairs against an open-row table), pushed into a
:class:`ColumnarStore` in age order or in generation order, where an
arrival older than the newest candidate is inserted in its place.  Picks
alternate with removals and occasional late pushes, so compaction fires
mid-sequence.  At every pick the selector must choose the transaction a
second instance of its policy picks through its own ``select()`` over the
live candidates, with or without an aging cutoff, and both must count the
same aged services.  After every push, pick and removal (compaction
included) the store must be in age order: keys strictly increase from
``head`` on and ``head`` is the oldest live candidate.  Each policy's trials
must between them make out-of-order pushes, so the insertion path runs.

Hypothesis draws the shape of a trial and a seed; the transactions come
from ``random.Random(seed)`` one after another, so shrinking ``count`` cuts
a failure down to a short prefix of its transactions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import lt
from typing import Dict, List, NamedTuple, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.memctrl.aging import AgingTracker
from repro.memctrl.columnar import ColumnarStore, make_selector
from repro.memctrl.policies import make_policy
from repro.memctrl.scheduler import SchedulingContext
from repro.memctrl.transaction import QueueClass, Transaction

SELECTOR_POLICIES = (
    "fcfs",
    "fr_fcfs",
    "frame_rate_qos",
    "priority_qos",
    "priority_rowbuffer",
    "round_robin",
)

#: Enqueue times of the initial candidates lie in ``[0, TIME_SPAN]``.
TIME_SPAN = 2_000


class Spec(NamedTuple):
    """One generated transaction, with its bank slot, row and enqueue time."""

    priority: int
    queue_class: QueueClass
    dma: str
    behind: bool
    bank: int
    row: int
    time_ps: int


@dataclass
class Trial:
    """One generated trial: how its transactions arrive and how they are
    arbitrated."""

    seed: int
    count: int
    late: int
    dmas: int
    banks: int
    rows: int
    behind_share: float
    open_rows: List[int]
    push_every: int
    steps: List[int]
    threshold_ps: int
    row_buffer_delta: int
    with_aging: bool
    age_order: bool

    def specs(self) -> Tuple[List[Spec], List[Spec]]:
        """The initial candidates and the late arrivals."""

        def draw(rng: random.Random) -> Spec:
            return Spec(
                rng.randrange(8),
                rng.choice(list(QueueClass)),
                f"dma{rng.randrange(self.dmas)}",
                rng.random() < self.behind_share,
                rng.randrange(self.banks),
                rng.randrange(self.rows),
                rng.randint(0, TIME_SPAN),
            )

        initial_rng = random.Random(self.seed)
        late_rng = random.Random(self.seed + 1)
        return (
            [draw(initial_rng) for _ in range(self.count)],
            [draw(late_rng) for _ in range(self.late)],
        )


@st.composite
def trials(draw) -> Trial:
    banks = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 4))
    return Trial(
        seed=draw(st.integers(0, 2**32 - 1)),
        count=draw(st.integers(1, 300)),
        late=draw(st.integers(0, 40)),
        dmas=draw(st.integers(1, 12)),
        banks=banks,
        rows=rows,
        behind_share=draw(st.sampled_from((0.0, 0.1, 0.5, 1.0))),
        open_rows=draw(st.lists(st.integers(-1, rows - 1), min_size=banks, max_size=banks)),
        push_every=draw(st.integers(1, 8)),
        steps=draw(st.lists(st.integers(0, 40), min_size=1, max_size=8)),
        threshold_ps=draw(st.integers(1, 2 * TIME_SPAN)),
        row_buffer_delta=draw(st.integers(0, 8)),
        with_aging=draw(st.booleans()),
        age_order=draw(st.booleans()),
    )


def _transaction(spec: Spec, enqueued_ps: int) -> Transaction:
    txn = Transaction(
        "core", spec.dma, spec.queue_class, 0, 64, False, spec.priority, spec.behind, 0
    )
    # Stamped the way MemoryController.enqueue stamps an arrival.
    txn.enqueued_ps = enqueued_ps
    txn.sort_key = (enqueued_ps, txn.uid)
    return txn


def _assert_age_order(store: ColumnarStore) -> None:
    """Keys strictly increase from ``head`` on (dead entries included, which
    the insertion's bisection relies on), nothing before ``head`` is live,
    and ``head`` is live whenever anything is: the oldest live candidate."""
    head = store.head
    assert True not in store.alive[:head]
    keys = store.skey[head:]
    assert all(map(lt, keys, keys[1:]))
    if store.live:
        assert store.alive[head]


def _run_trial(policy_name: str, trial: Trial) -> int:
    """Drive one trial; returns how many pushes were inserted out of order."""
    open_rows = list(trial.open_rows)
    aging = AgingTracker(trial.threshold_ps, 1) if trial.with_aging else None
    reference_aging = AgingTracker(trial.threshold_ps, 1) if trial.with_aging else None
    selector = make_selector(
        make_policy(policy_name),
        aging=aging,
        row_buffer_delta=trial.row_buffer_delta,
        open_rows=[open_rows],
    )
    reference = make_policy(policy_name)
    store = ColumnarStore.for_selector(selector, {}, track_rows=True)
    bank_row: Dict[int, Tuple[int, int]] = {}
    live: List[Transaction] = []
    inserted = 0

    def push(spec: Spec, enqueued_ps: int) -> None:
        nonlocal inserted
        txn = _transaction(spec, enqueued_ps)
        bank_row[txn.uid] = (spec.bank, spec.row)
        size = store.size
        if store.push(txn, spec.bank, spec.row) != size:
            inserted += 1
        live.append(txn)
        _assert_age_order(store)

    def is_row_hit(txn) -> bool:
        bank, row = bank_row[txn.uid]
        return open_rows[bank] == row

    initial, late = trial.specs()
    if trial.age_order:
        # Uids follow list order, so a stable sort on time is age order.
        initial.sort(key=lambda spec: spec.time_ps)
    for spec in initial:
        push(spec, spec.time_ps)
    now_ps = max(spec.time_ps for spec in initial)
    arrivals = iter(late)
    picks = 0
    while live:
        context = SchedulingContext(
            now_ps=now_ps,
            is_row_hit=is_row_hit,
            aging=reference_aging,
            row_buffer_delta=trial.row_buffer_delta,
        )
        expected = reference.select(list(live), context)
        index = selector.select(store, now_ps, 0)
        assert store.objs[index] is expected, (
            f"pick {picks} at {now_ps} ps: selector chose uid "
            f"{store.objs[index].uid}, policy chose uid {expected.uid}"
        )
        _assert_age_order(store)
        store.remove_index(index)
        _assert_age_order(store)
        live.remove(expected)
        assert store.live == len(live)
        # The controller latches the issued row into its open-row mirror.
        bank, row = bank_row[expected.uid]
        open_rows[bank] = row
        picks += 1
        if picks % trial.push_every == 0:
            spec = next(arrivals, None)
            if spec is not None:
                # In age order a late arrival is the youngest candidate;
                # otherwise it may be older than ones already queued.
                push(spec, now_ps if trial.age_order else min(spec.time_ps, now_ps))
        now_ps += trial.steps[picks % len(trial.steps)]
    if trial.with_aging:
        assert aging.aged_served == reference_aging.aged_served
    return inserted


@pytest.mark.parametrize("policy_name", SELECTOR_POLICIES)
def test_selector_picks_what_its_policy_picks(policy_name):
    inserted = []

    @settings(max_examples=100, deadline=None)
    @given(trial=trials())
    def check(trial):
        inserted.append(_run_trial(policy_name, trial))

    check()
    # Generation-order trials push older arrivals behind younger ones; if
    # none did, the insertion path went untested.
    assert sum(inserted) > 0
