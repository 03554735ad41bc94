"""Tests for the additional literature baselines: ATLAS, TCM, SMS and EDF."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.memctrl.aging import AgingTracker
from repro.memctrl.policies import available_policies, make_policy
from repro.memctrl.policies.atlas import AtlasPolicy
from repro.memctrl.policies.edf import DEFAULT_BUDGETS_PS, EdfPolicy
from repro.memctrl.policies.sms import SmsPolicy
from repro.memctrl.policies.tcm import TcmPolicy
from repro.memctrl.scheduler import SchedulingContext
from repro.memctrl.transaction import QueueClass, Transaction
from repro.sim.clock import US
from repro.sim.config import KNOWN_ARBITRATIONS

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: One full-result digest of a short TCM run, printed by a fresh interpreter.
_TCM_DIGEST_SCRIPT = """
import hashlib, json
from repro.analysis.serialize import experiment_result_to_dict
from repro.sim.clock import MS
from repro.system.experiment import run_experiment
result = run_experiment("case_b", policy="tcm", duration_ps=MS // 8, keep_trace=True)
payload = json.dumps(experiment_result_to_dict(result, include_trace=True), sort_keys=True)
print(hashlib.sha256(payload.encode()).hexdigest())
"""


def txn(
    dma: str,
    created_ps: int = 0,
    size_bytes: int = 256,
    queue_class: QueueClass = QueueClass.MEDIA,
    priority: int = 0,
) -> Transaction:
    transaction = Transaction(
        source=dma.split(".")[0],
        dma=dma,
        queue_class=queue_class,
        address=0x1000,
        size_bytes=size_bytes,
        is_write=False,
        priority=priority,
        created_ps=created_ps,
    )
    transaction.enqueued_ps = created_ps
    transaction.sort_key = (created_ps, transaction.uid)
    return transaction


def context(now_ps: int = 1_000_000) -> SchedulingContext:
    return SchedulingContext(now_ps=now_ps, is_row_hit=lambda _t: False, aging=None)


class TestRegistryConsistency:
    def test_new_policies_are_registered(self):
        names = set(available_policies())
        assert {"atlas", "tcm", "sms", "edf"}.issubset(names)

    def test_registry_matches_noc_arbitration_whitelist(self):
        assert set(available_policies()) == set(KNOWN_ARBITRATIONS)

    @pytest.mark.parametrize("name", ["atlas", "tcm", "sms", "edf"])
    def test_make_policy_builds_each(self, name):
        policy = make_policy(name)
        assert policy.name == name

    @pytest.mark.parametrize("name", sorted(KNOWN_ARBITRATIONS))
    def test_every_policy_selects_from_single_candidate(self, name):
        policy = make_policy(name)
        only = txn("display.refill")
        assert policy.select([only], context()) is only


class TestAtlasPolicy:
    def test_prefers_least_attained_source(self):
        policy = AtlasPolicy()
        heavy = txn("gpu.read", created_ps=0)
        light = txn("dsp.read", created_ps=10)
        # Serve the heavy source a few times first.
        for _ in range(3):
            assert policy.select([heavy], context()) is heavy
        assert policy.select([heavy, light], context()) is light

    def test_epoch_decay_forgets_history(self):
        policy = AtlasPolicy(epoch_ps=1_000, decay=0.0)
        heavy = txn("gpu.read")
        policy.select([heavy], context(now_ps=100))
        assert policy.attained_bytes("gpu.read") > 0
        # After a full epoch with zero decay factor the history is erased.
        policy.select([txn("dsp.read")], context(now_ps=5_000))
        assert policy.attained_bytes("gpu.read") == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AtlasPolicy(epoch_ps=0)
        with pytest.raises(ValueError):
            AtlasPolicy(decay=1.0)

    def test_ties_broken_by_age(self):
        policy = AtlasPolicy()
        older = txn("a.read", created_ps=0)
        newer = txn("b.read", created_ps=100)
        assert policy.select([newer, older], context()) is older


class TestTcmPolicy:
    def test_light_cluster_gets_strict_preference(self):
        policy = TcmPolicy(epoch_ps=1_000)
        heavy = txn("gpu.read", size_bytes=4096)
        light = txn("gps.read", size_bytes=64)
        # First epoch: build up bandwidth history.
        for _ in range(20):
            policy.select([heavy, light], context(now_ps=100))
        # Roll into the next epoch so clustering happens.
        policy.select([heavy, light], context(now_ps=2_500))
        if policy.is_latency_sensitive("gps.read"):
            chosen = policy.select([heavy, light], context(now_ps=2_600))
            assert chosen is light

    def test_reclustering_marks_low_bandwidth_sources(self):
        policy = TcmPolicy(epoch_ps=1_000, light_cluster_share=0.3)
        heavy = txn("gpu.read", size_bytes=8192)
        light = txn("dsp.read", size_bytes=64)
        for _ in range(10):
            policy.select([heavy], context(now_ps=10))
            policy.select([light], context(now_ps=10))
        policy.select([heavy], context(now_ps=1_500))
        assert policy.is_latency_sensitive("dsp.read")
        assert not policy.is_latency_sensitive("gpu.read")

    def test_results_do_not_depend_on_the_string_hash_seed(self):
        # Python salts str hashes per process: a heavy-cluster ranking built
        # on hash() made sweep workers, the result cache and a fresh run
        # disagree on the same point.
        digests = set()
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", _TCM_DIGEST_SCRIPT],
                env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1, digests

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TcmPolicy(epoch_ps=-1)
        with pytest.raises(ValueError):
            TcmPolicy(light_cluster_share=1.0)


class TestSmsPolicy:
    def test_prefers_source_with_smallest_batch(self):
        policy = SmsPolicy(sjf_weight=100)
        big_batch = [txn("gpu.read", created_ps=i) for i in range(5)]
        small_batch = [txn("dsp.read", created_ps=50)]
        chosen = policy.select(big_batch + small_batch, context())
        assert chosen.dma == "dsp.read"

    def test_round_robin_decision_interleaves_sources(self):
        policy = SmsPolicy(sjf_weight=1)
        batch_a = [txn("a.read", created_ps=i) for i in range(3)]
        batch_b = [txn("b.read", created_ps=i) for i in range(3)]
        served = [policy.select(batch_a + batch_b, context()).dma for _ in range(4)]
        assert set(served) == {"a.read", "b.read"}

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            SmsPolicy(sjf_weight=0)


class TestEdfPolicy:
    def test_dsp_deadline_beats_media(self):
        policy = EdfPolicy()
        dsp = txn("dsp.read", created_ps=0, queue_class=QueueClass.DSP)
        media = txn("codec.read", created_ps=0, queue_class=QueueClass.MEDIA)
        assert policy.select([media, dsp], context()) is dsp

    def test_earlier_creation_wins_within_class(self):
        policy = EdfPolicy()
        early = txn("codec.read", created_ps=0)
        late = txn("rotator.read", created_ps=10 * US)
        assert policy.select([late, early], context()) is early

    def test_custom_budgets_override_defaults(self):
        policy = EdfPolicy(budgets_ps={QueueClass.MEDIA: 1})
        media = txn("codec.read", created_ps=0, queue_class=QueueClass.MEDIA)
        dsp = txn("dsp.read", created_ps=0, queue_class=QueueClass.DSP)
        assert policy.select([media, dsp], context()) is media

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            EdfPolicy(budgets_ps={QueueClass.DSP: 0})

    def test_default_budgets_cover_all_classes(self):
        assert set(DEFAULT_BUDGETS_PS) == set(QueueClass)


class TestPolicyProperties:
    @given(
        name=st.sampled_from(sorted(KNOWN_ARBITRATIONS)),
        ages=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_selected_transaction_is_always_a_candidate(self, name, ages):
        policy = make_policy(name)
        candidates: List[Transaction] = [
            txn(f"dma{i % 4}.read", created_ps=age, priority=i % 8)
            for i, age in enumerate(ages)
        ]
        chosen = policy.select(candidates, context(now_ps=2_000_000))
        assert chosen in candidates

    @given(name=st.sampled_from(sorted(KNOWN_ARBITRATIONS)))
    @settings(max_examples=20, deadline=None)
    def test_empty_candidate_list_raises(self, name):
        policy = make_policy(name)
        with pytest.raises(ValueError):
            policy.select([], context())

    @given(
        name=st.sampled_from(sorted(KNOWN_ARBITRATIONS)),
        count=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_repeated_selection_drains_every_candidate(self, name, count):
        """Serving and removing the winner repeatedly never loses a transaction."""
        policy = make_policy(name)
        aging = AgingTracker(threshold_cycles=10_000, clock_period_ps=536)
        candidates = [
            txn(f"dma{i % 3}.read", created_ps=i * 1_000, priority=(i * 3) % 8)
            for i in range(count)
        ]
        remaining = list(candidates)
        served = []
        now = 1_000_000
        while remaining:
            ctx = SchedulingContext(
                now_ps=now, is_row_hit=lambda _t: False, aging=aging
            )
            chosen = policy.select(remaining, ctx)
            served.append(chosen)
            remaining.remove(chosen)
            now += 1_000
        assert sorted(t.uid for t in served) == sorted(t.uid for t in candidates)
