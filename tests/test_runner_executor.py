"""Tests for the executor layer: retries, quarantine, dead-worker recovery.

The strict default must keep the historical ``run_sweep`` contract exactly
(one attempt, failures raise, bit-identical results across executors), and
the resilient policies must turn injected faults into retries or
quarantined points — never a hung or silently wrong sweep.

Fault injection uses the deterministic harness in
:mod:`repro.runner.faults`: a fault plan in the environment plus a shared
tick directory, so "the second spec fails once" means exactly that, no
matter which worker runs it.
"""

from __future__ import annotations

import pytest

from repro.analysis.serialize import experiment_result_to_dict
from repro.runner import (
    RESILIENT_POLICY,
    STRICT_POLICY,
    FailurePolicy,
    InProcessExecutor,
    PoolExecutor,
    WorkerDiedError,
    compare_policies_specs,
    run_sweep,
)
from repro.runner.faults import ENV_FAULT, ENV_FAULT_DIR, FaultPlan, InjectedFaultError
from repro.runner.pool import TaskOutcome
from repro.runner.sweep import SweepStats
from repro.sim.clock import MS
from repro.system.experiment import RunTimings

SHORT_PS = 2 * MS // 5
TRAFFIC = 0.2


def _specs(policies=("fcfs", "round_robin")):
    return compare_policies_specs(
        list(policies), scenario="case_b", duration_ps=SHORT_PS, traffic_scale=TRAFFIC
    )


def _fingerprints(results):
    return [experiment_result_to_dict(r, include_trace=True) for r in results]


@pytest.fixture
def fault_env(tmp_path, monkeypatch):
    """Arm a fault plan for the duration of one test."""

    def arm(plan: str) -> None:
        monkeypatch.setenv(ENV_FAULT, FaultPlan.parse(plan).to_env())
        monkeypatch.setenv(ENV_FAULT_DIR, str(tmp_path / "fault-state"))

    return arm


class TestFailurePolicy:
    def test_strict_default_is_one_attempt_raise(self):
        assert STRICT_POLICY.max_attempts == 1
        assert STRICT_POLICY.on_exhausted == "raise"

    def test_resilient_quarantines(self):
        assert RESILIENT_POLICY.max_attempts == 3
        assert RESILIENT_POLICY.on_exhausted == "quarantine"

    def test_validation(self):
        with pytest.raises(ValueError):
            FailurePolicy(max_attempts=0)
        with pytest.raises(ValueError):
            FailurePolicy(timeout_s=0)
        with pytest.raises(ValueError):
            FailurePolicy(on_exhausted="ignore")

    def test_backoff_is_deterministic_and_bounded(self):
        policy = FailurePolicy(
            max_attempts=5, backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5
        )
        first = [policy.backoff_for(attempt, "key") for attempt in range(1, 5)]
        second = [policy.backoff_for(attempt, "key") for attempt in range(1, 5)]
        assert first == second  # jitter is a hash, not a random draw
        assert all(delay <= 0.5 * (1.0 + policy.jitter) for delay in first)
        # Exponential growth until the cap.
        assert first[1] > first[0]

    def test_backoff_jitter_varies_by_key(self):
        policy = FailurePolicy(max_attempts=2)
        assert policy.backoff_for(1, "a") != policy.backoff_for(1, "b")


class TestInProcessRetries:
    def test_transient_error_is_retried_to_success(self, fault_env):
        baseline, _ = run_sweep(_specs())
        fault_env("error:spec=1,times=1")
        results, stats = run_sweep(
            _specs(),
            executor=InProcessExecutor(),
            failure_policy=FailurePolicy(max_attempts=2, backoff_base_s=0.01),
        )
        assert _fingerprints(results) == _fingerprints(baseline)
        assert stats.retries == 1
        assert not stats.quarantined

    def test_strict_policy_raises_on_first_failure(self, fault_env):
        fault_env("error:spec=1,times=1")
        with pytest.raises(InjectedFaultError):
            run_sweep(_specs(), executor=InProcessExecutor())

    def test_poison_spec_is_quarantined_not_fatal(self, fault_env):
        # times=10 outlives every retry: the point can never succeed.
        fault_env("error:spec=2,times=10")
        results, stats = run_sweep(
            _specs(),
            executor=InProcessExecutor(),
            failure_policy=FailurePolicy(
                max_attempts=3, backoff_base_s=0.01, on_exhausted="quarantine"
            ),
        )
        assert len(stats.quarantined) == 1
        record = stats.quarantined[0]
        assert record.attempts == 3
        assert "InjectedFaultError" in record.error
        # The healthy point still landed.
        assert sum(1 for r in results if r is not None) == 1


class TestPoolExecutor:
    def test_parity_with_sequential(self):
        baseline, _ = run_sweep(_specs())
        results, stats = run_sweep(_specs(), executor=PoolExecutor(jobs=2))
        assert _fingerprints(results) == _fingerprints(baseline)
        assert stats.retries == 0

    def test_worker_crash_is_retried(self, fault_env):
        baseline, _ = run_sweep(_specs())
        fault_env("crash:spec=1,times=1")
        results, stats = run_sweep(
            _specs(),
            executor=PoolExecutor(jobs=2, batching=False),
            failure_policy=FailurePolicy(max_attempts=3, backoff_base_s=0.01),
        )
        assert _fingerprints(results) == _fingerprints(baseline)
        assert stats.retries >= 1

    def test_worker_death_names_the_victims_under_strict_policy(self, fault_env):
        # Satellite 1: a dead worker must surface as WorkerDiedError naming
        # the affected spec labels — not hang the sweep.
        fault_env("crash:spec=1,times=99")
        with pytest.raises(WorkerDiedError) as excinfo:
            run_sweep(_specs(), executor=PoolExecutor(jobs=2, batching=False))
        message = str(excinfo.value)
        assert "worker died" in message
        assert "fcfs" in message or "round_robin" in message
        assert excinfo.value.exitcode is not None

    def test_corrupt_payload_is_caught_and_retried(self, fault_env):
        baseline, _ = run_sweep(_specs())
        fault_env("corrupt:spec=1,times=1")
        results, stats = run_sweep(
            _specs(),
            executor=PoolExecutor(jobs=2, batching=False),
            failure_policy=FailurePolicy(max_attempts=2, backoff_base_s=0.01),
        )
        assert _fingerprints(results) == _fingerprints(baseline)
        assert stats.retries == 1

    @pytest.mark.parametrize(
        "fault",
        [
            "hang:spec=1,times=1,hang_s=60",
            # Alive but silent: the result is computed and never sent.
            "lost-heartbeat:spec=1,times=1,hang_s=60",
        ],
        ids=["hang", "lost-heartbeat"],
    )
    def test_hung_worker_hits_spec_timeout(self, fault_env, fault):
        baseline, _ = run_sweep(_specs())
        fault_env(fault)
        results, stats = run_sweep(
            _specs(),
            executor=PoolExecutor(jobs=2, batching=False),
            failure_policy=FailurePolicy(
                timeout_s=10.0, max_attempts=2, backoff_base_s=0.01
            ),
        )
        assert _fingerprints(results) == _fingerprints(baseline)
        assert stats.retries >= 1

    def test_crash_quarantines_after_budget(self, fault_env):
        fault_env("crash:spec=2,times=99")
        results, stats = run_sweep(
            _specs(),
            executor=PoolExecutor(jobs=2, batching=False),
            failure_policy=FailurePolicy(
                max_attempts=2, backoff_base_s=0.01, on_exhausted="quarantine"
            ),
        )
        assert len(stats.quarantined) == 1
        assert stats.quarantined[0].attempts == 2
        assert sum(1 for r in results if r is not None) == 1


class TestPoolRecovery:
    def test_pool_respawns_and_finishes_full_grid(self, fault_env):
        # One crash early in a 4-point sweep: the pool must replace the dead
        # worker and still land every point bit-identically.
        policies = ("fcfs", "round_robin", "frame_rate_qos", "priority_qos")
        baseline, _ = run_sweep(_specs(policies))
        fault_env("crash:spec=1,times=1")
        executor = PoolExecutor(jobs=2, batching=False)
        results, stats = run_sweep(
            _specs(policies),
            executor=executor,
            failure_policy=FailurePolicy(max_attempts=3, backoff_base_s=0.01),
        )
        assert _fingerprints(results) == _fingerprints(baseline)
        assert stats.retries >= 1


class _TimedSpec:
    """A stand-in spec that only carries the simulation time it "took"."""

    def __init__(self, sim_s: float) -> None:
        self.sim_s = sim_s

    def display_label(self) -> str:
        return f"{self.sim_s:g}s"


class _ScriptedPool:
    """A two-worker pool whose session lands each submitted batch on a
    scripted worker slot, in a scripted order, without running anything."""

    jobs = 2

    def __init__(self, landing):
        #: (task id, worker slot) in landing order.
        self.landing = landing

    def start(self) -> float:
        return 0.0

    def session(self):
        return _ScriptedSession(self.landing)


class _ScriptedSession:
    def __init__(self, landing):
        self.landing = landing
        self.batches = []

    def submit(self, function, batch, timeout_s=None, describe=""):
        self.batches.append(batch)
        return len(self.batches) - 1

    def outcomes(self):
        for task_id, worker in self.landing:
            value = [
                (position, None, RunTimings(sim_s=spec.sim_s))
                for position, spec in self.batches[task_id]
            ]
            yield TaskOutcome(task_id, value=value, worker=worker)


class TestCriticalPath:
    def test_sim_wall_is_the_longest_worker_chain(self):
        # Worker 0 runs one 3 s batch; worker 1 runs three 1 s batches.
        # They land as 1, 1, 3, 1: adding each landed batch to whichever
        # chain was shortest then would read 4 s, more than either worker.
        cold = [
            ([index], _TimedSpec(sim_s), f"k{index}")
            for index, sim_s in enumerate((3.0, 1.0, 1.0, 1.0))
        ]
        landing = [(1, 1), (2, 1), (0, 0), (3, 1)]
        executor = PoolExecutor(_ScriptedPool(landing), batching=False)
        stats = SweepStats()
        landed = list(executor.execute(cold, stats, STRICT_POLICY))
        assert [event.entry[2] for event in landed] == ["k1", "k2", "k0", "k3"]
        assert stats.sim_wall_s == 3.0
