"""The executor layer: one execution contract, two ways to run it.

``run_sweep`` historically hard-wired its two cold paths (sequential
in-process, batched warm pool).  This module lifts "execute these cold
specs" behind :class:`Executor`, so the sweep's bookkeeping — cache
writes, result placement, progress, observers — is written once while the
*mechanism* varies:

* :class:`InProcessExecutor` — the sequential path: no processes, no IPC.
* :class:`PoolExecutor` — batched dispatch on a (possibly warm)
  :class:`~repro.runner.pool.WorkerPool`; the one multi-process path.

Both share one :class:`FailurePolicy`: per-spec wall-clock timeouts,
retry with exponential backoff (jitter is *deterministic* — derived from
the spec key and attempt number, never from a clock or RNG — so two runs
of the same failing sweep behave identically), and poison-point
*quarantine*: after ``max_attempts`` failures a spec is recorded as a
:class:`QuarantinedPoint` and the sweep completes without it, instead of
aborting everything the other workers already produced.  The default
policy (:data:`STRICT_POLICY`) is one attempt and raise-on-failure —
exactly the semantics existing callers already rely on.

Executors yield a stream of :class:`Landed` / :class:`QuarantinedPoint`
events; they own parallelism, retries and the fault taxonomy below, while
the sweep driver owns what landing *means*.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Tuple, Union

from repro import obs
from repro.runner.faults import (
    CorruptResult,
    FaultInjector,
    VanishResult,
    apply_process_fault,
    wrap_result,
)
from repro.scenario import load_plugins
from repro.system.experiment import ExperimentResult, RunTimings, run_experiment_timed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pool imports us)
    from repro.runner.pool import WorkerPool
    from repro.runner.sweep import RunSpec, SweepStats

#: One cold point, as the sweep driver hands it over: the spec indices that
#: share the result (head executed, tail deduplicated), the spec, its key.
ColdEntry = Tuple[List[int], "RunSpec", str]


# --------------------------------------------------------------------------- #
# Fault taxonomy
# --------------------------------------------------------------------------- #
class ExecutionFault(RuntimeError):
    """Base for infrastructure failures (as opposed to task exceptions)."""


class WorkerDiedError(ExecutionFault):
    """A worker process died (crash, OOM kill) while holding work."""

    def __init__(self, labels: str, exitcode: Optional[int] = None) -> None:
        detail = f"exit code {exitcode}" if exitcode is not None else "no exit code"
        super().__init__(f"worker died ({detail}) while running: {labels}")
        self.labels = labels
        self.exitcode = exitcode


class SpecTimeoutError(ExecutionFault):
    """A spec (or batch) exceeded its wall-clock timeout and was killed."""

    def __init__(self, labels: str, timeout_s: float) -> None:
        super().__init__(f"timed out after {timeout_s:g}s: {labels}")
        self.labels = labels
        self.timeout_s = timeout_s


class PayloadError(ExecutionFault):
    """A result payload failed its integrity check (corrupt in flight)."""


# --------------------------------------------------------------------------- #
# Failure policy
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FailurePolicy:
    """What happens when a spec fails: how long to wait, how often to retry.

    ``backoff_for`` grows exponentially and adds *deterministic* jitter — a
    hash of the spec key and attempt number — so concurrent retries spread
    out without making any run irreproducible.  ``on_exhausted`` picks
    between the strict contract (``"raise"``: the sweep aborts with the
    last error) and the resilient one (``"quarantine"``: the sweep
    completes, the point is recorded as failed).
    """

    timeout_s: Optional[float] = None
    max_attempts: int = 1
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.25
    on_exhausted: str = "raise"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.on_exhausted not in ("raise", "quarantine"):
            raise ValueError(
                f"on_exhausted must be 'raise' or 'quarantine', got {self.on_exhausted!r}"
            )

    def backoff_for(self, attempt: int, key: str) -> float:
        """Delay before retry number ``attempt + 1`` of the spec ``key``."""
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1),
        )
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
        return base * (1.0 + self.jitter * fraction)


#: The historical ``run_sweep`` contract: one attempt, any failure raises.
STRICT_POLICY = FailurePolicy()

#: The fault-tolerant default for campaigns that opt in: three attempts per
#: spec, then quarantine — the campaign always completes.
RESILIENT_POLICY = FailurePolicy(max_attempts=3, on_exhausted="quarantine")


# --------------------------------------------------------------------------- #
# Execution events
# --------------------------------------------------------------------------- #
@dataclass
class Landed:
    """One cold spec executed successfully (possibly after retries)."""

    entry: ColdEntry
    result: ExperimentResult
    timings: RunTimings
    attempts: int = 1


@dataclass(frozen=True)
class QuarantinedPoint:
    """One cold spec that exhausted its attempts and was set aside.

    ``indices`` are the sweep positions the spec covered (including
    deduplicated duplicates); ``error`` is ``ClassName: message`` of the
    last failure — stable text, no pids or addresses, so it is safe to
    record in a manifest.
    """

    label: str
    key: str
    attempts: int
    error: str
    indices: Tuple[int, ...] = ()


ExecutionEvent = Union[Landed, QuarantinedPoint]


def describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _labels(entries: List[ColdEntry]) -> str:
    return ", ".join(entry[1].display_label() for entry in entries)


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #
class Executor:
    """The execution contract ``run_sweep`` drives.

    ``execute`` yields one event per cold entry — :class:`Landed` or
    :class:`QuarantinedPoint` — in completion order, updating the
    mechanism-owned stats fields (``batches``, ``pool_startup_s``,
    ``sim_wall_s``, ``retries``) as it goes.  Raising aborts the sweep
    (the strict policy's exhaustion path).  ``jobs`` is how many processes
    run specs at once; the sweep reports it as ``SweepStats.jobs``.
    """

    name = "executor"
    jobs = 1

    def execute(
        self,
        cold: List[ColdEntry],
        stats: "SweepStats",
        policy: FailurePolicy,
        cache_dir: Optional[str] = None,
    ) -> Iterator[ExecutionEvent]:
        raise NotImplementedError


def run_spec_guarded(spec: "RunSpec", injector: Optional[FaultInjector]) -> Any:
    """Execute one spec with fault hooks; the worker/in-process common core.

    Returns ``(result, timings)`` possibly wrapped in a payload-fault
    marker (:class:`~repro.runner.faults.CorruptResult` /
    :class:`~repro.runner.faults.VanishResult`) for the IPC layer.
    """
    load_plugins(spec.plugin_modules)
    plan = injector.fires() if injector is not None else None
    if plan is not None:
        apply_process_fault(plan)  # crash / hang / error act before the run
    with obs.span("point.run", label=spec.display_label()):
        result, timings = run_experiment_timed(
            spec.resolved_scenario(), keep_trace=spec.keep_trace
        )
    return wrap_result(plan, (result, timings))


def execute_batch_guarded(
    batch: List[Tuple[int, "RunSpec"]],
) -> Any:
    """Worker entry point: run one batch of (position, spec) pairs.

    Mirrors the historical ``_execute_batch`` but threads the fault
    injector through each spec.  A payload fault on *any* spec marks the
    whole batch's envelope (the batch is one IPC message, so that is the
    granularity corruption physically has).
    """
    injector = FaultInjector.from_env()
    executed: List[Tuple[int, ExperimentResult, RunTimings]] = []
    marker: Optional[Any] = None
    for position, spec in batch:
        value = run_spec_guarded(spec, injector)
        if isinstance(value, (CorruptResult, VanishResult)):
            marker = value
            value = value.value
        result, timings = value
        executed.append((position, result, timings))
    if isinstance(marker, CorruptResult):
        return CorruptResult(executed)
    if isinstance(marker, VanishResult):
        return VanishResult(executed, marker.hang_s)
    return executed


class InProcessExecutor(Executor):
    """Sequential execution in the driver process.

    Timeouts are documented-unenforced here: there is no second process to
    keep the clock, and killing the driver to stop a spec would defeat the
    point.  ``crash`` faults genuinely take the driver down — which is the
    scenario ``campaign run --resume`` exists for, not one retry can fix.
    """

    name = "inprocess"

    def execute(
        self,
        cold: List[ColdEntry],
        stats: "SweepStats",
        policy: FailurePolicy,
        cache_dir: Optional[str] = None,
    ) -> Iterator[ExecutionEvent]:
        injector = FaultInjector.from_env()
        for entry in cold:
            indices, spec, key = entry
            attempt = 0
            while True:
                attempt += 1
                try:
                    value = run_spec_guarded(spec, injector)
                    if not isinstance(value, tuple):
                        value = value.value  # payload faults are moot in-process
                    result, timings = value
                except Exception as exc:
                    event = self._on_failure(entry, attempt, exc, policy, stats)
                    if event is None:
                        continue
                    yield event
                    break
                yield Landed(entry, result, timings, attempt)
                break
        # One process, one chain: simulation wall time is the full sum.
        stats.sim_wall_s = stats.sim_cpu_s

    @staticmethod
    def _on_failure(
        entry: ColdEntry,
        attempt: int,
        exc: Exception,
        policy: FailurePolicy,
        stats: "SweepStats",
    ) -> Optional[QuarantinedPoint]:
        indices, spec, key = entry
        if attempt < policy.max_attempts:
            stats.retries += 1
            delay = policy.backoff_for(attempt, key)
            obs.instant(
                "executor.retry",
                label=spec.display_label(),
                attempt=attempt,
                backoff_s=round(delay, 6),
            )
            time.sleep(delay)
            return None
        if policy.on_exhausted == "quarantine":
            obs.instant(
                "executor.quarantine",
                label=spec.display_label(),
                attempts=attempt,
                error=type(exc).__name__,
            )
            return QuarantinedPoint(
                label=spec.display_label(),
                key=key,
                attempts=attempt,
                error=describe_error(exc),
                indices=tuple(indices),
            )
        raise exc


@dataclass
class _PoolTask:
    """Book-keeping for one in-flight pool submission."""

    positions: List[int]
    attempt: int = 1  # how many times each covered spec has been tried


class PoolExecutor(Executor):
    """Cost-batched dispatch on a :class:`~repro.runner.pool.WorkerPool`.

    Failure isolation works by *splitting*: when a batch fails (worker
    death, timeout, corrupt payload, task exception) every spec it covered
    is resubmitted as its own single-spec task after the policy backoff —
    the poison point fails alone on the next round while its innocent
    batch-mates complete.  Dead workers are respawned by the pool session
    itself, so remaining batches keep executing regardless of policy.
    """

    name = "pool"

    def __init__(
        self,
        pool: Optional["WorkerPool"] = None,
        jobs: int = 1,
        batching: bool = True,
    ) -> None:
        self.pool = pool
        self.jobs = pool.jobs if pool is not None else jobs
        self.batching = batching

    def execute(
        self,
        cold: List[ColdEntry],
        stats: "SweepStats",
        policy: FailurePolicy,
        cache_dir: Optional[str] = None,
    ) -> Iterator[ExecutionEvent]:
        from repro.runner.pool import WorkerPool, estimate_cost, plan_batches

        own_pool = self.pool is None
        if own_pool:
            plugin_modules = [m for _, spec, _ in cold for m in spec.plugin_modules]
            pool = WorkerPool(min(self.jobs, len(cold)), plugin_modules=plugin_modules)
        else:
            pool = self.pool
        try:
            stats.pool_startup_s += pool.start()
            if self.batching:
                costed = [
                    ((position, spec), estimate_cost(spec))
                    for position, (_, spec, _) in enumerate(cold)
                ]
                batches = plan_batches(costed, pool.jobs)
            else:
                batches = [
                    [(position, spec)] for position, (_, spec, _) in enumerate(cold)
                ]
            stats.batches = len(batches)
            chains = [0.0] * max(1, pool.jobs)
            session = pool.session()
            pending = {}
            for batch in batches:
                positions = [position for position, _ in batch]
                task_id = session.submit(
                    execute_batch_guarded,
                    batch,
                    timeout_s=(
                        policy.timeout_s * len(batch)
                        if policy.timeout_s is not None
                        else None
                    ),
                    describe=_labels([cold[p] for p in positions]),
                )
                pending[task_id] = _PoolTask(positions)
            for outcome in session.outcomes():
                task = pending.pop(outcome.task_id)
                if outcome.error is None:
                    batch_sim_s = 0.0
                    for position, result, timings in outcome.value:
                        batch_sim_s += timings.sim_s
                        yield Landed(cold[position], result, timings, task.attempt)
                    chains[chains.index(min(chains))] += batch_sim_s
                    continue
                for event in self._retry_or_quarantine(
                    session, pending, cold, task, outcome.error, policy, stats
                ):
                    yield event
            stats.sim_wall_s = max(chains)
        finally:
            if own_pool:
                pool.close()

    def _retry_or_quarantine(
        self,
        session: Any,
        pending: dict,
        cold: List[ColdEntry],
        task: _PoolTask,
        error: Exception,
        policy: FailurePolicy,
        stats: "SweepStats",
    ) -> List[QuarantinedPoint]:
        """Handle one failed submission: resubmit singles, or give up."""
        events: List[QuarantinedPoint] = []
        for position in task.positions:
            indices, spec, key = cold[position]
            if task.attempt < policy.max_attempts:
                stats.retries += 1
                delay = policy.backoff_for(task.attempt, key)
                obs.instant(
                    "executor.retry",
                    label=spec.display_label(),
                    attempt=task.attempt,
                    backoff_s=round(delay, 6),
                    error=type(error).__name__,
                )
                task_id = session.submit(
                    execute_batch_guarded,
                    [(position, spec)],
                    timeout_s=policy.timeout_s,
                    describe=spec.display_label(),
                    not_before=time.monotonic() + delay,
                )
                pending[task_id] = _PoolTask([position], attempt=task.attempt + 1)
            elif policy.on_exhausted == "quarantine":
                obs.instant(
                    "executor.quarantine",
                    label=spec.display_label(),
                    attempts=task.attempt,
                    error=type(error).__name__,
                )
                events.append(
                    QuarantinedPoint(
                        label=spec.display_label(),
                        key=key,
                        attempts=task.attempt,
                        error=describe_error(error),
                        indices=tuple(indices),
                    )
                )
            else:
                raise error
        return events
