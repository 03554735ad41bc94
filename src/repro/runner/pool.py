"""The warm worker pool: persistent spawn workers and batched dispatch plans.

Every ``run_sweep`` call used to build a fresh ``spawn`` pool, so a campaign
of several sweeps (the CLI's ``grid`` command, the benchmark harness, a
notebook iterating on a figure) paid interpreter start-up plus the full
``repro`` import once per sweep *per worker*.  :class:`WorkerPool` makes the
pool a first-class, reusable object: start it once (lazily, on first use),
hand it to as many ``run_sweep`` calls as you like, and the spawn cost — a
second or so for four workers importing the simulator stack — is paid exactly
once.  The pool is a context manager, so the common shape is::

    with WorkerPool(jobs=4) as pool:
        a, _ = run_sweep(grid_a, pool=pool)
        b, _ = run_sweep(grid_b, pool=pool)   # no second spawn

Workers import the whole simulator stack and every declared plugin module in
their initializer, so per-spec work inside a worker is just "resolve, build,
simulate" — no import-system round trips on the hot path.

The pool used to delegate to ``multiprocessing.Pool``, which has a
well-known failure mode: a worker killed mid-task (OOM killer, ``kill -9``)
leaves the caller waiting forever, because the shared result queue cannot
say *whose* result will never arrive.  This implementation manages explicit
``spawn`` :class:`~multiprocessing.Process` workers, each with its own
duplex :func:`~multiprocessing.Pipe`: the parent always knows exactly which
task each worker holds, a dead worker surfaces as EOF on *its own* pipe the
moment it dies, and the pool respawns it and keeps serving.  A worker that
dies before it finishes start-up fails :meth:`WorkerPool.start` at once
with :class:`~repro.runner.executor.WorkerDiedError` instead of respawning
a process that can never come up.  :meth:`WorkerPool.session` exposes that
machinery — per-task timeouts, delayed resubmission, typed
:class:`TaskOutcome` errors — to the executor layer.

Every result crosses the pipe as a pickled payload plus its SHA-256, so a
payload corrupted in flight (or by the ``corrupt`` fault injector) is
*detected* — a typed :class:`~repro.runner.executor.PayloadError` outcome —
rather than deserialized into silent nonsense.

This module also plans *batched dispatch*: instead of one IPC round trip per
spec (painful for grids of very short runs), specs are grouped into
contiguous chunks sized by :func:`estimate_cost` — simulated duration times
the number of active DMA agents, the two knobs that dominate event count —
so each worker message carries roughly equal simulated work and the sweep
still load-balances when one grid point is far heavier than the rest.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro import obs
from repro.runner.executor import PayloadError, SpecTimeoutError, WorkerDiedError
from repro.runner.faults import CorruptResult, VanishResult
from repro.scenario import load_plugins

T = TypeVar("T")

#: Batches per worker the dispatch planner aims for.  More than one batch per
#: worker keeps the pool load-balanced when batch costs are only estimates;
#: each extra batch costs one more IPC round trip.
OVERSUBSCRIBE = 4

#: Fallback agent count when a workload cannot be built in the parent (e.g. a
#: workload kind only registered inside workers via plugin modules).
DEFAULT_AGENT_ESTIMATE = 8


#: How long :meth:`WorkerPool.start` waits for every worker to finish its
#: initializer before giving up on the readiness handshake.  A worker that
#: dies during start-up fails the start at once; the handshake exists so
#: start-up cost is *measured* in ``pool_startup_s`` rather than leaking
#: into the first batch.
STARTUP_TIMEOUT_S = 120.0

#: How often the session's wait loop wakes up with nothing to do — the
#: granularity of timeout enforcement and delayed-resubmission checks.
POLL_S = 0.05


def _send_envelope(conn: Any, task_id: int, status: str, value: Any) -> None:
    """Send one integrity-checked result message from worker to parent.

    The payload is pickled separately from the framing tuple and paired
    with its SHA-256; the parent re-hashes before unpickling.  A
    :class:`~repro.runner.faults.CorruptResult` marker garbles the payload
    *after* the digest is taken — the exact failure the check exists for.
    """
    corrupt = isinstance(value, CorruptResult)
    if corrupt:
        value = value.value
    try:
        payload = pickle.dumps(value)
    except Exception as exc:
        status = "error"
        payload = pickle.dumps(RuntimeError(f"unpicklable worker result: {exc!r}"))
    digest = hashlib.sha256(payload).hexdigest()
    if corrupt:
        middle = len(payload) // 2
        payload = payload[:middle] + bytes([payload[middle] ^ 0xFF]) + payload[middle + 1 :]
    conn.send((task_id, status, payload, digest))


def _worker_main(conn: Any, plugin_modules: Tuple[str, ...], ready: Any) -> None:
    """Worker process body: one-time setup, then a task-at-a-time loop.

    Importing ``repro.runner.sweep`` pulls in the scenario, system and
    engine modules, so the import cost lands in pool start-up (measured as
    ``SweepStats.pool_startup_s``) instead of silently inflating the first
    batch; plugin imports run once per process instead of once per spec.
    A failed import is deliberately swallowed: it is not cached in
    ``sys.modules``, so it retries when the first task runs and the real
    error surfaces as an ordinary task failure with the actionable
    message.  Releasing the semaphore signals :meth:`WorkerPool.start`;
    workers respawned mid-campaign get ``ready=None`` (the start-up
    semaphore may already be gone by the time the child unpickles it).
    """
    obs.install_from_env("pool-worker")
    try:
        with obs.span("worker.start", plugins=len(plugin_modules)):
            import repro.runner.sweep  # noqa: F401  (imports the full simulator stack)

            load_plugins(plugin_modules)
    except Exception:
        pass
    finally:
        if ready is not None:
            ready.release()
    while True:
        obs.flush()
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        task_id, function, argument = message
        try:
            with obs.span("worker.batch"):
                value = function(argument)
        except Exception as exc:
            try:
                payload_exc: Exception = exc
                pickle.dumps(payload_exc)
            except Exception:
                payload_exc = RuntimeError(f"unpicklable worker exception: {exc!r}")
            try:
                _send_envelope(conn, task_id, "error", payload_exc)
            except (BrokenPipeError, OSError):
                return
            continue
        if isinstance(value, VanishResult):
            # lost-heartbeat fault: the result exists but is never sent;
            # from the parent's view this worker is now a zombie, which is
            # what the per-task timeout must handle.
            time.sleep(value.hang_s)
            continue
        try:
            _send_envelope(conn, task_id, "ok", value)
        except (BrokenPipeError, OSError):
            return


@dataclass
class TaskOutcome:
    """How one submitted task ended: a value, or a typed error.

    ``error`` is either an :class:`~repro.runner.executor.ExecutionFault`
    (worker death, timeout, corrupt payload — infrastructure) or the
    exception the task function itself raised (re-raised faithfully by
    strict callers).
    """

    task_id: int
    value: Any = None
    error: Optional[Exception] = None


@dataclass
class _Pending:
    """A submitted-but-unassigned task in the session queue."""

    task_id: int
    function: Callable[[Any], Any]
    argument: Any
    timeout_s: Optional[float]
    describe: str
    not_before: float = 0.0


@dataclass
class _Assigned:
    """What a busy worker is holding, until when, and for which session."""

    task: _Pending
    deadline: Optional[float] = None
    epoch: int = 0


class _Worker:
    """One spawned worker process and the parent's end of its pipe."""

    __slots__ = ("process", "conn", "assigned")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn
        self.assigned: Optional[_Assigned] = None


class TaskSession:
    """A stream of task submissions and outcomes over a pool's workers.

    The session assigns exactly one task per worker at a time, so when a
    worker dies the parent knows precisely which task died with it.
    Submissions are allowed while :meth:`outcomes` is being consumed —
    that is how the executor layer resubmits failed specs with backoff
    (``not_before``) without a second scheduling thread.
    """

    def __init__(self, pool: "WorkerPool") -> None:
        self.pool = pool
        self._queue: deque = deque()
        self._next_task_id = 0
        # Sessions are numbered so a result from an *abandoned* session (a
        # strict sweep raised mid-stream and stopped consuming) is
        # recognizably stale: the worker finishes its old task eventually,
        # and whichever session is listening then just clears it to idle.
        self.epoch = pool._next_epoch
        pool._next_epoch += 1

    def submit(
        self,
        function: Callable[[Any], Any],
        argument: Any,
        timeout_s: Optional[float] = None,
        describe: str = "",
        not_before: float = 0.0,
    ) -> int:
        """Queue one task; returns its id (echoed in the outcome).

        ``not_before`` is a ``time.monotonic()`` floor for assignment —
        the mechanism behind retry backoff.  ``describe`` names the work
        (spec labels) for error messages.
        """
        task_id = self._next_task_id
        self._next_task_id += 1
        self._queue.append(
            _Pending(task_id, function, argument, timeout_s, describe, not_before)
        )
        return task_id

    def outcomes(self) -> Iterator[TaskOutcome]:
        """Yield task outcomes as they land, until nothing is pending.

        The loop: assign queued tasks to idle workers, wait on every
        worker pipe (dead workers surface as EOF), enforce deadlines, and
        repeat.  Workers that die or get killed for a timeout are
        respawned immediately so capacity never decays.
        """
        pool = self.pool
        pool.start()
        while self._queue or any(
            w.assigned is not None and w.assigned.epoch == self.epoch
            for w in pool._workers
        ):
            self._assign_idle()
            yield from self._reap(self._wait_timeout())

    def _assign_idle(self) -> None:
        now = time.monotonic()
        for worker in self.pool._workers:
            if worker.assigned is not None or not self._queue:
                continue
            pending = self._eligible(now)
            if pending is None:
                return
            deadline = now + pending.timeout_s if pending.timeout_s is not None else None
            worker.assigned = _Assigned(pending, deadline, self.epoch)
            try:
                worker.conn.send(
                    ((self.epoch, pending.task_id), pending.function, pending.argument)
                )
            except (BrokenPipeError, OSError):
                # Dead before it got the task: the reap pass will see the
                # EOF and fail this assignment through the normal path.
                pass

    def _eligible(self, now: float) -> Optional[_Pending]:
        """Pop the first queued task whose backoff floor has passed."""
        for _ in range(len(self._queue)):
            pending = self._queue.popleft()
            if pending.not_before <= now:
                return pending
            self._queue.append(pending)
        return None

    def _wait_timeout(self) -> float:
        timeout = POLL_S
        now = time.monotonic()
        for worker in self.pool._workers:
            if worker.assigned is not None and worker.assigned.deadline is not None:
                timeout = min(timeout, max(0.0, worker.assigned.deadline - now))
        return timeout

    def _reap(self, timeout: float) -> Iterator[TaskOutcome]:
        """One wait cycle: landed results, dead workers, expired deadlines."""
        pool = self.pool
        conns = [w.conn for w in pool._workers]
        ready = connection_wait(conns, timeout) if conns else []
        for worker in list(pool._workers):
            if worker.conn in ready:
                outcome = self._receive(worker)
                if outcome is not None:
                    yield outcome
        now = time.monotonic()
        for worker in list(pool._workers):
            assigned = worker.assigned
            if (
                assigned is not None
                and assigned.deadline is not None
                and now >= assigned.deadline
            ):
                pool._kill_worker(worker)
                pool._respawn(worker)
                if assigned.epoch == self.epoch:
                    yield TaskOutcome(
                        assigned.task.task_id,
                        error=SpecTimeoutError(
                            assigned.task.describe, assigned.task.timeout_s or 0.0
                        ),
                    )

    def _receive(self, worker: _Worker) -> Optional[TaskOutcome]:
        """Drain one message (or the EOF of a dead worker) from a pipe."""
        pool = self.pool
        assigned = worker.assigned
        try:
            task_key, status, payload, digest = worker.conn.recv()
        except (EOFError, OSError):
            # EOF can arrive before the child is reaped; a short join makes
            # the exit code available for the error message.
            worker.process.join(1.0)
            exitcode = worker.process.exitcode
            pool._kill_worker(worker)
            pool._respawn(worker)
            if assigned is None or assigned.epoch != self.epoch:
                return None  # died idle (or holding stale work): respawned
            return TaskOutcome(
                assigned.task.task_id,
                error=WorkerDiedError(assigned.task.describe, exitcode),
            )
        worker.assigned = None
        if (
            assigned is None
            or assigned.epoch != self.epoch
            or task_key != (assigned.epoch, assigned.task.task_id)
        ):
            # A straggler from an abandoned session: the worker is healthy
            # and idle again, but nobody wants this result.
            return None
        task_id = assigned.task.task_id
        describe = assigned.task.describe
        if hashlib.sha256(payload).hexdigest() != digest:
            return TaskOutcome(
                task_id,
                error=PayloadError(f"result payload failed integrity check: {describe}"),
            )
        try:
            value = pickle.loads(payload)
        except Exception:
            return TaskOutcome(
                task_id,
                error=PayloadError(f"result payload undecodable: {describe}"),
            )
        if status == "error":
            return TaskOutcome(task_id, error=value)
        return TaskOutcome(task_id, value=value)


class WorkerPool:
    """A persistent ``spawn`` worker pool, reusable across sweeps.

    The pool starts lazily: constructing one is free, and the first
    ``run_sweep`` (or an explicit :meth:`start`) pays the spawn cost.
    ``plugin_modules`` are imported once per worker at start-up; sweeps whose
    specs declare *additional* plugin modules still work — workers import
    those on first use through the idempotent-fast
    :func:`~repro.scenario.load_plugins`.
    """

    def __init__(self, jobs: int, plugin_modules: Sequence[str] = ()) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.plugin_modules = tuple(dict.fromkeys(plugin_modules))
        self._context = multiprocessing.get_context("spawn")
        self._workers: List[_Worker] = []
        self._next_epoch = 0
        #: Wall-clock cost of the most recent :meth:`start`.
        self.startup_s = 0.0
        #: How many times this pool has actually spawned workers.
        self.starts = 0
        #: Workers respawned after dying or being killed for a timeout.
        self.respawns = 0

    @property
    def started(self) -> bool:
        return bool(self._workers)

    def _spawn_one(self, ready: Any) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, self.plugin_modules, ready),
            daemon=True,
        )
        process.start()
        # Close our copy of the child's end: the child's death must read as
        # EOF on the parent end, which it cannot while we hold this open.
        child_conn.close()
        return _Worker(process, parent_conn)

    def start(self) -> float:
        """Spawn the workers if needed; returns the start-up cost just paid.

        Returns ``0.0`` when the pool is already warm — callers can therefore
        unconditionally add the return value to their ``pool_startup_s``.
        """
        if self._workers:
            return 0.0
        with obs.span("pool.start", jobs=self.jobs) as pool_span:
            began = time.perf_counter()
            # Readiness handshake: every worker releases once from its body
            # and the parent acquires jobs times, so start() returns only
            # when all workers have imported the simulator stack and the
            # spawn cost is fully attributed here instead of bleeding into
            # the first dispatched batch.  (A semaphore, not a barrier:
            # release never blocks, so a worker respawned later cannot stall
            # on a handshake nobody else is attending.)
            ready = self._context.Semaphore(0)
            self._workers = [self._spawn_one(ready) for _ in range(self.jobs)]
            self._await_ready(ready)
            self.startup_s = time.perf_counter() - began
            self.starts += 1
            pool_span.set(startup_s=round(self.startup_s, 6))
        return self.startup_s

    def _await_ready(self, ready: Any) -> None:
        """Wait until every worker has reported ready, or one has died.

        The wait runs in :data:`POLL_S` slices with a look at the workers
        in between, so a worker that exits before it reports ready (a spawn
        child that cannot re-import ``__main__``, a plugin that kills the
        interpreter) fails the start at once instead of at the deadline.  A
        release still wakes the wait immediately: a healthy start is no
        slower.
        """
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        waiting = self.jobs
        while waiting and time.monotonic() < deadline:
            if ready.acquire(timeout=POLL_S):
                waiting -= 1
                continue
            for worker in self._workers:
                exitcode = worker.process.exitcode
                if exitcode is not None:
                    self.close()
                    raise WorkerDiedError("pool start-up", exitcode)

    def _kill_worker(self, worker: _Worker) -> None:
        """Forcefully retire one worker (dead already, or being timed out)."""
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(5.0)
            if worker.process.is_alive():  # pragma: no cover - stubborn child
                worker.process.kill()
                worker.process.join(5.0)
        if worker in self._workers:
            self._workers.remove(worker)

    def _respawn(self, worker: _Worker) -> None:
        """Replace a retired worker so pool capacity never decays.

        The replacement gets no readiness semaphore (nobody would wait on
        it, and the parent would drop — and thereby unlink — it before the
        child could unpickle it); it starts serving once its import
        finishes.
        """
        self.respawns += 1
        obs.instant("pool.respawn", respawns=self.respawns)
        self._workers.append(self._spawn_one(None))

    def session(self) -> TaskSession:
        """Open a task session — the executor layer's submission interface."""
        return TaskSession(self)

    def close(self) -> None:
        """Terminate the workers.  The pool can be started again later."""
        for worker in list(self._workers):
            self._kill_worker(worker)
        self._workers = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Batched dispatch planning
# --------------------------------------------------------------------------- #
def estimate_cost(spec: Any) -> float:
    """Estimated execution cost of one run spec (arbitrary relative units).

    Event count — and therefore wall time — scales with how long the
    simulation runs and how many DMA agents generate traffic, so the
    heuristic is ``simulated duration x active agents``.  The agent count
    comes from the resolved scenario's workload spec list, which is plain
    data and cheap to build; a workload that cannot be built in this process
    (a worker-only plugin registration) falls back to a fixed estimate
    rather than failing the plan.
    """
    scenario = spec.resolved_scenario()
    duration_ps = max(1, scenario.platform.sim.duration_ps)
    try:
        agents = len(scenario.build_workload().dmas)
    except Exception:
        agents = DEFAULT_AGENT_ESTIMATE
    return float(duration_ps) * max(1, agents)


def plan_batches(
    costed_items: Sequence[Tuple[T, float]],
    jobs: int,
    oversubscribe: int = OVERSUBSCRIBE,
) -> List[List[T]]:
    """Group items into contiguous batches of roughly equal estimated cost.

    Aims for about ``jobs x oversubscribe`` batches: enough slack that the
    pool stays balanced when estimates are off, few enough that IPC stays a
    rounding error.  Order within and across batches follows the input, so a
    dispatch plan is deterministic for a given grid.  An item costlier than
    the target gets a batch of its own; a grid of uniform short runs packs
    many specs per message.
    """
    if not costed_items:
        return []
    total = sum(cost for _, cost in costed_items)
    target = total / max(1, jobs * oversubscribe)
    batches: List[List[T]] = []
    current: List[T] = []
    current_cost = 0.0
    for item, cost in costed_items:
        if current and current_cost + cost > target:
            batches.append(current)
            current, current_cost = [], 0.0
        current.append(item)
        current_cost += cost
    if current:
        batches.append(current)
    return batches
