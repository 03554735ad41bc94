"""Deterministic fault injection for exercising the executor layer.

Robustness code is only as trustworthy as the faults it has been run
against, and "kill a worker at just the right moment" is not something a
test can do reliably with signals and sleeps.  This module makes faults a
*declarative, deterministic* input instead: a single environment variable
(:data:`ENV_FAULT`, e.g. ``crash:spec=3``) describes which fault fires on
which spec, and a shared state directory (:data:`ENV_FAULT_DIR`) gives every
process in a sweep — driver, pool workers, respawned replacements — one
global, crash-safe counter of spec executions, so "the 3rd spec" means the
same thing no matter which process runs it and no matter how many times
workers die and respawn.

The counter is a directory of ``tick-N`` marker files created with
``O_CREAT | O_EXCL``: claiming tick *N* is an atomic filesystem operation,
so exactly one spec execution in the whole process tree observes each tick.
A fault plan fires on a contiguous tick window (``spec`` .. ``spec +
times - 1``); because a retried spec draws a *new* tick, ``times`` bounds
how often the fault fires in total and a respawned worker cannot crash-loop
on the same spec forever — which is exactly the shape retry logic needs:
"fail twice, then succeed".

Fault kinds (:data:`FAULT_KINDS`):

* ``crash`` — the worker process exits immediately (``os._exit``), as if
  the OOM killer got it.  Batch results computed but not yet sent are lost.
* ``hang`` — the spec blocks for ``hang_s`` seconds before running,
  exercising wall-clock timeouts.
* ``error`` — the spec raises :class:`InjectedFaultError`, exercising the
  ordinary task-exception retry path (usable in-process, where a real
  crash would take the driver down).
* ``corrupt`` — the result is computed but its serialized payload is
  garbled in flight, exercising the integrity check on the IPC envelope.
* ``lost-heartbeat`` — the worker silently stops reporting: it computes
  the result but never sends it.  Exercises timeout kills of a worker
  that is alive but silent.

The markers :class:`CorruptResult` and :class:`VanishResult` are how a
worker's task function tells its IPC layer to misbehave on the way out —
the corruption has to happen where the bytes are, not where the fault was
decided.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Optional

#: Environment variable holding the fault plan, e.g. ``crash:spec=3,times=2``.
ENV_FAULT = "REPRO_FAULT"

#: Environment variable naming the shared state directory for the global
#: spec-tick counter.  Without it each process counts privately, which is
#: only deterministic for single-process executors.
ENV_FAULT_DIR = "REPRO_FAULT_DIR"

FAULT_KINDS = ("crash", "hang", "error", "corrupt", "lost-heartbeat")

#: Exit code used by ``crash`` faults — distinctive enough to grep for in a
#: test failure, and outside the range Python itself uses.
CRASH_EXIT_CODE = 86


class InjectedFaultError(RuntimeError):
    """Raised by ``error`` faults: a deterministic, retryable task failure."""


class CorruptResult:
    """Marker: send ``value``'s payload bytes garbled, keeping the original
    digest, so the receiver's integrity check must catch it."""

    def __init__(self, value: Any) -> None:
        self.value = value


class VanishResult:
    """Marker: the result was computed but must never be delivered; the
    worker then blocks for ``hang_s`` (a zombie from the driver's view)."""

    def __init__(self, value: Any, hang_s: float) -> None:
        self.value = value
        self.hang_s = hang_s


@dataclass(frozen=True)
class FaultPlan:
    """One declarative fault: *what* fires, *when*, and *how often*.

    ``spec`` is the 1-based global spec tick the fault first fires on;
    ``times`` widens that to a contiguous window of ticks, which under
    retry semantics reads as "the next ``times`` executions fail".
    """

    kind: str
    spec: int = 1
    times: int = 1
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.spec < 1:
            raise ValueError(f"fault spec tick must be >= 1, got {self.spec}")
        if self.times < 1:
            raise ValueError(f"fault times must be >= 1, got {self.times}")

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse ``kind[:key=value,...]`` — the :data:`ENV_FAULT` format."""
        head, _, rest = text.strip().partition(":")
        plan = cls(kind=head.replace("_", "-"))
        if not rest:
            return plan
        updates: dict = {}
        for part in rest.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in ("spec", "times", "hang_s"):
                raise ValueError(
                    f"bad fault option {part!r} in {text!r}; "
                    "expected spec=N, times=N or hang_s=SECONDS"
                )
            updates[key] = float(value) if key == "hang_s" else int(value)
        return replace(plan, **updates)

    def to_env(self) -> str:
        """The inverse of :meth:`parse`, for handing a plan to a subprocess."""
        return f"{self.kind}:spec={self.spec},times={self.times},hang_s={self.hang_s:g}"

    def fires_on(self, tick: int) -> bool:
        return self.spec <= tick < self.spec + self.times


class FaultInjector:
    """Allocates spec ticks and answers "does a fault fire here?".

    With a state directory the tick counter is global across every process
    sharing it (atomic ``O_EXCL`` marker files); without one it is private
    to this instance, which suffices for in-process execution.
    """

    def __init__(self, plan: FaultPlan, state_dir: Optional[str] = None) -> None:
        self.plan = plan
        self.state_dir = Path(state_dir) if state_dir else None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self._local_tick = 0
        self._probe_from = 1

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["FaultInjector"]:
        env = os.environ if environ is None else environ
        text = env.get(ENV_FAULT)
        if not text:
            return None
        return cls(FaultPlan.parse(text), state_dir=env.get(ENV_FAULT_DIR))

    def next_tick(self) -> int:
        """Claim the next global spec tick (1-based), atomically."""
        if self.state_dir is None:
            self._local_tick += 1
            return self._local_tick
        tick = self._probe_from
        while True:
            try:
                fd = os.open(
                    self.state_dir / f"tick-{tick:06d}",
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                tick += 1
                continue
            os.close(fd)
            # Later probes can start past what this process has seen; other
            # processes may have claimed further ticks, which the loop skips.
            self._probe_from = tick + 1
            return tick

    def fires(self) -> Optional[FaultPlan]:
        """Allocate a tick for one spec execution; the plan if it fires."""
        if self.plan.fires_on(self.next_tick()):
            return self.plan
        return None


def apply_process_fault(plan: FaultPlan) -> None:
    """Apply the process-level fault kinds at a spec boundary.

    ``crash`` never returns; ``hang`` blocks (long enough that a timeout
    must be what ends it); ``error`` raises.  The payload kinds
    (``corrupt`` / ``lost-heartbeat``) are no-ops here — they are applied
    by the IPC layer via the result markers.
    """
    if plan.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    elif plan.kind == "hang":
        time.sleep(plan.hang_s)
    elif plan.kind == "error":
        raise InjectedFaultError(
            f"injected fault: error on spec tick window {plan.spec}..{plan.spec + plan.times - 1}"
        )


def wrap_result(plan: Optional[FaultPlan], value: Any) -> Any:
    """Wrap a computed task result in the payload-fault marker, if any."""
    if plan is None:
        return value
    if plan.kind == "corrupt":
        return CorruptResult(value)
    if plan.kind == "lost-heartbeat":
        return VanishResult(value, plan.hang_s)
    return value
