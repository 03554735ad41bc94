"""Span tracer: nestable spans journaled per process as JSONL.

The tracer is the write side of the observability layer.  Each process that
wants to be traced installs one :class:`Tracer` pointing at its own journal
file; instrumented code then calls the module-level :func:`span` /
:func:`instant` helpers, which are a single global read plus a comparison
when tracing is disabled — the *no-op fast path* that lets the
instrumentation live permanently in hot orchestration code.  The campaign
driver merges every process's journal into one timeline after the run
(:mod:`repro.obs.export`).

Design constraints, in order:

* **Off by default, near-zero disabled cost.**  ``_TRACER`` is ``None``
  unless something installed a tracer; ``span()`` then returns a cached
  singleton no-op context manager without allocating.
* **Non-perturbing.**  Nothing here touches results, cache keys or
  fingerprints; journals live outside the results store until the driver
  explicitly records the merged trace as store artifacts referenced only
  from the manifest's free-form ``stats`` field.
* **Cross-process by environment.**  Pool workers are forked from the
  driver, and a forked child drops the tracer it inherited without
  flushing it (an :func:`os.register_at_fork` hook), so the driver's
  buffered spans are written once, by the driver.  The driver exports
  :data:`TRACE_ENV_VAR` (the journal directory) and workers call
  :func:`install_from_env` at startup to journal on their own.  Durations
  are monotonic (``perf_counter_ns``) per process; each journal carries one
  wall-clock anchor so the merge step can place processes on a shared
  timeline — the anchor stays inside trace artifacts and never reaches any
  fingerprint.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Journal directory exported by a tracing driver; workers install from it.
TRACE_ENV_VAR = "REPRO_TRACE_DIR"

#: Journal format version, written into each journal's leading meta event.
JOURNAL_VERSION = 1


class _NoopSpan:
    """The disabled-tracing span: enters, exits, and absorbs attributes."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, **_attrs: Any) -> None:
        """Accept (and drop) late attributes, mirroring :class:`Span`."""


#: The singleton returned by :func:`span` while tracing is disabled.
NOOP_SPAN = _NoopSpan()


class Span:
    """One live span: a context manager that records itself on exit."""

    __slots__ = ("_tracer", "name", "attrs", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start_ns = 0

    def __enter__(self) -> "Span":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        end_ns = time.perf_counter_ns()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._record_span(self.name, self._start_ns, end_ns, self.attrs)
        return False

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (e.g. fired-event counts)."""
        self.attrs.update(attrs)


class Tracer:
    """Per-process span recorder appending JSONL events to one journal file.

    Events are buffered in memory and written by :meth:`flush` — workers
    flush at task boundaries so the driver sees every completed span even
    though worker processes outlive the sweep.  The first line of every
    journal is a ``meta`` event naming the process and carrying the
    wall-clock anchor used to align journals at merge time.
    """

    def __init__(self, journal_path: Union[str, Path], proc: str) -> None:
        self.journal_path = Path(journal_path)
        self.proc = proc
        self.pid = os.getpid()
        self._t0_ns = time.perf_counter_ns()
        self._seq = 0
        self._lock = threading.Lock()
        self._tids: Dict[int, int] = {}
        self._events: List[dict] = [
            {
                "ev": "meta",
                "version": JOURNAL_VERSION,
                "proc": proc,
                "pid": self.pid,
                "wall_ns": time.time_ns(),
            }
        ]

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def instant(self, name: str, **attrs: Any) -> None:
        """A zero-duration event (retries, respawns, point metadata)."""
        now_ns = time.perf_counter_ns()
        self._record(
            {
                "ev": "instant",
                "name": name,
                "t_us": round((now_ns - self._t0_ns) / 1e3, 3),
                **({"attrs": attrs} if attrs else {}),
            }
        )

    def complete(self, name: str, dur_s: float, **attrs: Any) -> None:
        """Record a span whose duration was measured elsewhere, ending now.

        The driver uses this to attribute worker-side execution time (the
        timings a :class:`~repro.runner.executor.Landed` event carries) to
        spans that also know the point *indices* — the join key for
        per-sub-grid aggregation.
        """
        end_ns = time.perf_counter_ns()
        self._record_span(name, end_ns - max(0, int(dur_s * 1e9)), end_ns, attrs)

    def _record_span(
        self, name: str, start_ns: int, end_ns: int, attrs: Dict[str, Any]
    ) -> None:
        self._record(
            {
                "ev": "span",
                "name": name,
                "t_us": round((start_ns - self._t0_ns) / 1e3, 3),
                "dur_us": round((end_ns - start_ns) / 1e3, 3),
                **({"attrs": attrs} if attrs else {}),
            }
        )

    def _record(self, event: dict) -> None:
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.setdefault(ident, len(self._tids))
            event["proc"] = self.proc
            event["pid"] = self.pid
            event["tid"] = tid
            event["seq"] = self._seq
            self._seq += 1
            self._events.append(event)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Append buffered events to the journal (JSONL, one event/line)."""
        with self._lock:
            events, self._events = self._events, []
        if not events:
            return
        lines = "".join(
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
            for event in events
        )
        self.journal_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(lines)

    def close(self) -> None:
        self.flush()


# --------------------------------------------------------------------------- #
# Module-level guarded API — the surface instrumented code actually calls.
# --------------------------------------------------------------------------- #
_TRACER: Optional[Tracer] = None


def tracing() -> bool:
    """Whether a tracer is installed (the guard for non-trivial attr work)."""
    return _TRACER is not None


def current_tracer() -> Optional[Tracer]:
    return _TRACER


def span(name: str, **attrs: Any) -> Union[Span, _NoopSpan]:
    """A span context manager, or the shared no-op when tracing is off."""
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def instant(name: str, **attrs: Any) -> None:
    """Record a zero-duration event when tracing is on; no-op otherwise."""
    tracer = _TRACER
    if tracer is not None:
        tracer.instant(name, **attrs)


def complete(name: str, dur_s: float, **attrs: Any) -> None:
    """Record an externally measured span when tracing is on; else no-op."""
    tracer = _TRACER
    if tracer is not None:
        tracer.complete(name, dur_s, **attrs)


def flush() -> None:
    """Flush the installed tracer's buffer, if any (task boundaries)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.flush()


def install_tracer(journal_path: Union[str, Path], proc: str) -> Tracer:
    """Install a process-wide tracer; replaces (and flushes) any previous one."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = Tracer(journal_path, proc=proc)
    return _TRACER


def uninstall_tracer() -> None:
    """Flush and remove the process-wide tracer (idempotent)."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
        _TRACER = None


def _drop_inherited_tracer() -> None:
    """In a forked child: forget the parent's tracer without flushing it.

    Its buffer holds spans the parent recorded and will flush itself, and
    its lock may have been held by another parent thread at the fork.
    """
    global _TRACER
    _TRACER = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_inherited_tracer)


def install_from_env(role: str) -> Optional[Tracer]:
    """Worker-process activation: install a tracer when the driver traces.

    Pool workers call this once at startup with their role name
    (``pool-worker``); when :data:`TRACE_ENV_VAR` is unset — every
    untraced run — this is a single environment lookup.
    """
    directory = os.environ.get(TRACE_ENV_VAR)
    if not directory:
        return None
    pid = os.getpid()
    return install_tracer(
        Path(directory) / f"{role}-{pid}.jsonl", proc=f"{role}-{pid}"
    )
