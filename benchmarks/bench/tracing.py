"""In-memory spans, call wrappers and a cProfile roll-up for the traced run.

Only ``run.py --trace 1`` uses this module; a timed run never imports it.

* :class:`SpanRecorder` keeps spans in memory (name, start, end, parent,
  thread) and writes them out once, at the end, as Chrome trace-event JSON
  (loadable in Perfetto or ``chrome://tracing``).
* :class:`Patches` swaps public callables of the program for wrappers that
  record one span per call and restores the originals afterwards.  The
  spans sit at layer boundaries, around calls into each layer, so the
  program itself is unchanged.
* :func:`self_time_by_layer` rolls a cProfile run up by ``repro`` package:
  each function's own time goes to the package that defines it, and time
  in code outside ``repro`` (C builtins, numpy, the standard library) goes
  to the ``repro`` packages that called it, split by the time each caller
  spent in it.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from pathlib import PurePath
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The ``repro`` packages whose self time the traced run reports on its own.
#: Every other package (campaign, runner, store, system, ...) and code that
#: no ``repro`` caller can be found for is rolled into ``other``.
PROFILE_LAYERS = ("sim", "memctrl", "noc", "dram", "core", "cores", "traffic")


class SpanRecorder:
    """Spans kept in memory, with one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: Dict[int, int] = {}

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        stack = self._stack()
        ident = threading.get_ident()
        record = {
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": 0,
            "parent": stack[-1] if stack else -1,
            "tid": 0,
            "attrs": attrs,
        }
        with self._lock:
            record["tid"] = self._threads.setdefault(ident, len(self._threads))
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            stack.pop()

    def _has_ancestor(self, record: Dict[str, Any], name: str) -> bool:
        parent = record["parent"]
        while parent >= 0:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def total_s(self, name: str, outside: Optional[str] = None) -> float:
        """Summed duration of every ``name`` span, optionally skipping the
        ones nested anywhere under an ``outside`` span."""
        return sum(
            record["end_ns"] - record["start_ns"]
            for record in self.spans
            if record["name"] == name
            and (outside is None or not self._has_ancestor(record, outside))
        ) / 1e9

    def chrome_trace(self, process_name: str) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        origin = min((record["start_ns"] for record in self.spans), default=0)
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": process_name},
            }
        ]
        for record in self.spans:
            events.append(
                {
                    "name": record["name"],
                    "ph": "X",
                    "pid": 1,
                    "tid": record["tid"],
                    "ts": (record["start_ns"] - origin) / 1e3,
                    "dur": (record["end_ns"] - record["start_ns"]) / 1e3,
                    "args": record["attrs"],
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class Patches:
    """Replace callables with span-recording wrappers until :meth:`restore`.

    ``on_return(args, kwargs, result)`` lets the caller keep what a layer
    hands back (a built ``System``, a campaign outcome) for counters that
    are read after the run.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_return: Optional[Callable[[tuple, dict, Any], None]] = None,
    ) -> None:
        original = getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(name):
                result = original(*args, **kwargs)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.restore()


def _layer_of(filename: str) -> Optional[str]:
    """The profile layer of a source file, or None outside ``repro``."""
    parts = PurePath(filename).parts
    for index in range(1, len(parts) - 1):
        if parts[index] == "repro" and parts[index - 1] in ("src", "site-packages"):
            package = PurePath(parts[index + 1]).stem
            return package if package in PROFILE_LAYERS else "other"
    return None


def self_time_by_layer(stats: Dict[Any, tuple]) -> Dict[str, float]:
    """Roll ``cProfile.Profile.stats`` up into self seconds per layer.

    ``stats`` maps ``(file, line, function)`` to ``(cc, nc, tt, ct,
    callers)`` where ``callers`` maps each caller to ``(nc, cc, tt, ct)``
    for the calls it made; ``tt`` is the callee's own time on those calls.
    """
    memo: Dict[Any, Dict[str, float]] = {}

    def shares(func: Any, visiting: set) -> Dict[str, float]:
        cached = memo.get(func)
        if cached is not None:
            return cached
        layer = _layer_of(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
            weights = {
                caller: entry[2]
                for caller, entry in callers.items()
                if caller not in visiting
            }
            total = sum(weights.values())
            if total <= 0.0:
                weights = {caller: 1.0 for caller in weights}
                total = float(len(weights))
            if not weights:
                result = {"other": 1.0}
            else:
                result = {}
                visiting.add(func)
                for caller, weight in weights.items():
                    for name, share in shares(caller, visiting).items():
                        result[name] = result.get(name, 0.0) + share * weight / total
                visiting.discard(func)
        memo[func] = result
        return result

    totals = {name: 0.0 for name in PROFILE_LAYERS + ("other",)}
    for func, entry in stats.items():
        for name, share in shares(func, set()).items():
            totals[name] += entry[2] * share
    return totals
