"""Journal merging and export: JSONL journals -> one Chrome trace.

The write side (:mod:`repro.obs.tracer`) leaves one JSONL journal per
traced process.  This module is the read side the campaign driver runs
*after* the sweep and *before* the final manifest record:

* :func:`merge_journals` — parse every ``*.jsonl`` in the journal
  directory, shift each process onto the driver's timeline using the
  wall-clock anchors in the journals' meta events, and return one
  deterministically ordered event list;
* :func:`events_jsonl` / :func:`chrome_trace_json` — render that list as
  the two store artifacts a traced campaign records: the raw merged
  journal, and a Chrome ``trace_event`` JSON that Perfetto
  (https://ui.perfetto.dev) loads directly;
* :func:`summarize_events` — the aggregation behind ``repro trace``:
  per-span-name totals plus the point-index -> sub-grid attribution
  joined from the scheduler's ``campaign.point`` metadata instants;
* :class:`TraceSession` — the driver-side lifecycle: own a journal
  directory, install the driver tracer, export :data:`TRACE_ENV_VAR` so
  pool workers journal too, and on :meth:`finalize` store both
  artifacts and hand back the ``stats`` payload the manifest references
  them from.  Trace artifacts live only in the manifest's free-form
  ``stats`` field — never in reports — so a traced run's outputs stay
  byte-identical to an untraced one.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.tracer import (
    TRACE_ENV_VAR,
    install_tracer,
    uninstall_tracer,
)

#: ``trace.json`` schema note rendered into the Chrome trace metadata.
TRACE_FORMAT = "chrome-trace-event"


def load_journal(path: Union[str, Path]) -> List[dict]:
    """Parse one JSONL journal; tolerates a torn final line (crashed writer)."""
    events: List[dict] = []
    text = Path(path).read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # torn tail write from a killed process
    return events


def merge_journals(directory: Union[str, Path]) -> List[dict]:
    """Merge every per-process journal onto one shared timeline.

    Each journal's meta event carries the process's wall-clock anchor at
    tracer start; events are shifted by the anchor delta against the
    earliest process (the driver, in practice) so spans from concurrently
    running workers interleave correctly.  Ordering is deterministic:
    ``(t_us, proc, seq)``.
    """
    journals: List[Tuple[str, List[dict]]] = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        events = load_journal(path)
        if events:
            journals.append((path.name, events))
    anchors: Dict[str, int] = {}
    for name, events in journals:
        meta = next((e for e in events if e.get("ev") == "meta"), None)
        if meta is not None and isinstance(meta.get("wall_ns"), int):
            anchors[name] = meta["wall_ns"]
    base_ns = min(anchors.values()) if anchors else 0

    merged: List[dict] = []
    for name, events in journals:
        offset_us = (anchors.get(name, base_ns) - base_ns) / 1e3
        for event in events:
            if event.get("ev") == "meta":
                merged.append(dict(event))
                continue
            shifted = dict(event)
            shifted["t_us"] = round(shifted.get("t_us", 0.0) + offset_us, 3)
            merged.append(shifted)
    merged.sort(
        key=lambda e: (
            e.get("t_us", -1.0),
            e.get("proc", ""),
            e.get("seq", -1),
        )
    )
    return merged


def events_jsonl(events: Iterable[dict]) -> str:
    """The merged journal as canonical JSONL (the ``events_jsonl`` artifact)."""
    return "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for event in events
    )


def chrome_trace_json(events: Iterable[dict]) -> str:
    """Render merged events as Chrome ``trace_event`` JSON for Perfetto.

    Spans become ``ph: "X"`` complete events (nesting is inferred from
    timestamp containment per track), instants become ``ph: "i"``, and each
    process contributes a ``process_name`` metadata record so Perfetto's
    track labels read ``driver`` / ``pool-worker-<pid>`` instead of bare
    pids.
    """
    trace_events: List[dict] = []
    named_processes: Dict[int, str] = {}
    for event in events:
        kind = event.get("ev")
        pid = event.get("pid", 0)
        if kind == "meta":
            proc = event.get("proc", f"pid-{pid}")
            if named_processes.get(pid) != proc:
                named_processes[pid] = proc
                trace_events.append(
                    {
                        "ph": "M",
                        "name": "process_name",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": proc},
                    }
                )
            continue
        record = {
            "name": event.get("name", "?"),
            "cat": "repro",
            "pid": pid,
            "tid": event.get("tid", 0),
            "ts": event.get("t_us", 0.0),
            "args": event.get("attrs", {}),
        }
        if kind == "span":
            record["ph"] = "X"
            record["dur"] = event.get("dur_us", 0.0)
        elif kind == "instant":
            record["ph"] = "i"
            record["s"] = "t"
        else:
            continue
        trace_events.append(record)
    payload = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"format": TRACE_FORMAT, "generator": "repro-obs"},
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def summarize_events(events: Iterable[dict]) -> Dict[str, Any]:
    """Aggregate a merged event list for the ``repro trace`` table.

    Returns ``{"phases": {name: {count, total_us, max_us}}, "subgrids":
    {name: {points, spans, total_us}}, "processes": [...], "spans": n,
    "instants": n}``.  Sub-grid attribution joins the scheduler's
    ``campaign.point`` metadata instants (flat spec index -> sub-grid) with
    driver-side execution spans that carry an ``indices`` attribute.
    """
    phases: Dict[str, Dict[str, float]] = {}
    index_to_subgrid: Dict[int, str] = {}
    subgrids: Dict[str, Dict[str, float]] = {}
    processes: List[str] = []
    span_count = 0
    instant_count = 0
    materialized = list(events)
    for event in materialized:
        kind = event.get("ev")
        if kind == "meta":
            proc = event.get("proc", "")
            if proc and proc not in processes:
                processes.append(proc)
        elif kind == "instant":
            instant_count += 1
            if event.get("name") == "campaign.point":
                attrs = event.get("attrs", {})
                index = attrs.get("index")
                subgrid = attrs.get("subgrid")
                if isinstance(index, int) and isinstance(subgrid, str):
                    index_to_subgrid[index] = subgrid
                    entry = subgrids.setdefault(
                        subgrid, {"points": 0, "spans": 0, "total_us": 0.0}
                    )
                    entry["points"] += 1
        elif kind == "span":
            span_count += 1
            name = event.get("name", "?")
            entry = phases.setdefault(
                name, {"count": 0, "total_us": 0.0, "max_us": 0.0}
            )
            duration = float(event.get("dur_us", 0.0))
            entry["count"] += 1
            entry["total_us"] += duration
            entry["max_us"] = max(entry["max_us"], duration)
    # Second pass: spans carrying point indices accrue to their sub-grid.
    for event in materialized:
        if event.get("ev") != "span":
            continue
        indices = event.get("attrs", {}).get("indices")
        if not isinstance(indices, list):
            continue
        owners = {
            index_to_subgrid[i] for i in indices if i in index_to_subgrid
        }
        for owner in owners:
            entry = subgrids.setdefault(
                owner, {"points": 0, "spans": 0, "total_us": 0.0}
            )
            entry["spans"] += 1
            entry["total_us"] += float(event.get("dur_us", 0.0))
    for entry in phases.values():
        entry["total_us"] = round(entry["total_us"], 3)
        entry["max_us"] = round(entry["max_us"], 3)
    for entry in subgrids.values():
        entry["total_us"] = round(entry["total_us"], 3)
    return {
        "phases": phases,
        "subgrids": subgrids,
        "processes": processes,
        "spans": span_count,
        "instants": instant_count,
    }


class TraceSession:
    """Driver-side trace lifecycle for one ``campaign run --trace``.

    Creating the session installs the driver tracer and exports
    :data:`TRACE_ENV_VAR` so every worker started afterwards journals into
    the same directory.  :meth:`finalize` — called by the scheduler after
    the sweep but *before* the final manifest record, so the record itself
    is not in its own trace — merges the journals, stores the two trace
    artifacts, and returns the ``stats`` payload referencing them.
    :meth:`close` is idempotent cleanup for every exit path.
    """

    def __init__(self, journal_dir: Optional[Union[str, Path]] = None) -> None:
        self._own_dir = journal_dir is None
        self.journal_dir = Path(
            tempfile.mkdtemp(prefix="repro-trace-") if journal_dir is None else journal_dir
        )
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self._previous_env = os.environ.get(TRACE_ENV_VAR)
        os.environ[TRACE_ENV_VAR] = str(self.journal_dir)
        install_tracer(self.journal_dir / f"driver-{os.getpid()}.jsonl", proc="driver")
        self._active = True

    def finalize(self, store) -> Dict[str, Any]:
        """Merge journals, store ``events.jsonl`` + ``trace.json``, clean up.

        Returns the payload the manifest's ``stats`` carries under the
        ``"trace"`` key: both artifact references plus span/process counts.
        """
        uninstall_tracer()
        events = merge_journals(self.journal_dir)
        summary = summarize_events(events)
        jsonl_ref = store.put_artifact(events_jsonl(events), "jsonl")
        trace_ref = store.put_artifact(chrome_trace_json(events), "json")
        payload = {
            "trace": {
                "events_jsonl": jsonl_ref.to_dict(),
                "trace_json": trace_ref.to_dict(),
                "spans": summary["spans"],
                "instants": summary["instants"],
                "processes": summary["processes"],
            }
        }
        self.close()
        return payload

    def close(self) -> None:
        """Restore the environment and remove an owned journal directory."""
        if not self._active:
            return
        self._active = False
        uninstall_tracer()
        if self._previous_env is None:
            os.environ.pop(TRACE_ENV_VAR, None)
        else:
            os.environ[TRACE_ENV_VAR] = self._previous_env
        if self._own_dir:
            shutil.rmtree(self.journal_dir, ignore_errors=True)

    def __enter__(self) -> "TraceSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
