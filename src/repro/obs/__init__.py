"""Observability layer: span tracing, metrics, and export surfaces.

Zero-dependency instrumentation for the whole orchestration vertical
(engine phases, pool workers, executor retries, scheduler planning,
store writes, serve requests).  Tracing is **off by default** — the
module-level :func:`span` / :func:`instant` helpers are a global read plus
a comparison until a tracer is installed — and **non-perturbing**: trace
and metric state never reaches results, reports, cache keys or
fingerprints.  See ``docs/observability.md``.
"""

from repro.obs.export import (
    TraceSession,
    chrome_trace_json,
    events_jsonl,
    load_journal,
    merge_journals,
    summarize_events,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import (
    JOURNAL_VERSION,
    NOOP_SPAN,
    TRACE_ENV_VAR,
    Span,
    Tracer,
    complete,
    current_tracer,
    flush,
    install_from_env,
    install_tracer,
    instant,
    span,
    tracing,
    uninstall_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "JOURNAL_VERSION",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "TRACE_ENV_VAR",
    "TraceSession",
    "Tracer",
    "chrome_trace_json",
    "complete",
    "current_tracer",
    "events_jsonl",
    "flush",
    "install_from_env",
    "install_tracer",
    "instant",
    "load_journal",
    "merge_journals",
    "span",
    "summarize_events",
    "tracing",
    "uninstall_tracer",
]
