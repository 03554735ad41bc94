"""Tracer and trace-export unit tests.

Covers the write side (span/instant/complete recording, the disabled-path
no-op contract, journal format and durability), the read side (journal
merging onto a shared timeline, Chrome ``trace_event`` rendering, the
``repro trace`` aggregation), and the driver-side :class:`TraceSession`
lifecycle against a real results store.
"""

from __future__ import annotations

import gc
import json
import os
import time

import pytest

from repro import obs
from repro.obs import (
    JOURNAL_VERSION,
    NOOP_SPAN,
    TRACE_ENV_VAR,
    TraceSession,
    chrome_trace_json,
    events_jsonl,
    load_journal,
    merge_journals,
    summarize_events,
)
from repro.runner import RunSpec
from repro.sim.clock import MS
from repro.store import ArtifactRef, ResultsStore
from repro.system.experiment import run_experiment_timed


@pytest.fixture(autouse=True)
def clean_tracer(monkeypatch):
    """Every test starts and ends with tracing disabled and no env leakage."""
    monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
    obs.uninstall_tracer()
    yield
    obs.uninstall_tracer()


def _point():
    """One short simulated point, resolved up front (resolution is not timed)."""
    return RunSpec(
        scenario="case_b",
        policy="priority_qos",
        duration_ps=MS // 4,
        traffic_scale=0.2,
        keep_trace=False,
    ).resolved_scenario()


def _traced_point_events(journal):
    """The span and instant events one traced ``run_experiment_timed`` emits,
    plus the run's :class:`RunTimings`."""
    obs.install_tracer(journal, proc="t")
    try:
        _, timings = run_experiment_timed(_point(), keep_trace=False)
    finally:
        obs.uninstall_tracer()
    events = [e for e in load_journal(journal) if e["ev"] in ("span", "instant")]
    return events, timings


def _best_cpu_s(repeats, run):
    """Minimum CPU time over ``repeats`` calls of ``run()``, GC paused."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        began = time.process_time()
        try:
            run()
        finally:
            gc.enable()
        best = min(best, time.process_time() - began)
    return best


class TestDisabledPath:
    """The permanent-instrumentation contract: off means (almost) free."""

    def test_span_returns_the_shared_noop_singleton(self):
        assert obs.span("anything", key="value") is NOOP_SPAN
        assert obs.span("other") is NOOP_SPAN

    def test_noop_span_enters_exits_and_absorbs_attrs(self):
        with obs.span("x") as span:
            span.set(late=1)

    def test_noop_span_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with obs.span("x"):
                raise RuntimeError("boom")

    def test_instant_complete_flush_are_noops(self):
        obs.instant("x", a=1)
        obs.complete("x", 0.5, a=1)
        obs.flush()
        assert not obs.tracing()
        assert obs.current_tracer() is None

    def test_install_from_env_without_env_is_a_noop(self):
        assert obs.install_from_env("pool-worker") is None
        assert not obs.tracing()

    def test_disabled_overhead_under_two_percent(self, tmp_path):
        """Events one traced point emits, times the worst disabled per-call
        cost of ``span``/``instant``/``complete``, stay under 2% of the same
        point's untraced CPU time.  Both sides scale per point, so one point
        measured on this machine needs no baseline."""
        calls = 200_000

        def span_loop():
            span = obs.span
            for _ in range(calls):
                with span("bench.noop"):
                    pass

        def instant_loop():
            instant = obs.instant
            for _ in range(calls):
                instant("bench.noop")

        def complete_loop():
            complete = obs.complete
            for _ in range(calls):
                complete("bench.noop", 0.0)

        per_call_s = max(
            _best_cpu_s(5, loop) / calls
            for loop in (span_loop, instant_loop, complete_loop)
        )
        scenario = _point()
        point_cpu_s = _best_cpu_s(
            3, lambda: run_experiment_timed(scenario, keep_trace=False)
        )
        events, _ = _traced_point_events(tmp_path / "j.jsonl")
        assert events
        overhead = len(events) * per_call_s / point_cpu_s
        assert overhead < 0.02, (
            f"{len(events)} events x {per_call_s * 1e9:.0f} ns = "
            f"{overhead:.4%} of {point_cpu_s:.3f}s CPU"
        )


class TestRecording:
    def test_span_records_on_exit_with_attrs(self, tmp_path):
        obs.install_tracer(tmp_path / "j.jsonl", proc="t")
        with obs.span("phase.one", points=4) as span:
            span.set(fired=7)
        obs.flush()
        events = load_journal(tmp_path / "j.jsonl")
        meta, span_event = events
        assert meta["ev"] == "meta"
        assert meta["version"] == JOURNAL_VERSION
        assert meta["proc"] == "t"
        assert meta["pid"] == os.getpid()
        assert isinstance(meta["wall_ns"], int)
        assert span_event["ev"] == "span"
        assert span_event["name"] == "phase.one"
        assert span_event["attrs"] == {"points": 4, "fired": 7}
        assert span_event["dur_us"] >= 0.0

    def test_span_tags_the_exception_type_and_reraises(self, tmp_path):
        obs.install_tracer(tmp_path / "j.jsonl", proc="t")
        with pytest.raises(ValueError):
            with obs.span("phase.bad"):
                raise ValueError("nope")
        obs.flush()
        span_event = load_journal(tmp_path / "j.jsonl")[1]
        assert span_event["attrs"]["error"] == "ValueError"

    def test_instant_and_complete_events(self, tmp_path):
        obs.install_tracer(tmp_path / "j.jsonl", proc="t")
        obs.instant("queue.claim", won=True)
        obs.complete("executor.landed", 0.25, indices=[3])
        obs.flush()
        _, instant, landed = load_journal(tmp_path / "j.jsonl")
        assert instant["ev"] == "instant"
        assert instant["attrs"] == {"won": True}
        assert "dur_us" not in instant
        assert landed["ev"] == "span"
        # Back-dated start: the externally measured duration is preserved.
        assert landed["dur_us"] == pytest.approx(250_000, rel=0.05)
        assert landed["attrs"]["indices"] == [3]

    def test_experiment_spans_carry_the_run_timings(self, tmp_path):
        """One clock per phase: each ``experiment.*`` span is the reading
        that fills :class:`RunTimings`, not a second measurement."""
        events, timings = _traced_point_events(tmp_path / "j.jsonl")
        spans = {e["name"]: e for e in events if e["name"].startswith("experiment.")}
        assert set(spans) == {"experiment.resolve", "experiment.build", "experiment.sim"}
        for name, seconds in (
            ("experiment.resolve", timings.resolve_s),
            ("experiment.build", timings.build_s),
            ("experiment.sim", timings.sim_s),
        ):
            assert spans[name]["dur_us"] == pytest.approx(seconds * 1e6, abs=0.002), name
        assert spans["experiment.build"]["attrs"] == {"scenario": "case_b"}
        sim_attrs = spans["experiment.sim"]["attrs"]
        assert sim_attrs["scenario"] == "case_b"
        assert sim_attrs["policy"] == "priority_qos"
        assert sim_attrs["fired_events"] > 0
        assert sim_attrs["now_ps"] == MS // 4

    def test_sequence_numbers_are_monotonic(self, tmp_path):
        obs.install_tracer(tmp_path / "j.jsonl", proc="t")
        for index in range(5):
            obs.instant("tick", index=index)
        obs.flush()
        events = load_journal(tmp_path / "j.jsonl")
        # The leading meta event carries no sequence number; recorded
        # events count up from zero.
        assert [e["seq"] for e in events if e["ev"] != "meta"] == list(range(5))

    def test_flush_appends_incrementally(self, tmp_path):
        obs.install_tracer(tmp_path / "j.jsonl", proc="t")
        obs.instant("a")
        obs.flush()
        first = len(load_journal(tmp_path / "j.jsonl"))
        obs.instant("b")
        obs.flush()
        assert len(load_journal(tmp_path / "j.jsonl")) == first + 1

    def test_install_from_env_names_journal_by_role_and_pid(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path))
        tracer = obs.install_from_env("pool-worker")
        assert tracer is not None
        obs.instant("x")
        obs.uninstall_tracer()
        expected = tmp_path / f"pool-worker-{os.getpid()}.jsonl"
        assert expected.is_file()
        assert load_journal(expected)[0]["proc"] == f"pool-worker-{os.getpid()}"


class TestExport:
    def test_load_journal_tolerates_a_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"ev":"meta","proc":"t","pid":1,"wall_ns":5}\n{"ev":"ins', encoding="utf-8")
        events = load_journal(path)
        assert len(events) == 1
        assert events[0]["ev"] == "meta"

    def _write_journal(self, path, proc, pid, wall_ns, events):
        lines = [{"ev": "meta", "version": 1, "proc": proc, "pid": pid, "wall_ns": wall_ns}]
        lines.extend(events)
        path.write_text(
            "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
        )

    def test_merge_shifts_workers_onto_the_driver_timeline(self, tmp_path):
        # Worker anchored 2ms after the driver: its 10us event lands at 2010us.
        self._write_journal(
            tmp_path / "driver-1.jsonl", "driver", 1, 1_000_000_000,
            [{"ev": "span", "name": "a", "t_us": 0.0, "dur_us": 5.0, "proc": "driver", "pid": 1, "tid": 0, "seq": 1}],
        )
        self._write_journal(
            tmp_path / "worker-2.jsonl", "worker-2", 2, 1_002_000_000,
            [{"ev": "span", "name": "b", "t_us": 10.0, "dur_us": 5.0, "proc": "worker-2", "pid": 2, "tid": 0, "seq": 1}],
        )
        merged = merge_journals(tmp_path)
        spans = {e["name"]: e for e in merged if e.get("ev") == "span"}
        assert spans["a"]["t_us"] == 0.0
        assert spans["b"]["t_us"] == pytest.approx(2010.0)

    def test_merge_order_is_deterministic(self, tmp_path):
        self._write_journal(
            tmp_path / "driver-1.jsonl", "driver", 1, 1_000_000_000,
            [{"ev": "instant", "name": "x", "t_us": 5.0, "proc": "driver", "pid": 1, "tid": 0, "seq": 1}],
        )
        self._write_journal(
            tmp_path / "worker-2.jsonl", "worker-2", 2, 1_000_000_000,
            [{"ev": "instant", "name": "y", "t_us": 5.0, "proc": "worker-2", "pid": 2, "tid": 0, "seq": 1}],
        )
        first = merge_journals(tmp_path)
        assert first == merge_journals(tmp_path)
        # Tie on t_us breaks on proc name: driver before worker-2.
        tied = [e["name"] for e in first if e.get("ev") == "instant"]
        assert tied == ["x", "y"]

    def test_chrome_trace_has_metadata_spans_and_instants(self, tmp_path):
        self._write_journal(
            tmp_path / "driver-1.jsonl", "driver", 1, 1_000_000_000,
            [
                {"ev": "span", "name": "s", "t_us": 0.0, "dur_us": 5.0, "attrs": {"k": 1}, "proc": "driver", "pid": 1, "tid": 0, "seq": 1},
                {"ev": "instant", "name": "i", "t_us": 1.0, "proc": "driver", "pid": 1, "tid": 0, "seq": 2},
            ],
        )
        doc = json.loads(chrome_trace_json(merge_journals(tmp_path)))
        assert doc["displayTimeUnit"] == "ms"
        by_phase = {}
        for event in doc["traceEvents"]:
            by_phase.setdefault(event["ph"], []).append(event)
        assert by_phase["M"][0]["args"]["name"] == "driver"
        assert by_phase["X"][0]["dur"] == 5.0
        assert by_phase["X"][0]["args"] == {"k": 1}
        assert by_phase["i"][0]["name"] == "i"

    def test_events_jsonl_roundtrips(self, tmp_path):
        self._write_journal(
            tmp_path / "driver-1.jsonl", "driver", 1, 1_000_000_000,
            [{"ev": "instant", "name": "x", "t_us": 5.0, "proc": "driver", "pid": 1, "tid": 0, "seq": 1}],
        )
        merged = merge_journals(tmp_path)
        text = events_jsonl(merged)
        assert [json.loads(line) for line in text.splitlines()] == merged

    def test_summarize_joins_point_metadata_with_landed_spans(self):
        events = [
            {"ev": "meta", "proc": "driver", "pid": 1, "wall_ns": 0},
            {"ev": "instant", "name": "campaign.point", "attrs": {"index": 0, "subgrid": "fig5", "label": "a"}},
            {"ev": "instant", "name": "campaign.point", "attrs": {"index": 1, "subgrid": "fig7", "label": "b"}},
            {"ev": "span", "name": "executor.landed", "dur_us": 100.0, "attrs": {"indices": [0]}},
            {"ev": "span", "name": "executor.landed", "dur_us": 40.0, "attrs": {"indices": [1]}},
            {"ev": "span", "name": "campaign.sweep", "dur_us": 150.0},
        ]
        summary = summarize_events(events)
        assert summary["spans"] == 3
        assert summary["instants"] == 2
        assert summary["processes"] == ["driver"]
        assert summary["phases"]["executor.landed"]["count"] == 2
        assert summary["phases"]["executor.landed"]["total_us"] == 140.0
        assert summary["phases"]["executor.landed"]["max_us"] == 100.0
        assert summary["subgrids"]["fig5"] == {"points": 1, "spans": 1, "total_us": 100.0}
        assert summary["subgrids"]["fig7"] == {"points": 1, "spans": 1, "total_us": 40.0}


class TestTraceSession:
    def test_session_exports_env_and_restores_it(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        session = TraceSession(tmp_path / "journals")
        assert os.environ[TRACE_ENV_VAR] == str(tmp_path / "journals")
        assert obs.tracing()
        session.close()
        assert TRACE_ENV_VAR not in os.environ
        assert not obs.tracing()

    def test_finalize_stores_both_artifacts_and_reports_counts(self, tmp_path):
        store = ResultsStore(str(tmp_path / "store"))
        with TraceSession(tmp_path / "journals") as session:
            with obs.span("campaign.sweep", points=1):
                obs.instant("campaign.point", index=0, subgrid="fig5", label="p")
            payload = session.finalize(store)
        trace = payload["trace"]
        assert trace["spans"] == 1
        assert trace["instants"] == 1
        assert trace["processes"] == ["driver"]
        jsonl_text = store.read_artifact_bytes(
            ArtifactRef.from_dict(trace["events_jsonl"], "trace.events_jsonl")
        )
        trace_doc = json.loads(
            store.read_artifact(
                ArtifactRef.from_dict(trace["trace_json"], "trace.trace_json")
            )
        )
        names = {e["name"] for e in trace_doc["traceEvents"] if e["ph"] != "M"}
        assert names == {"campaign.sweep", "campaign.point"}
        assert b'"campaign.sweep"' in jsonl_text

    def test_close_is_idempotent_and_removes_owned_dir(self):
        session = TraceSession()
        owned = session.journal_dir
        assert owned.is_dir()
        session.close()
        session.close()
        assert not owned.exists()
