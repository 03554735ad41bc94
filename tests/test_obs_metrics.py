"""Metrics-registry unit tests: instruments, get-or-create, export formats."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import DEFAULT_BUCKETS, Histogram, MetricsRegistry


def _reference_render(registry: MetricsRegistry) -> str:
    """The exposition rendered afresh: every series' label text
    sorted, escaped and formatted on each call (the renderer before label
    text was built once per instrument)."""

    def escape(value):
        return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")

    def fmt(value):
        if value == math.inf:
            return "+Inf"
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return repr(value)

    def series(name, pairs, value):
        if pairs:
            labels = ",".join(f'{key}="{escape(text)}"' for key, text in pairs)
            return f"{name}{{{labels}}} {fmt(value)}"
        return f"{name} {fmt(value)}"

    lines = []
    for name in sorted(registry._families):
        family = registry._families[name]
        if family.help:
            lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.kind}")
        for pairs in sorted(family.instances):
            instrument = family.instances[pairs]
            if family.kind == "histogram":
                for bound, cumulative_count in instrument.cumulative():
                    bucket_pairs = pairs + (("le", fmt(bound)),)
                    lines.append(series(f"{name}_bucket", bucket_pairs, cumulative_count))
                lines.append(series(f"{name}_sum", pairs, instrument.sum))
                lines.append(series(f"{name}_count", pairs, instrument.count))
            else:
                lines.append(series(name, pairs, instrument.value))
    return "\n".join(lines) + "\n"


#: Metric names and their kinds (a name keeps one kind).
_KINDS = {"a_total": "counter", "b": "gauge", "c_seconds": "histogram", "d_total": "counter"}
_LABEL_TEXT = st.sampled_from(["", "GET", "/x", 'q"uote', "back\\slash", "new\nline", "200"])
_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(sorted(_KINDS)),
        st.sampled_from(["", "Help text.", "Other help."]),
        st.dictionaries(st.sampled_from(["method", "route", "status", "le_x"]), _LABEL_TEXT,
                        max_size=3),
        st.one_of(st.integers(0, 5), st.floats(0, 10, allow_nan=False), st.just(0.25)),
    ),
    max_size=40,
)


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(12)
        assert gauge.value == 3

    def test_histogram_cumulative_buckets_end_in_inf(self):
        histogram = Histogram(buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.cumulative() == [(0.1, 1), (1.0, 3), (math.inf, 4)]
        assert histogram.sum == pytest.approx(6.05)
        assert histogram.count == 4

    def test_default_buckets_are_sorted_and_span_ms_to_seconds(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 5.0


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("hits_total", route="/a")
        second = registry.counter("hits_total", route="/a")
        assert first is second
        other = registry.counter("hits_total", route="/b")
        assert other is not first

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_snapshot_is_deterministic_and_plain(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "second").inc(2)
        registry.gauge("a", "first").set(1.5)
        registry.histogram("lat_seconds", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "b_total", "lat_seconds"]
        assert snapshot["a"] == {
            "type": "gauge",
            "series": [{"labels": {}, "value": 1.5}],
        }
        assert snapshot["lat_seconds"]["series"][0]["count"] == 1

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_requests_total", "Requests.", method="GET", status="200"
        ).inc(3)
        registry.histogram("repro_lat_seconds", "Latency.", buckets=(0.1,)).observe(
            0.05
        )
        text = registry.render_prometheus()
        assert "# HELP repro_requests_total Requests.\n" in text
        assert "# TYPE repro_requests_total counter\n" in text
        assert 'repro_requests_total{method="GET",status="200"} 3\n' in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 1\n' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1\n' in text
        assert "repro_lat_seconds_sum 0.05\n" in text
        assert "repro_lat_seconds_count 1\n" in text
        assert text.endswith("\n")

    @settings(max_examples=200, deadline=None)
    @given(_OPERATIONS)
    def test_rendering_matches_the_reference(self, operations):
        registry = MetricsRegistry()
        for name, help_text, labels, value in operations:
            kind = _KINDS[name]
            if kind == "counter":
                registry.counter(name, help_text, **labels).inc(value)
            elif kind == "gauge":
                registry.gauge(name, help_text, **labels).set(value)
            else:
                registry.histogram(
                    name, help_text, buckets=(0.5, 1.0, 2.5), **labels
                ).observe(value)
            assert registry.render_prometheus() == _reference_render(registry)

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", path='a"b\\c').inc()
        assert 'path="a\\"b\\\\c"' in registry.render_prometheus()

