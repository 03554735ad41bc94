"""Metrics registry: named counters, gauges and histograms with snapshots.

This is the *aggregation* side of the observability layer (the tracer is the
*event* side): long-lived components register named instruments once and
bump them on the hot path, and export surfaces read them out either as a
plain-dict :meth:`MetricsRegistry.snapshot` or rendered in the Prometheus
text exposition format (``GET /metrics`` on the results service).

The registry is deliberately tiny and dependency-free:

* instruments are keyed by metric name plus sorted ``label=value`` pairs,
  so ``registry.counter("repro_http_requests_total", status="200")`` is a
  get-or-create returning the same :class:`Counter` every call;
* counters accept float increments (accumulated seconds are valid
  Prometheus counters) and never move backwards.

Nothing here reads clocks or touches results: registries only observe
values handed to them, keeping the metrics layer provably non-perturbing.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, List, Mapping, Sequence, Tuple

#: Default latency buckets (seconds) — sub-millisecond blob-cache hits up to
#: multi-second cold report renders.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

LabelPairs = Tuple[Tuple[str, str], ...]


class Counter:
    """A monotonically increasing value (floats allowed, e.g. seconds)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, cache bytes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram in the Prometheus style.

    ``observe`` is O(log buckets); the rendered form carries cumulative
    ``le`` buckets (including ``+Inf``) plus ``_sum`` and ``_count``.
    """

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(sorted(buckets))
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = ordered
        self.bucket_counts = [0] * len(ordered)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        if index < len(self.bucket_counts):
            self.bucket_counts[index] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``(+Inf, count)``."""
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.buckets, self.bucket_counts):
            running += bucket_count
            pairs.append((bound, running))
        pairs.append((math.inf, self.count))
        return pairs


class _Family:
    """All instruments sharing one metric name (one TYPE/HELP block).

    ``series`` holds ``(label pairs, line prefixes, instrument)`` sorted by
    label pairs, the order the exposition lists them in.  The prefixes are
    each exposition line up to its value — name, label text and a space —
    rendered once, when the instrument is created: one per counter or
    gauge; per histogram one per bucket (``+Inf`` last), then ``_sum`` and
    ``_count``.
    """

    __slots__ = ("kind", "help", "instances", "series")

    def __init__(self, kind: str, help_text: str) -> None:
        self.kind = kind
        self.help = help_text
        self.instances: Dict[LabelPairs, Any] = {}
        self.series: List[Tuple[LabelPairs, Tuple[str, ...], Any]] = []


def _label_pairs(labels: Mapping[str, Any]) -> LabelPairs:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _line_prefix(name: str, pairs: LabelPairs) -> str:
    """One exposition line up to its value: ``name{k="v",...} ``."""
    if pairs:
        labels = ",".join(
            f'{key}="{_escape_label(text)}"' for key, text in pairs
        )
        return f"{name}{{{labels}}} "
    return f"{name} "


def _line_prefixes(kind: str, name: str, pairs: LabelPairs, instrument: Any) -> Tuple[str, ...]:
    if kind != "histogram":
        return (_line_prefix(name, pairs),)
    bounds = (*instrument.buckets, math.inf)
    return (
        *(
            _line_prefix(f"{name}_bucket", pairs + (("le", _format_value(bound)),))
            for bound in bounds
        ),
        _line_prefix(f"{name}_sum", pairs),
        _line_prefix(f"{name}_count", pairs),
    )


class MetricsRegistry:
    """Get-or-create instrument store with snapshot and Prometheus export."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------ #
    # Instrument access
    # ------------------------------------------------------------------ #
    def _instrument(
        self, kind: str, name: str, help_text: str, labels: Mapping[str, Any], factory
    ):
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(kind, help_text)
        elif family.kind != kind:
            raise ValueError(
                f"metric '{name}' already registered as {family.kind}, not {kind}"
            )
        if help_text and not family.help:
            family.help = help_text
        pairs = _label_pairs(labels)
        instrument = family.instances.get(pairs)
        if instrument is None:
            instrument = family.instances[pairs] = factory()
            # Label pairs are unique within a family, so the sort never
            # compares the prefixes or the instruments.
            bisect.insort(
                family.series,
                (pairs, _line_prefixes(kind, name, pairs, instrument), instrument),
            )
        return instrument

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._instrument("counter", name, help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._instrument("gauge", name, help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._instrument(
            "histogram", name, help, labels, lambda: Histogram(buckets)
        )

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Deterministic plain-dict view of every instrument, for tests/JSON."""
        out: Dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            series: List[Dict[str, Any]] = []
            for pairs, _, instrument in family.series:
                entry: Dict[str, Any] = {"labels": dict(pairs)}
                if family.kind == "histogram":
                    entry["sum"] = instrument.sum
                    entry["count"] = instrument.count
                    entry["buckets"] = [
                        [bound, count]
                        for bound, count in instrument.cumulative()
                        if bound != math.inf
                    ]
                else:
                    entry["value"] = instrument.value
                series.append(entry)
            out[name] = {"type": family.kind, "series": series}
        return out

    def render_prometheus(self) -> str:
        """The text exposition format (version 0.0.4), one block per family."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for _, prefixes, instrument in family.series:
                if family.kind == "histogram":
                    values = [count for _, count in instrument.cumulative()]
                    values += (instrument.sum, instrument.count)
                    lines.extend(
                        prefix + _format_value(value)
                        for prefix, value in zip(prefixes, values)
                    )
                else:
                    lines.append(prefixes[0] + _format_value(instrument.value))
        return "\n".join(lines) + "\n"
