"""Telemetry surfaces of the results service: ``/metrics``, ``/healthz``,
and the structured stdlib-logging access log.

A tiny campaign is recorded once; the assertions then exercise a live
:class:`~repro.serve.client.BackgroundResultsServer` — the same process
boundary production uses — plus the observer closure at unit level for the
logging contract (the background server logs on its own thread with
``log=False``, so caplog cannot see it).
"""

from __future__ import annotations

import http.client
import io
import logging
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.serve import BackgroundResultsServer, ResultsClient
from repro.serve.app import METRICS_TYPE, ResultsApp
from repro.serve.client import _observer_for
from repro.store import ResultsStore


def _invoke(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-metrics")
    store = str(root / "store")
    code, _ = _invoke(
        [
            "campaign", "run", "paper_figures", "--subgrid", "fig9",
            "--duration-ms", "0.25", "--traffic-scale", "0.1",
            "--store-dir", store, "--cache-dir", str(root / "cache"),
        ]
    )
    assert code == 0
    return store


@pytest.fixture(scope="module")
def server(store_dir):
    with BackgroundResultsServer(store_dir) as running:
        yield running


@pytest.fixture()
def client(server):
    with ResultsClient(server.host, server.port) as connected:
        yield connected


class TestMetricsEndpoint:
    def test_prometheus_content_type_and_format(self, client):
        client.healthz()  # guarantee at least one observed request
        reply = client.get("/metrics")
        assert reply.status == 200
        assert reply.content_type == METRICS_TYPE
        text = reply.body.decode("utf-8")
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert "# TYPE repro_blob_cache_hits_total counter" in text
        assert "repro_store_manifests 1" in text
        assert "repro_serve_uptime_seconds" in text

    def test_request_counter_grows_with_bounded_route_labels(self, client):
        fingerprint = ResultsStore(
            client.healthz()["store_dir"]
        ).manifests()[0].fingerprint
        client.manifest(fingerprint)
        client.manifest(fingerprint)
        text = client.get("/metrics").body.decode("utf-8")
        line = next(
            l for l in text.splitlines()
            if l.startswith("repro_http_requests_total")
            and 'route="/manifests"' in l
        )
        # The full fingerprint must not appear as a label value: routes are
        # reduced to their first segment so the series set stays bounded.
        assert fingerprint not in text
        assert int(line.rsplit(" ", 1)[1]) >= 2

    def test_client_chosen_labels_add_at_most_one_series(self, server, client):
        # The method and the path come from the client: many distinct
        # unknown paths, then many unknown methods, may each add one series
        # per family (the folded value), never one per request.
        families = ("repro_http_requests_total{", "repro_http_request_seconds_count{")

        def series_counts():
            text = client.get("/metrics").body.decode("utf-8")
            return [sum(line.startswith(family) for line in text.splitlines())
                    for family in families]

        def send(method, path):
            connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
            try:
                connection.request(method, path)
                connection.getresponse().read()
            finally:
                connection.close()

        before = series_counts()
        for index in range(50):
            send("GET", f"/probe{index}")
        after_paths = series_counts()
        for index in range(20):
            send(f"M{index}", "/manifests")
        after_methods = series_counts()
        assert all(a - b <= 1 for a, b in zip(after_paths, before))
        assert all(a - b <= 1 for a, b in zip(after_methods, after_paths))
        text = client.get("/metrics").body.decode("utf-8")
        assert "probe" not in text and 'method="M' not in text

    def test_metrics_is_not_cacheable(self, client):
        reply = client.get("/metrics")
        assert reply.headers.get("cache-control") == "no-store"


class TestHealthz:
    def test_enriched_liveness_payload(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["manifests"] == 1
        assert payload["requests_served"] >= 0
        assert payload["uptime_s"] >= 0.0
        assert isinstance(payload["pid"], int)
        assert set(payload["blob_cache"]) >= {"hits", "misses", "entries", "bytes"}


class TestAccessLog:
    def test_observer_logs_structured_extras(self, tmp_path, caplog):
        app = ResultsApp(ResultsStore(str(tmp_path)))
        observe = _observer_for(app, log=True)
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            observe("127.0.0.1", "GET", "/healthz", 200, 42, 0.0031)
        record = caplog.records[-1]
        assert record.name == "repro.serve"
        assert record.peer == "127.0.0.1"
        assert record.method == "GET"
        assert record.path == "/healthz"
        assert record.status == 200
        assert record.bytes == 42
        assert '"GET /healthz" 200' in record.getMessage()

    def test_observer_records_metrics_even_when_not_logging(self, tmp_path):
        app = ResultsApp(ResultsStore(str(tmp_path)))
        observe = _observer_for(app, log=False)
        observe("127.0.0.1", "GET", "/healthz", 200, 42, 0.0031)
        snapshot = app.metrics.snapshot()
        series = snapshot["repro_http_requests_total"]["series"]
        assert series[0]["value"] == 1

    def test_observer_builds_no_access_line_below_info(self, tmp_path, monkeypatch):
        app = ResultsApp(ResultsStore(str(tmp_path)))
        observe = _observer_for(app, log=True)
        logger = logging.getLogger("repro.serve")
        calls = []
        monkeypatch.setattr(logger, "info", lambda *args, **kwargs: calls.append(args))
        level = logger.level
        logger.setLevel(logging.WARNING)
        try:
            observe("127.0.0.1", "GET", "/healthz", 200, 42, 0.0031)
        finally:
            logger.setLevel(level)
        assert calls == []
        assert app.metrics.snapshot()["repro_http_requests_total"]["series"][0]["value"] == 1

    def test_request_instruments_are_looked_up_once_per_label_set(self, tmp_path):
        app = ResultsApp(ResultsStore(str(tmp_path)))
        lookups = []
        counter, histogram = app.metrics.counter, app.metrics.histogram
        app.metrics.counter = lambda *a, **k: lookups.append(k) or counter(*a, **k)
        app.metrics.histogram = lambda *a, **k: lookups.append(k) or histogram(*a, **k)
        for path in ("/healthz", "/healthz/", "/healthz"):
            app.record_request("GET", path, 200, 0.001)
        app.record_request("GET", "/healthz", 404, 0.002)
        assert len(lookups) == 4  # two label sets, two instruments each
        series = app.metrics.snapshot()["repro_http_requests_total"]["series"]
        assert [(entry["labels"]["status"], entry["value"]) for entry in series] == [
            ("200", 3), ("404", 1)
        ]

    def test_serve_package_does_not_configure_handlers(self):
        # Libraries must stay silent: only a NullHandler on import, so
        # embedding applications control their own logging policy.
        logger = logging.getLogger("repro.serve")
        assert all(
            isinstance(h, logging.NullHandler) for h in logger.handlers
        )
