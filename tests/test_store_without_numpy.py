"""Reading recorded results needs neither numpy nor the simulator.

One campaign is recorded in this process.  Each reader then runs twice as a
child process: normally, and with a stand-in ``numpy`` package first on its
path whose import raises ``ImportError``.  The store commands (``repro
--help``, ``store list|show|verify``, a warm ``campaign report
--store-dir``) must print byte-identical output both ways, and ``repro
serve`` must answer every route with the same status, body and ETag.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import re
import select
import signal
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main
from repro.store import ResultsStore

SRC = str(Path(__file__).resolve().parent.parent / "src")
RUN_ARGS = ["paper_figures", "--subgrid", "fig9", "--duration-ms", "0.25", "--traffic-scale", "0.1"]

#: ``/healthz`` fields that differ between any two server processes.
PROCESS_FIELDS = ("pid", "uptime_s", "requests_served")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """(store dir, cache dir, a directory holding the numpy stand-in)."""
    root = tmp_path_factory.mktemp("without-numpy")
    store, cache = root / "store", root / "cache"
    with redirect_stdout(io.StringIO()):
        code = main(["campaign", "run", *RUN_ARGS,
                     "--store-dir", str(store), "--cache-dir", str(cache)])
    assert code == 0
    blocker = root / "blocker"
    (blocker / "numpy").mkdir(parents=True)
    (blocker / "numpy" / "__init__.py").write_text(
        'raise ImportError("numpy is blocked in this process")\n'
    )
    return store, cache, blocker


def _env(blocker=None):
    path = [str(blocker)] if blocker is not None else []
    return {**os.environ, "PYTHONPATH": os.pathsep.join([*path, SRC])}


def _repro(argv, blocker=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=_env(blocker),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_the_stand_in_blocks_numpy(recorded):
    _, _, blocker = recorded
    completed = subprocess.run(
        [sys.executable, "-c", "import numpy"],
        env=_env(blocker),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert "numpy is blocked" in completed.stderr


@pytest.mark.parametrize(
    "command",
    ["help", "store list", "store list json", "store show", "store verify", "campaign report"],
)
def test_store_commands_run_without_numpy(recorded, command):
    store, cache, blocker = recorded
    fingerprint = ResultsStore(store).manifests()[0].fingerprint
    argv = {
        "help": ["--help"],
        "store list": ["store", "list", "--store-dir", str(store)],
        "store list json": ["store", "list", "--format", "json", "--store-dir", str(store)],
        "store show": ["store", "show", fingerprint[:12], "--store-dir", str(store)],
        "store verify": ["store", "verify", "--store-dir", str(store), "--cache-dir", str(cache)],
        "campaign report": ["campaign", "report", *RUN_ARGS, "--store-dir", str(store)],
    }[command]
    normal = _repro(argv)
    blocked = _repro(argv, blocker)
    assert normal.returncode == 0, normal.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout


class _Server:
    """A ``python -m repro serve --port 0`` child on a store."""

    def __init__(self, store, blocker=None) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store-dir", str(store),
             "--port", "0", "--log-level", "warning"],
            env=_env(blocker),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
        line = self.process.stdout.readline() if ready else ""
        match = re.search(r"http://[^:\s]+:(\d+)", line)
        if match is None:
            self.process.kill()
            _, stderr = self.process.communicate()
            pytest.fail(f"repro serve did not start: {line!r}\n{stderr}")
        self.port = int(match.group(1))

    def get(self, path, headers=()):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path, headers=dict(headers))
            response = connection.getresponse()
            return response.status, response.read(), response.getheader("ETag")
        finally:
            connection.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.process.stderr.close()


def _replies(server, fingerprint, digest):
    """The CI serve job's round trip: status, body and ETag per request."""
    replies = {}
    status, body, etag = server.get("/healthz")
    health = json.loads(body)
    for name in PROCESS_FIELDS:
        health.pop(name)
    replies["/healthz"] = (status, health, etag)
    for path in ("/manifests", f"/manifests/{fingerprint}", f"/artifacts/{digest}",
                 f"/reports/{fingerprint}/report_md"):
        replies[path] = server.get(path)
    report_etag = replies[f"/reports/{fingerprint}/report_md"][2]
    replies["304"] = server.get(
        f"/reports/{fingerprint}/report_md", headers=[("If-None-Match", report_etag)]
    )
    return replies


def test_serve_runs_without_numpy(recorded):
    store, _, blocker = recorded
    manifest = ResultsStore(store).manifests()[0]
    digest = manifest.artifacts["report_md"].digest
    answers = []
    for stand_in in (None, blocker):
        server = _Server(store, stand_in)
        try:
            answers.append(_replies(server, manifest.fingerprint, digest))
        finally:
            server.stop()
    normal, blocked = answers
    assert [reply[0] for reply in normal.values()] == [200, 200, 200, 200, 200, 304]
    assert normal[f"/reports/{manifest.fingerprint}/report_md"][1]
    assert blocked == normal
