"""One benchmark workload, run in a fresh process by ``run.py``.

Usage (``run.py`` writes the config; this is not meant to be run by hand)::

    PYTHONPATH=src python3 benchmarks/bench/workload.py CONFIG.json [--setup]

With ``--setup`` the process does only the workload's set-up — import
``repro.cli`` and load the campaign, or for ``serve_reads`` start ``repro
serve`` and wait for its first ``/healthz`` 200 — prints ``READY`` with its
host-speed samples and exits; ``run.py`` times spawn to ``READY`` and
corrects it by the samples as ``setup_s``.

Otherwise it runs timed repetitions for ``seconds`` and, in traced mode,
the extra passes that give the per-layer numbers.  Every timed call runs
under a ``HostClock``, which samples the host's speed while it runs.  The
result is written to the config's ``result`` path as JSON.  Campaign
workloads drive
``repro.cli.main(["campaign", "run", ...])`` in this process; ``serve_reads``
queries a ``repro serve`` child through ``ResultsClient`` over two
keep-alive connections, one thread each (a closed loop).

Nothing from ``repro`` is imported at module level, so ``--setup`` times
the package import too.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import http.client
import io
import json
import os
import random
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: Closed-loop load: this many keep-alive connections, one thread each.
CONNECTIONS = 2
SERVER_START_TIMEOUT_S = 30.0
#: While timed work runs, the host's speed is sampled this often.
SAMPLE_PERIOD_S = 0.02
#: ``setup_s`` is given at the host speed at which the reference loop
#: without the walk takes this long (about the recorded 2-CPU host's usual speed).
REFERENCE_NOMINAL_S = 0.0004


class BenchError(RuntimeError):
    """A workload step failed; the benchmark reports no result."""


def resident_bytes() -> int:
    """This process's resident set now (Linux)."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class ReferenceLoop:
    """Fixed work whose duration reads the host's speed: an arithmetic loop,
    then, with ``walk``, 750 reads at shuffled positions of a
    300,000-element list.  About 0.45 ms on the machine in latest.json.
    The arithmetic alone tracked the simulator but not the server, which
    slows more when the host is busy; with the walk both follow it (README,
    "Sizing and noise").

    A child forked while the list exists counts it in its ``ru_maxrss``, so
    a workload that forks during timed work (the pool) goes without the walk.
    """

    def __init__(self, walk: bool) -> None:
        before = resident_bytes()
        self.values = list(range(300_000)) if walk else []
        self.order = list(range(0, 300_000, 400)) if walk else []
        random.Random(1).shuffle(self.order)
        #: What the list added to the resident set; ``peak_rss_mb`` omits it.
        self.resident_bytes = resident_bytes() - before

    def __call__(self) -> int:
        total = 0
        for i in range(4000):
            total += i * i % 7
        values = self.values
        for index in self.order:
            total += values[index]
        return total


#: Built by the first HostClock, before any timed work; ``main`` sets
#: whether it walks.
REFERENCE: Optional[ReferenceLoop] = None
REFERENCE_WALK = True


class HostClock:
    """Wall time of a block, and the same time in units of the host's speed.

    Each CPU of the machine slows by up to 2x, independently of the other,
    for seconds to minutes while other tenants run, and CPU time slows with
    it.  So while the block runs, a SIGALRM handler times the reference loop
    every ``SAMPLE_PERIOD_S``: the samples see the slowdown the block sees,
    at the same moments.  ``wall_s`` is the block's wall time minus the
    samples; ``kref`` is ``wall_s`` over the mean sample, in thousands.
    The handler runs in this process's main thread, on this process's CPU.
    """

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.samples: List[float] = []
        self.wall_s = 0.0

    def _take(self, *_: Any) -> None:
        began = time.perf_counter()
        REFERENCE()
        self.samples.append(time.perf_counter() - began)

    def __enter__(self) -> "HostClock":
        global REFERENCE
        if REFERENCE is None:
            REFERENCE = ReferenceLoop(REFERENCE_WALK)
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._take)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._began = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall_s = time.perf_counter() - self._began
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self.wall_s -= sum(self.samples)
            if not self.samples:  # a block shorter than one period
                self._take()

    @property
    def kref(self) -> float:
        return self.wall_s / statistics.fmean(self.samples) / 1e3


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped.

    Pool workers and the ``repro serve`` child are reaped before this is
    read; Linux reports ``ru_maxrss`` in KiB.  The reference loop's list,
    alive from before the first timed call to the end, is not counted.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    if REFERENCE is not None:
        own -= REFERENCE.resident_bytes
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    return max(own, children) / 2**20


def repeat(config: Dict[str, Any], one: Callable[[], Any], wall: Callable[[Any], float]) -> List[Any]:
    """Run ``one`` at least ``min_reps`` times and until ``seconds`` is spent.

    Stops before a repetition that would likely end past the budget.  The
    heap is collected before each repetition, so one repetition's garbage
    is not collected on the next one's clock.
    """
    outcomes: List[Any] = []
    began = time.perf_counter()
    while True:
        gc.collect()
        outcomes.append(one())
        elapsed = time.perf_counter() - began
        typical = statistics.median([wall(outcome) for outcome in outcomes])
        if len(outcomes) >= config["min_reps"] and elapsed + typical > config["seconds"]:
            return outcomes


def run_cli(argv: List[str], profiler: Any = None) -> Tuple[int, str, HostClock]:
    """``repro.cli.main`` in this process: its exit code, its captured
    stdout and the clock of the call, run under ``profiler`` if given (the
    host is then not sampled, so the profile holds only the program)."""
    from repro.cli import main as cli_main

    buffer = io.StringIO()
    clock = HostClock(sample=profiler is None)
    with contextlib.redirect_stdout(buffer), clock:
        if profiler is not None:
            profiler.enable()
        try:
            code = cli_main(argv)
        finally:
            if profiler is not None:
                profiler.disable()
    return code, buffer.getvalue(), clock


def store_footprint(store: Optional[Path]) -> Tuple[int, int]:
    """(bytes of every file, number of artifact blobs) of a results store."""
    if store is None:
        return 0, 0
    size = sum(path.stat().st_size for path in store.rglob("*") if path.is_file())
    blobs = sum(1 for path in (store / "artifacts").rglob("*") if path.is_file())
    return size, blobs


# --------------------------------------------------------------------------- #
# Campaign workloads
# --------------------------------------------------------------------------- #
class Rep:
    """One ``campaign run`` invocation and what it left behind."""

    def __init__(self, clock: HostClock, report: bytes, stats: Dict[str, Any], rep_dir: Path):
        self.clock = clock
        self.wall_s = clock.wall_s
        self.report = report
        self.digest = hashlib.sha256(report).hexdigest()
        self.stats = stats
        self.rep_dir = rep_dir

    def checks_failed(self) -> int:
        payload = json.loads(self.report)
        return sum(
            1
            for subgrid in payload["subgrids"]
            for check in subgrid["checks"]
            if not check["passed"]
        )


class CampaignWorkload:
    """Repetitions of one ``repro campaign run`` against fresh cache and store."""

    def __init__(self, config: Dict[str, Any]) -> None:
        self.config = config
        self.workdir = Path(config["workdir"])
        fixture = config.get("fixture_store")
        self.fixture = Path(fixture) if fixture else None
        self.fixture_manifests = (
            {path.name for path in (self.fixture / "manifests").glob("*.json")}
            if self.fixture
            else set()
        )
        self._count = 0

    def rep(
        self,
        campaign: Optional[str] = None,
        extra: Tuple[str, ...] = (),
        profiler: Any = None,
        keep: bool = False,
    ) -> Rep:
        """One campaign run: fresh cache, fresh store (or a copy of the
        fixture store), report written as JSON.  Only the CLI call is timed."""
        self._count += 1
        rep_dir = self.workdir / "reps" / f"rep{self._count}"
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        store = rep_dir / "store"
        if self.fixture is not None:
            shutil.copytree(self.fixture, store)
        report = rep_dir / "report.json"
        argv = [
            "campaign", "run", campaign or self.config["campaign"],
            *self.config["run_args"], *extra,
            "--cache-dir", str(rep_dir / "cache"),
            "--store-dir", str(store),
            "--format", "json", "--output", str(report),
        ]
        code, output, clock = run_cli(argv, profiler)
        if code != 0:
            raise BenchError(f"campaign run exited {code}: {output[-2000:]}")
        recorded = sorted(
            path
            for path in (store / "manifests").glob("*.json")
            if path.name not in self.fixture_manifests
        )
        if len(recorded) != 1:
            raise BenchError(f"expected one new manifest, found {len(recorded)}")
        stats = json.loads(recorded[0].read_text())["stats"]
        outcome = Rep(clock, report.read_bytes(), stats, rep_dir)
        if not keep:
            shutil.rmtree(rep_dir, ignore_errors=True)
        return outcome


def run_campaign(config: Dict[str, Any]) -> Dict[str, Any]:
    workload = CampaignWorkload(config)
    code, output, _ = run_cli(["campaign", "validate", config["campaign"]])
    checks = {"campaign_validate": code == 0}
    if code != 0:
        raise BenchError(f"campaign validate failed: {output}")
    reps = repeat(config, workload.rep, lambda rep: rep.wall_s)
    first = reps[0]
    checks["stable_digest"] = all(rep.digest == first.digest for rep in reps)
    expected_reuse = config.get("expect_reused")
    if expected_reuse is not None:
        checks["reuse_count"] = all(rep.stats["reused"] == expected_reuse for rep in reps)
    result: Dict[str, Any] = {
        "samples": {"wall_kref": [rep.clock.kref for rep in reps]},
        "info": {"wall_s": [rep.wall_s for rep in reps]},
        "attempted": sum(rep.stats["total"] for rep in reps),
        "failed": sum(rep.stats["quarantined"] for rep in reps),
        "checks": checks,
        "results_digest": first.digest,
        "checks_failed": first.checks_failed(),
    }
    if config["mode"] == "traced":
        result["layers"] = traced_campaign(config, workload, reps, checks)
    result["samples"]["peak_rss_mb"] = [peak_rss_mb()]
    return result


def _sim_counters(systems: List[Any]) -> Dict[str, float]:
    """Simulated-statistics parity counters summed over the built systems."""
    served = sum(system.controller.served_transactions for system in systems)
    mc_count = sum(system.controller.latency_stats.count for system in systems)
    mc_total = sum(system.controller.latency_stats.total for system in systems)
    noc_count = sum(system.network.network_latency.count for system in systems)
    noc_total = sum(system.network.network_latency.total for system in systems)
    accesses = sum(system.dram.total_accesses for system in systems)
    return {
        "memctrl.served_transactions": served,
        "memctrl.avg_latency_ns": mc_total / mc_count / 1e3 if mc_count else 0.0,
        "dram.row_hit_rate": (
            sum(system.dram.row_hits for system in systems) / accesses if accesses else 0.0
        ),
        "noc.avg_latency_ns": noc_total / noc_count / 1e3 if noc_count else 0.0,
        "core.adaptation_ticks": sum(system.framework.samples_taken for system in systems),
        "sim.fired_events": sum(system.engine.fired_events for system in systems),
    }


def _traced_rep(workload: CampaignWorkload, extra: Tuple[str, ...] = ()):
    """One repetition with span wrappers on the layer boundaries.

    Returns (rep, recorder, sweep stats, built systems).  The systems are
    read for counters after the run; the sweep stats object is the one the
    scheduler hands to ``ResultsStore.record_campaign``.
    """
    import repro.campaign.scheduler as scheduler_mod
    import repro.cli as cli_mod
    import repro.runner.cache as cache_mod
    import repro.store.index as index_mod
    import repro.store.store as store_mod
    import repro.system.experiment as experiment_mod
    from tracing import Patches, SpanRecorder

    recorder = SpanRecorder()
    outcomes: List[Any] = []
    systems: List[Any] = []
    with Patches(recorder) as patches:
        patches.wrap(scheduler_mod.CampaignScheduler, "plan", "campaign.plan")
        patches.wrap(scheduler_mod, "run_sweep", "runner.sweep")
        patches.wrap(cache_mod.ResultCache, "get", "runner.cache_get")
        patches.wrap(cache_mod.ResultCache, "put", "runner.cache_put")
        patches.wrap(index_mod.StoreMemo, "probe", "store.memo_probe")
        patches.wrap(index_mod.StoreMemo, "get", "store.memo_get")
        patches.wrap(
            store_mod.ResultsStore,
            "record_campaign",
            "store.record",
            on_return=lambda args, kwargs, result: outcomes.append(args[1]),
        )
        # The renderers under the names their callers bound at import:
        # the CLI renders the printed report, the store the recorded ones.
        for name in ("campaign_report_md", "campaign_report_payload"):
            patches.wrap(cli_mod, name, "campaign.report")
        for name in (
            "campaign_report_md",
            "campaign_report_payload",
            "subgrid_report_md",
            "subgrid_report_payload",
            "points_csv",
        ):
            patches.wrap(store_mod, name, "campaign.report")
        patches.wrap(
            experiment_mod,
            "build_system",
            "system.build",
            on_return=lambda args, kwargs, result: systems.append(result),
        )
        with recorder.span("campaign.run"):
            rep = workload.rep(extra=extra, keep=True)
    if len(outcomes) != 1:
        raise BenchError(f"expected one recorded campaign, saw {len(outcomes)}")
    return rep, recorder, outcomes[0].stats, systems


def traced_campaign(
    config: Dict[str, Any],
    workload: CampaignWorkload,
    reps: List[Rep],
    checks: Dict[str, bool],
) -> Dict[str, float]:
    """The spans pass, the in-process pass (pool workloads), the bundled
    campaign check (default seed) and the profile pass."""
    import cProfile

    from tracing import self_time_by_layer

    baseline = statistics.median([rep.clock.kref for rep in reps])
    digest = reps[0].digest
    rep, recorder, stats, systems = _traced_rep(workload)
    traces = [recorder.chrome_trace(f"{config['workload']} spans pass")]
    checks["traced_digest"] = rep.digest == digest
    before_bytes, before_blobs = store_footprint(workload.fixture)
    after_bytes, after_blobs = store_footprint(rep.rep_dir / "store")
    shutil.rmtree(rep.rep_dir, ignore_errors=True)

    sweep_s = recorder.total_s("runner.sweep")
    layers: Dict[str, float] = {
        "campaign.plan_s": recorder.total_s("campaign.plan"),
        "campaign.report_s": recorder.total_s("campaign.report", outside="store.record"),
        "campaign.points": stats.total,
        "campaign.checks_failed": rep.checks_failed(),
        "runner.sweep_s": sweep_s,
        "runner.resolve_s": stats.resolve_s,
        "runner.serialize_s": stats.serialize_s,
        "runner.pool_startup_s": stats.pool_startup_s,
        "runner.executed": stats.executed,
        "runner.cache_hits": stats.cache_hits,
        "runner.reused_points": stats.reused_points,
        "runner.batches": stats.batches,
        "runner.dispatch_overhead_s": sweep_s
        - stats.sim_wall_s
        - stats.resolve_s
        - stats.serialize_s
        - stats.index_lookup_s
        - stats.pool_startup_s,
        "runner.parallel_efficiency": (
            stats.sim_cpu_s / (stats.jobs * (sweep_s - stats.pool_startup_s))
            if sweep_s > stats.pool_startup_s
            else 0.0
        ),
        "runner.pool_speedup": 0.0,
        "store.record_s": recorder.total_s("store.record"),
        "store.index_probe_s": recorder.total_s("store.memo_probe")
        + recorder.total_s("store.memo_get"),
        "store.bytes_written": after_bytes - before_bytes,
        "store.artifacts_written": after_blobs - before_blobs,
        "obs.trace_overhead_frac": rep.clock.kref / baseline - 1.0,
    }

    # Simulator counters need the systems in this process; a pool workload
    # builds them in its workers, so it runs once more in-process (traced
    # too) and that run must report the same bytes as the pool.
    sim_recorder, sim_stats, sim_systems = recorder, stats, systems
    if config.get("pool"):
        inproc, sim_recorder, sim_stats, sim_systems = _traced_rep(
            workload, extra=("--executor", "inprocess")
        )
        traces.append(sim_recorder.chrome_trace(f"{config['workload']} in-process pass"))
        shutil.rmtree(inproc.rep_dir, ignore_errors=True)
        checks["inprocess_parity"] = inproc.digest == digest
        # Wall seconds, not kref: the pool's workers share the CPU with the
        # samples, the in-process run does not.
        layers["runner.pool_speedup"] = inproc.wall_s / statistics.median(
            [rep.wall_s for rep in reps]
        )
    counters = _sim_counters(sim_systems)
    sim_cpu_s = sim_stats.sim_cpu_s
    layers.update(counters)
    layers["system.build_s"] = sim_recorder.total_s("system.build")
    layers["sim.sim_cpu_s"] = sim_cpu_s
    layers["sim.ns_per_event"] = (
        sim_cpu_s * 1e9 / counters["sim.fired_events"] if counters["sim.fired_events"] else 0.0
    )
    layers["sim.txn_per_cpu_s"] = (
        counters["memctrl.served_transactions"] / sim_cpu_s if sim_cpu_s else 0.0
    )

    if config.get("bundled"):
        bundled = workload.rep(campaign=config["bundled"])
        checks["bundled_parity"] = bundled.digest == digest

    profiler = cProfile.Profile()
    profiled = workload.rep(extra=("--executor", "inprocess"), profiler=profiler)
    checks["profiled_digest"] = profiled.digest == digest
    profiler.create_stats()
    for layer, seconds in self_time_by_layer(profiler.stats).items():
        layers[f"{layer}.self_s"] = seconds

    write_trace(config, traces)
    return layers


# --------------------------------------------------------------------------- #
# serve_reads
# --------------------------------------------------------------------------- #
class Server:
    """A ``repro serve --port 0`` child process on the fixture store."""

    def __init__(self, store_dir: str, log_path: Path) -> None:
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store-dir", store_dir, "--port", "0", "--log-level", "warning",
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.process.stdout], [], [], SERVER_START_TIMEOUT_S)
        line = self.process.stdout.readline().decode("utf-8", "replace") if ready else ""
        match = re.search(r"http://[^:\s]+:(\d+)", line)
        if match is None:
            self.stop()
            raise BenchError(f"repro serve did not report its address: {line!r}")
        return int(match.group(1))

    def wait_healthy(self) -> None:
        from repro.serve import ResultsClient

        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        with ResultsClient("127.0.0.1", self.port) as client:
            while True:
                try:
                    if client.get("/healthz").status == 200:
                        return
                except OSError:
                    pass
                if time.monotonic() > deadline:
                    raise BenchError("repro serve never answered /healthz with 200")
                time.sleep(0.01)

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far (Linux)."""
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """Graceful shutdown (SIGINT), then kill; always reaps the process."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


#: One cycle of the request mix per manifest: (route, path, etag, expected
#: status).  Route names are the per-layer ``serve.<route>.p50_ms`` keys.
Request = Tuple[str, str, Optional[str], int]
SERVE_ROUTES = ("healthz", "manifests", "manifest", "artifact", "report", "report_304", "metrics")


def request_plan(store_dir: str) -> Tuple[List[Request], Dict[str, bytes]]:
    """The request mix over every manifest, plus the recorded bytes the
    server must send back for the report paths.

    The mix replays, in order, every caller of the service the repository
    records: the CI ``serve`` job (``/healthz`` until it answers, ``/healthz``,
    ``/manifests``, the manifest, the report's artifact, ``report_md``, then
    ``report_md`` with its ETag for a 304), the CI ``obs`` job (``/healthz``
    until it answers, ``/metrics``) and the ``ResultsClient`` example in
    docs/results_service.md (``report_md``, then again with its ETag).
    """
    from repro.store import ResultsStore

    store = ResultsStore(store_dir)
    plan: List[Request] = []
    expected: Dict[str, bytes] = {}
    for manifest in sorted(store.manifests(), key=lambda item: item.fingerprint):
        fp = manifest.fingerprint
        report = manifest.artifacts["report_md"]
        report_path = f"/reports/{fp}/report_md"
        artifact_path = f"/artifacts/{report.digest}"
        expected[report_path] = expected[artifact_path] = store.read_artifact_bytes(report)
        plan += [
            ("healthz", "/healthz", None, 200),
            ("healthz", "/healthz", None, 200),
            ("manifests", "/manifests", None, 200),
            ("manifest", f"/manifests/{fp}", None, 200),
            ("artifact", artifact_path, None, 200),
            ("report", report_path, None, 200),
            ("report_304", report_path, report.digest, 304),
            ("healthz", "/healthz", None, 200),
            ("metrics", "/metrics", None, 200),
            ("report", report_path, None, 200),
            ("report_304", report_path, report.digest, 304),
        ]
    return plan, expected


class PassResult(NamedTuple):
    clock: HostClock
    #: (route, latency in ms) of every request answered with the expected status.
    samples: List[Tuple[str, float]]
    #: Requests sent minus those answered with the expected status.
    failed: int
    not_modified: int
    mismatched: int


def serve_pass(clients: List[Any], plan: List[Request], expected: Dict[str, bytes],
               requests: int, recorder: Any = None) -> PassResult:
    """``requests`` requests over the clients, each on its own thread and
    sending its next request only when the previous reply has arrived."""
    start = threading.Event()
    per_thread: List[Dict[str, Any]] = []

    def drive(client: Any, offset: int, tally: Dict[str, Any]) -> None:
        start.wait()
        for index in range(offset, requests, len(clients)):
            route, path, etag, status = plan[index % len(plan)]
            span = (
                recorder.span("serve.request", route=route)
                if recorder is not None
                else contextlib.nullcontext()
            )
            began = time.perf_counter()
            try:
                with span:
                    reply = client.get(path, etag=etag)
            except (OSError, http.client.HTTPException):
                continue  # a transport error: counted as failed below
            if reply.status != status:
                continue
            tally["samples"].append((route, (time.perf_counter() - began) * 1e3))
            if status == 304:
                tally["not_modified"] += 1
            elif path in expected and reply.body != expected[path]:
                tally["mismatched"] += 1

    threads = []
    for offset, client in enumerate(clients):
        tally: Dict[str, Any] = {"samples": [], "not_modified": 0, "mismatched": 0}
        per_thread.append(tally)
        threads.append(threading.Thread(target=drive, args=(client, offset, tally)))
    for thread in threads:
        thread.start()
    with HostClock() as clock:
        start.set()
        for thread in threads:
            thread.join()
    samples = [sample for tally in per_thread for sample in tally["samples"]]
    return PassResult(
        clock,
        samples,
        requests - len(samples),
        sum(tally["not_modified"] for tally in per_thread),
        sum(tally["mismatched"] for tally in per_thread),
    )


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def run_serve(config: Dict[str, Any]) -> Dict[str, Any]:
    from repro.serve import ResultsClient

    workdir = Path(config["workdir"])
    store_dir = config["fixture_store"]
    plan, expected = request_plan(store_dir)
    requests = config["requests"]
    expected_304 = sum(1 for index in range(requests) if plan[index % len(plan)][3] == 304)
    # The host's CPUs slow down independently of each other, so the server
    # (which inherits this affinity) and the client share one CPU: the
    # HostClock samples, taken in this process, then see the CPU that does
    # the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    server = Server(store_dir, workdir / "server.log")
    clients = [ResultsClient("127.0.0.1", server.port) for _ in range(CONNECTIONS)]
    try:
        server.wait_healthy()
        # One untimed pass opens the connections and fills the blob cache.
        serve_pass(clients, plan, expected, len(plan))
        server_cpu = server.cpu_s()
        client_cpu = time.process_time()
        passes = repeat(
            config,
            lambda: serve_pass(clients, plan, expected, requests),
            lambda result: result.clock.wall_s,
        )
        server_cpu = server.cpu_s() - server_cpu
        client_cpu = time.process_time() - client_cpu
        client_cpu -= sum(sum(result.clock.samples) for result in passes)
        layers: Dict[str, float] = {}
        if config["mode"] == "traced":
            layers = traced_serve(config, server, clients, plan, expected, passes)
    finally:
        for client in clients:
            client.close()
        server.stop()
    sent = requests * len(passes)
    failed = sum(result.failed for result in passes)
    checks = {
        "no_failed_requests": failed == 0,
        "served_bytes_identical": all(result.mismatched == 0 for result in passes),
        "not_modified_exact": all(result.not_modified == expected_304 for result in passes),
    }
    if layers:
        latencies = [ms for result in passes for _, ms in result.samples]
        layers["serve.req_per_s"] = sent / sum(result.clock.wall_s for result in passes)
        layers["serve.p50_ms"] = percentile(latencies, 0.50)
        layers["serve.p99_ms"] = percentile(latencies, 0.99)
        for route in SERVE_ROUTES:
            layers[f"serve.{route}.p50_ms"] = percentile(
                [ms for result in passes for name, ms in result.samples if name == route], 0.50
            )
        layers["serve.server_cpu_s"] = server_cpu * 1e3 / sent
        layers["serve.client_cpu_s"] = client_cpu * 1e3 / sent
    digest = hashlib.sha256()
    for path in sorted(expected):
        digest.update(expected[path])
    from repro.store import ResultsStore

    checks_failed = sum(
        1
        for manifest in ResultsStore(store_dir).manifests()
        for entry in manifest.subgrids
        for check in entry.checks
        if not check.passed
    )
    result: Dict[str, Any] = {
        "samples": {
            "wall_kref": [result.clock.kref for result in passes],
            "peak_rss_mb": [peak_rss_mb()],
        },
        "info": {"wall_s": [result.clock.wall_s for result in passes]},
        "attempted": sent,
        "failed": failed,
        "checks": checks,
        "results_digest": digest.hexdigest(),
        "checks_failed": checks_failed,
    }
    if layers:
        layers["campaign.checks_failed"] = checks_failed
        result["layers"] = layers
    return result


def traced_serve(config: Dict[str, Any], server: Server, clients: List[Any],
                 plan: List[Request], expected: Dict[str, bytes],
                 passes: List[PassResult]) -> Dict[str, float]:
    """The spans pass (one span per request) and the blob-cache ratio."""
    from tracing import SpanRecorder

    recorder = SpanRecorder()
    with recorder.span("serve.pass"):
        traced = serve_pass(clients, plan, expected, config["requests"], recorder=recorder)
    if traced.failed or traced.mismatched:
        raise BenchError("the traced serve pass saw failed or mismatched replies")
    write_trace(config, [recorder.chrome_trace(f"{config['workload']} spans pass")])
    cache = clients[0].healthz()["blob_cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "serve.blob_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "obs.trace_overhead_frac": (
            traced.clock.kref / statistics.median([result.clock.kref for result in passes]) - 1.0
        ),
    }


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def write_trace(config: Dict[str, Any], traces: List[Dict[str, Any]]) -> None:
    """Write the passes' spans as one Chrome trace, one process per pass."""
    events = []
    for pid, trace in enumerate(traces, start=1):
        for event in trace["traceEvents"]:
            events.append(dict(event, pid=pid))
    path = Path(config["trace_dir"]) / f"{config['workload']}.trace.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def setup_probe(config: Dict[str, Any]) -> int:
    """Do the workload's set-up under a HostClock, print ``READY`` with the
    total and the mean of its samples (seconds), clean up.

    The process and the server it starts run on one CPU, the one the
    samples see.  The reference loop goes without its walk, whose list
    would add its build time to every set-up.
    """
    global REFERENCE_WALK
    REFERENCE_WALK = False
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    server = None
    try:
        with HostClock() as clock:
            if config["workload"] == "serve_reads":
                import repro.serve  # noqa: F401  (the client side's import)

                server = Server(config["fixture_store"], Path(config["workdir"]) / "server.log")
                server.wait_healthy()
            else:
                import repro.cli  # noqa: F401
                from repro.campaign import get_campaign

                get_campaign(config["campaign"])
        print(f"READY {sum(clock.samples)!r} {statistics.fmean(clock.samples)!r}", flush=True)
    finally:
        if server is not None:
            server.stop()
    return 0


def main(argv: List[str]) -> int:
    global REFERENCE_WALK
    config = json.loads(Path(argv[0]).read_text())
    if "--setup" in argv[1:]:
        return setup_probe(config)
    REFERENCE_WALK = not config["pool"]
    if config["workload"] == "serve_reads":
        result = run_serve(config)
    else:
        result = run_campaign(config)
    if "layers" in result:
        # A layer the workload does not exercise reads 0.
        result["layers"] = {
            name: float(result["layers"].get(name, 0.0)) for name in config["layer_names"]
        }
    Path(config["result"]).write_text(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
