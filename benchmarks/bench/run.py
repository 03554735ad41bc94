"""One benchmark for the whole SARA pipeline: campaign, runner, simulator, store, serve.

Run from the repository root::

    python3 benchmarks/bench/run.py [--workload NAME[,NAME...]] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--json PATH] [--smoke]

Each workload (see ``WORKLOADS`` and README.md) runs in a fresh child
process (``workload.py``) that drives only public entry points:
``repro.cli.main(["campaign", "run", ...])`` in-process, or ``repro serve
--port 0`` as a child queried through ``ResultsClient``.  Inputs come from
``--seed``: the seed is written into every sub-grid of the workload's
campaign (``platform.sim.seed``), so the same seed gives the same inputs.

For every workload this prints one line per metric,
``<workload> <metric> <median> <unit> (q1 q3 n)``, then, for information,
the timings in seconds as measured (``wall_kref`` and ``setup_s`` are
corrected for the host's speed; see README.md), then its output checks,
and as the last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json, or
with ``--trace 1`` its per-layer metrics.  A timed run never traces; the
traced run adds its own passes and writes ``<trace-dir>/<workload>.trace.json``
(Chrome trace format) and ``<trace-dir>/layers.json``.  The exit code is 0
only when every check passed.

Everything the benchmark writes goes under ``.bench_work/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from workload import REFERENCE_NOMINAL_S, BenchError

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BUNDLED_CAMPAIGNS = SRC / "repro" / "campaign" / "data"
BENCH_CAMPAIGNS = BENCH_DIR / "campaigns"

DEFAULT_SEED = 2018
#: Set-up is timed this many times per run; the median is reported.
SETUP_PROBES = 11
#: A run must end within this many seconds, set-up probes included.
DEADLINE_S = 170.0

#: The workloads.  ``run_args`` go to ``repro campaign run`` after the
#: workload's seeded campaign file; a ``fixture`` is recorded before the
#: child starts and is not timed.  The reasons are in README.md.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "paper_cold": {
        "campaign": "paper_figures",
        "run_args": ["--duration-ms", "0.2", "--jobs", "1", "--executor", "inprocess"],
    },
    "extended_pool": {
        "campaign": "extended",
        "run_args": ["--duration-ms", "0.5", "--jobs", "2"],
        "pool": True,
    },
    "scalar_fallback": {
        "campaign": "scalar_fallback",
        "run_args": ["--jobs", "1", "--executor", "inprocess"],
    },
    "incremental_overlap": {
        "campaign": "seed_grid",
        "run_args": ["--jobs", "1", "--executor", "inprocess"],
        # The case_a half (64 points) is recorded first; each repetition
        # runs the whole campaign against a copy of that store.
        "fixture_args": ["--subgrid", "case_a"],
        "expect_reused": 64,
    },
    "serve_reads": {
        "fixture_campaigns": ["paper_figures", "extended"],
        "fixture_args": ["--duration-ms", "0.1", "--traffic-scale", "0.2"],
        "requests": 1100,
    },
}

#: What ``--smoke`` changes: tiny simulations, one repetition, one probe.
SMOKE_DURATION_MS = "0.05"
SMOKE_REQUESTS = 200


def quartiles(values: List[float]) -> List[float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def load_benchmark() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def campaign_source(name: str) -> Path:
    for directory in (BENCH_CAMPAIGNS, BUNDLED_CAMPAIGNS):
        path = directory / f"{name}.json"
        if path.is_file():
            return path
    raise BenchError(f"no campaign file for '{name}'")


def write_seeded_campaign(name: str, seed: int, directory: Path) -> Path:
    """The campaign with ``platform.sim.seed`` set in every sub-grid.

    A sub-grid that sweeps the seed gets the axis ``seed .. seed+k-1``
    instead.  Labels show only axis values, so at the default seed the
    report is byte-identical to the unseeded campaign's.
    """
    data = json.loads(campaign_source(name).read_text())
    for subgrid in data["subgrids"].values():
        axes = subgrid.setdefault("axes", {})
        if "platform.sim.seed" in axes:
            axes["platform.sim.seed"] = list(range(seed, seed + len(axes["platform.sim.seed"])))
        else:
            subgrid.setdefault("settings", {})["platform.sim.seed"] = seed
    path = directory / f"{name}.json"
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def child_env(workdir: Path) -> Dict[str, str]:
    """The environment of every process the benchmark starts.

    ``repro`` comes from this checkout's ``src``; temporary files stay in
    the work directory; ``REPRO_*`` variables (program tracing, fault
    injection, kernel choice) are cleared so they cannot change a run.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError(f"the run exceeded {DEADLINE_S:.0f} s")
        return left


def run_process(argv: List[str], env: Dict[str, str], log: Path, deadline: Deadline) -> None:
    """Run one process in its own session; kill the whole session on timeout."""
    with open(log, "ab") as handle:
        process = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=handle, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = process.wait(timeout=deadline.left())
        except (subprocess.TimeoutExpired, BenchError, KeyboardInterrupt):
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise BenchError(f"{' '.join(argv[:4])} did not finish in time")
    if code != 0:
        tail = log.read_text(errors="replace")[-3000:]
        raise BenchError(f"{' '.join(argv[:6])} exited {code}; log tail:\n{tail}")


def probe_setup(config_path: Path, env: Dict[str, str], log: Path,
                deadline: Deadline) -> Tuple[float, float]:
    """Seconds from spawning a set-up-only child until it prints READY:
    as measured, and at the host speed ``REFERENCE_NOMINAL_S`` stands for.

    The child samples the host's speed while it sets up (``HostClock``) and
    prints its samples' total and mean; the samples' own time is left out.
    """
    with open(log, "ab") as handle:
        began = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "workload.py"), str(config_path), "--setup"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=handle,
            start_new_session=True,
        )
        try:
            ready, _, _ = select.select([process.stdout], [], [], min(60.0, deadline.left()))
            line = process.stdout.readline() if ready else b""
            elapsed = time.perf_counter() - began
            process.wait(timeout=min(30.0, deadline.left()))
        except (subprocess.TimeoutExpired, BenchError, KeyboardInterrupt):
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise BenchError("a set-up probe did not finish in time")
        finally:
            process.stdout.close()
    fields = line.split()
    if len(fields) != 3 or fields[0] != b"READY" or process.returncode != 0:
        raise BenchError(f"a set-up probe failed; see {log}")
    sampled_s, mean_sample_s = float(fields[1]), float(fields[2])
    return elapsed, (elapsed - sampled_s) * REFERENCE_NOMINAL_S / mean_sample_s


def record_fixture(campaign: Path, args: List[str], store: Path, env: Dict[str, str],
                   log: Path, deadline: Deadline) -> None:
    """Record a campaign into ``store`` through the CLI (not timed)."""
    run_process(
        [
            sys.executable, "-m", "repro", "campaign", "run", str(campaign),
            *args, "--executor", "inprocess",
            "--store-dir", str(store), "--cache-dir", str(store.parent / "fixture-cache"),
            "--format", "json", "--output", str(store.parent / f"{campaign.stem}.fixture.json"),
        ],
        env, log, deadline,
    )


def run_workload(name: str, args: argparse.Namespace, layer_names: List[str],
                 deadline: Deadline) -> Dict[str, Any]:
    """Fixture, the workload child, then the set-up probes."""
    spec = WORKLOADS[name]
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env(workdir)
    log = workdir / "run.log"
    smoke_args = ["--duration-ms", SMOKE_DURATION_MS] if args.smoke else []
    config: Dict[str, Any] = {
        "workload": name,
        "mode": "traced" if args.trace else "timed",
        "seconds": 0 if args.smoke else args.seconds,
        "min_reps": 1 if args.smoke else 3,
        "workdir": str(workdir),
        "result": str(workdir / "result.json"),
        "trace_dir": str(Path(args.trace_dir).resolve()),
        "layer_names": layer_names,
        "pool": spec.get("pool", False),
        "expect_reused": spec.get("expect_reused"),
    }
    fixture_began = time.perf_counter()
    if "campaign" in spec:
        campaign = write_seeded_campaign(spec["campaign"], args.seed, workdir)
        config["campaign"] = str(campaign)
        config["run_args"] = spec["run_args"] + smoke_args
        bundled = (BUNDLED_CAMPAIGNS / f"{spec['campaign']}.json").is_file()
        config["bundled"] = spec["campaign"] if bundled and args.seed == DEFAULT_SEED else None
        if "fixture_args" in spec:
            store = workdir / "fixture" / "store"
            store.parent.mkdir()
            record_fixture(campaign, spec["fixture_args"] + spec["run_args"] + smoke_args,
                           store, env, log, deadline)
            config["fixture_store"] = str(store)
    else:
        store = workdir / "fixture" / "store"
        store.parent.mkdir()
        for campaign_name in spec["fixture_campaigns"]:
            campaign = write_seeded_campaign(campaign_name, args.seed, store.parent)
            record_fixture(campaign, spec["fixture_args"] + smoke_args, store, env, log, deadline)
        config["fixture_store"] = str(store)
        config["requests"] = SMOKE_REQUESTS if args.smoke else spec["requests"]
    fixture_s = time.perf_counter() - fixture_began

    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    run_process([sys.executable, str(BENCH_DIR / "workload.py"), str(config_path)],
                env, log, deadline)
    result = json.loads(Path(config["result"]).read_text())
    result["fixture_s"] = fixture_s
    if not args.trace:
        probes = 1 if args.smoke else SETUP_PROBES
        measured = [probe_setup(config_path, env, log, deadline) for _ in range(probes)]
        result["samples"]["setup_s"] = [nominal for _, nominal in measured]
        result["info"]["setup_measured_s"] = [elapsed for elapsed, _ in measured]
    return result


def summarize(name: str, result: Dict[str, Any], declared: Dict[str, str],
              trace: bool) -> Dict[str, Any]:
    """Print the workload's lines; return its JSON record."""
    record: Dict[str, Any] = {
        "correct": all(result["checks"].values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checks": result["checks"],
        "results_digest": result["results_digest"],
        "checks_failed": result["checks_failed"],
        "fixture_s": result["fixture_s"],
        "metrics": {},
    }
    if trace:
        values = {key: [value] for key, value in result["layers"].items()}
    else:
        values = result["samples"]
    if set(values) != set(declared):
        raise BenchError(
            f"{name}: measured metrics {sorted(values)} differ from the declared "
            f"{sorted(declared)}"
        )
    for metric, unit in declared.items():
        samples = values[metric]
        q1, mid, q3 = quartiles(samples)
        record["metrics"][metric] = {
            "median": mid, "q1": q1, "q3": q3, "n": len(samples), "unit": unit,
            "samples": samples,
        }
        print(f"{name} {metric} {mid:.6g} {unit} ({q1:.6g} {q3:.6g} {len(samples)})")
    for metric, samples in result.get("info", {}).items():
        record[metric] = samples
        print(f"{name} {metric} {statistics.median(samples):.6g} s")
    print(f"{name} fixture_s {result['fixture_s']:.3f} s")
    print(f"{name} results_digest {result['results_digest']}")
    if "campaign.checks_failed" not in declared:
        print(f"{name} campaign.checks_failed {result['checks_failed']}")
    for check, passed in result["checks"].items():
        print(f"{name} check {check} {'ok' if passed else 'FAILED'}")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default=",".join(WORKLOADS),
        help="comma-separated workloads (default: all)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of timed repetitions per workload "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, which reports the per-layer metrics")
    parser.add_argument("--trace-dir", default=str(WORK / "trace"),
                        help="where the traced run writes its trace files")
    parser.add_argument("--json", default=None, help="also write every number to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="0.05 ms simulations, one repetition, 200 requests")
    args = parser.parse_args(argv)
    names = [name.strip() for name in args.workload.split(",") if name.strip()]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or not names:
        parser.error(f"unknown workload(s) {unknown} (known: {', '.join(WORKLOADS)})")

    began = time.perf_counter()
    try:
        if not (SRC / "repro" / "cli.py").is_file():
            raise BenchError(f"no repro package under {SRC}")
        benchmark = load_benchmark()
        if args.seconds is None:
            args.seconds = benchmark["run_seconds"]
        key = "per_layer" if args.trace else "end_to_end"
        declared = {metric["name"]: metric["unit"] for metric in benchmark[key]}
        layer_names = [metric["name"] for metric in benchmark["per_layer"]]
        trace_dir = Path(args.trace_dir)
        if args.trace:
            # The trace directory may hold an earlier run's files; none of
            # them may be read as this run's.
            stale = [trace_dir / "layers.json"]
            stale += [trace_dir / f"{name}.trace.json" for name in WORKLOADS]
            for path in stale:
                path.unlink(missing_ok=True)
        records = {}
        for name in names:
            deadline = Deadline(DEADLINE_S)
            result = run_workload(name, args, layer_names, deadline)
            records[name] = summarize(name, result, declared, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        layers = {
            name: {metric: entry["median"] for metric, entry in record["metrics"].items()}
            for name, record in records.items()
        }
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / "layers.json").write_text(json.dumps(layers, indent=2, sort_keys=True) + "\n")

    if args.json:
        payload = {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "env": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpu_count": os.cpu_count(),
            },
            "total_s": time.perf_counter() - began,
            "workloads": records,
        }
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")

    prefix = len(records) > 1
    line = {
        "correct": all(record["correct"] for record in records.values()),
        "attempted": sum(record["attempted"] for record in records.values()),
        "failed": sum(record["failed"] for record in records.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {
                "value": entry["median"], "unit": entry["unit"]
            }
            for name, record in records.items()
            for metric, entry in record["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
