"""Shared infrastructure for the benchmark harness.

Every module under ``benchmarks/`` regenerates one table or figure of the
paper's evaluation section and prints the corresponding text report, so a
``pytest -m slow -s`` run produces output that can be compared side by side
with the paper (see EXPERIMENTS.md).

Full 33 ms frame simulations of the full-rate workload take on the order of
half a minute each in pure Python, and several figures share the same runs,
so the harness routes everything through the sweep orchestrator
(:mod:`repro.runner`): results are reused in-process for the whole session,
persisted to an on-disk cache when ``REPRO_CACHE_DIR`` is set (the tiered CI
pipeline restores that directory with ``actions/cache``), and cold runs fan
out across ``REPRO_BENCH_JOBS`` worker processes.  The simulated window
defaults to 12 ms — long enough to contain the contended burst-drain phase
where the policies differ, short enough that the whole harness finishes in a
few minutes.

Every test collected from this directory is marked ``slow``; the default
``pytest`` invocation (tier 1) deselects them via ``-m "not slow"`` in
``pyproject.toml``.
"""

from __future__ import annotations

import atexit
import os
from typing import Dict, List, Optional

import pytest

from repro.runner import (
    ResultCache,
    RunSpec,
    WorkerPool,
    compare_policies_specs,
    run_sweep,
)
from repro.sim.clock import MS
from repro.sim.config import SimulationConfig
from repro.system.experiment import ExperimentResult

#: Simulated window per benchmark run (a slice of the 33 ms frame period).
BENCH_DURATION_PS = 12 * MS
#: Offered-traffic scale used by the benchmarks (1.0 = full camcorder rates).
BENCH_TRAFFIC_SCALE = 1.0
#: Worker processes for cold benchmark runs (1 = in-process).
BENCH_JOBS = max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))

_DISK_CACHE: Optional[ResultCache] = (
    ResultCache(os.environ["REPRO_CACHE_DIR"])
    if os.environ.get("REPRO_CACHE_DIR")
    else None
)
_RESULT_CACHE: Dict[str, ExperimentResult] = {}
_SESSION_STATS = {"runs": 0, "memory_hits": 0, "disk_hits": 0, "executed": 0}

# One warm worker pool for the whole pytest session: the first cold sweep
# pays the start-up cost (the session imports the simulator stack and forks
# the workers, which inherit it), every later figure module reuses the same
# workers.  The pool starts lazily inside run_sweep, so a fully cached
# session never starts a worker.
_POOL: Optional[WorkerPool] = WorkerPool(BENCH_JOBS) if BENCH_JOBS > 1 else None
if _POOL is not None:
    atexit.register(_POOL.close)


def cached_sweep(specs: List[RunSpec]) -> List[ExperimentResult]:
    """Resolve a grid of runs through the session (and optional disk) cache."""
    keyed = [(spec, spec.key()) for spec in specs]
    cold = [(spec, key) for spec, key in keyed if key not in _RESULT_CACHE]
    _SESSION_STATS["runs"] += len(specs)
    _SESSION_STATS["memory_hits"] += len(specs) - len(cold)
    if cold:
        disk_hits_before = _DISK_CACHE.hits if _DISK_CACHE is not None else 0
        results, stats = run_sweep(
            [spec for spec, _ in cold],
            jobs=BENCH_JOBS,
            cache=_DISK_CACHE,
            pool=_POOL,
        )
        for (spec, key), result in zip(cold, results):
            _RESULT_CACHE[key] = result
        # stats.cache_hits also counts duplicate specs deduplicated inside
        # the grid itself; only genuine ResultCache reads are disk hits.
        disk_hits = (
            _DISK_CACHE.hits - disk_hits_before if _DISK_CACHE is not None else 0
        )
        _SESSION_STATS["disk_hits"] += disk_hits
        _SESSION_STATS["memory_hits"] += stats.cache_hits - disk_hits
        _SESSION_STATS["executed"] += stats.executed
    return [_RESULT_CACHE[key] for _, key in keyed]


def figure_axis(subgrid: str, axis: str) -> List:
    """One declared axis of the bundled ``paper_figures`` campaign.

    The figure benchmarks and the campaign file must agree on what each
    figure's grid is; reading the axis from the campaign makes the file the
    single source of truth instead of a hand-rolled list per module.
    """
    from repro.campaign import get_campaign

    return list(get_campaign("paper_figures").subgrid(subgrid).axes[axis])


def policy_grid(
    scenario: str,
    policies: List[str],
    duration_ps: int = BENCH_DURATION_PS,
    traffic_scale: float = BENCH_TRAFFIC_SCALE,
) -> List[RunSpec]:
    """Specs for one scenario under several policies (the common figure grid)."""
    return compare_policies_specs(
        policies,
        scenario=scenario,
        duration_ps=duration_ps,
        traffic_scale=traffic_scale,
    )


def prefetch(specs: List[RunSpec]) -> None:
    """Warm the session cache for a module's whole grid in one sweep.

    Figure modules call this from a module-scoped autouse fixture so that
    their cold runs arrive at the orchestrator as one batch — which is what
    lets ``REPRO_BENCH_JOBS`` fan them out across worker processes instead
    of computing each point serially on first use.
    """
    cached_sweep(list(specs))


def cached_run(
    scenario: str,
    policy: str,
    duration_ps: int = BENCH_DURATION_PS,
    traffic_scale: float = BENCH_TRAFFIC_SCALE,
    dram_freq_mhz: Optional[float] = None,
    config: Optional[SimulationConfig] = None,
) -> ExperimentResult:
    """Run (or reuse) one benchmark experiment."""
    spec = RunSpec(
        scenario=scenario,
        policy=policy,
        duration_ps=duration_ps,
        traffic_scale=traffic_scale,
        dram_freq_mhz=dram_freq_mhz,
        config=config,
    )
    return cached_sweep([spec])[0]


_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_collection_modifyitems(items) -> None:
    """Everything under benchmarks/ belongs to the slow tier.

    The hook receives the whole session's items (conftest hooks are global),
    so it filters by path instead of marking everything.
    """
    for item in items:
        if str(item.fspath).startswith(_BENCH_DIR):
            item.add_marker(pytest.mark.slow)


def pytest_terminal_summary(terminalreporter) -> None:
    # This file is imported twice: once by pytest as the conftest plugin and
    # once as `benchmarks.conftest` by the test modules.  The tests mutate
    # the latter instance's counters, so resolve that one explicitly.
    try:
        from benchmarks.conftest import _SESSION_STATS as stats
    except ImportError:  # pragma: no cover - direct plugin-only collection
        stats = _SESSION_STATS
    if stats["runs"]:
        terminalreporter.write_line(
            "benchmark result cache: {runs} request(s), {memory_hits} session "
            "hit(s), {disk_hits} disk hit(s), {executed} executed".format(**stats)
        )


@pytest.fixture
def bench_settings() -> Dict[str, float]:
    """The knobs every benchmark uses, exposed for reporting."""
    return {
        "duration_ps": BENCH_DURATION_PS,
        "traffic_scale": BENCH_TRAFFIC_SCALE,
    }
