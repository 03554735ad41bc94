"""The sweep orchestrator: declarative run grids, worker processes, caching.

A sweep is a list of :class:`RunSpec` points.  :func:`run_sweep` resolves
each point against the result cache, fans the remaining cold points out
across ``jobs`` worker processes (``spawn`` start method, so workers never
inherit mutable interpreter state and behave identically on every platform)
and returns results in spec order together with a :class:`SweepStats`
summary.

Every spec references a :class:`~repro.scenario.Scenario` — by catalog name,
file path or as an object — and its cache key is the SHA-256 of the fully
resolved, serialized scenario.  A grid over *platforms and workloads* (not
just numeric knobs) therefore flows through :func:`run_sweep` and its cache
unchanged: one spec per scenario file is all it takes.

Cold points execute behind the :class:`~repro.runner.executor.Executor`
interface: in-process for ``jobs=1``, otherwise batched dispatch on a
:class:`~repro.runner.pool.WorkerPool` (warm — started once, shared by many
sweeps — or ephemeral), or a caller-supplied executor.  Batches of roughly
equal estimated cost stream back in completion order, so cache writes and
progress reporting overlap the remaining execution; a
:class:`~repro.runner.executor.FailurePolicy` adds per-spec timeouts, retry
with deterministic backoff, and poison-point quarantine on top of either.
:class:`SweepStats` splits the sweep's wall time into measured phases
(resolve / build / simulate / serialize / pool start-up) so a regression is
attributable to the phase that caused it.

Custom policies, workloads and traffic models registered at runtime survive
parallel sweeps through the plugin hook: ``RunSpec.plugin_modules`` names the
modules whose import performs the registrations, and every spawn worker
imports them once, in its initializer.

Determinism: a run's randomness is derived entirely from its scenario's
seed, and each worker builds its simulation from scratch from the pickled
spec, so a parallel sweep — batched or not, warm pool or cold — is
bit-identical to running the same specs sequentially in one process
(``tests/test_runner_sweep.py`` asserts this).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.runner.cache import ResultCache, cache_key
from repro.runner.executor import (
    STRICT_POLICY,
    Executor,
    FailurePolicy,
    InProcessExecutor,
    Landed,
    PoolExecutor,
    QuarantinedPoint,
)
from repro.runner.pool import WorkerPool
from repro.scenario import (
    Scenario,
    get_scenario,
    load_plugins,
    resolve_scenario,
    settings_label,
)
from repro.sim.config import SimulationConfig
from repro.system.experiment import (
    ExperimentResult,
    RunTimings,
    run_experiment_timed,
)


@dataclass(frozen=True)
class RunSpec:
    """One point of a sweep: everything :func:`run_experiment` needs.

    ``scenario`` names the baseline; every other field is an override baked
    into the resolved scenario before execution (``settings`` applies
    dotted-path overrides exactly like the CLI's ``--set``).  ``label`` names
    the point in mapping-shaped sweep results; ``seed`` optionally overrides
    the configuration seed, for replication grids that vary nothing else.
    ``plugin_modules`` are imported in every worker process before the run,
    so runtime-registered policies and workloads work under ``--jobs N``.
    """

    scenario: Union[str, Scenario] = "case_a"
    policy: Optional[str] = None
    duration_ps: Optional[int] = None
    traffic_scale: Optional[float] = None
    config: Optional[SimulationConfig] = None
    adaptation_enabled: Optional[bool] = None
    dram_freq_mhz: Optional[float] = None
    dram_model: Optional[str] = None
    keep_trace: bool = True
    seed: Optional[int] = None
    label: Optional[str] = None
    settings: Tuple[Tuple[str, Any], ...] = ()
    plugin_modules: Tuple[str, ...] = ()

    def resolved_scenario(self) -> Scenario:
        """The fully resolved scenario this spec will simulate (memoized).

        Resolution is pure — a deterministic function of the spec's frozen
        fields — and every consumer (``key()``, ``display_label()``, the
        execution itself) needs the same answer, so the first call caches the
        result on the instance (``object.__setattr__``: the dataclass is
        frozen, but the cache is not a field and never participates in
        equality or hashing).  The cache rides along in the pickle, so a
        worker process inherits the parent's resolution instead of redoing
        it.
        """
        cached = self.__dict__.get("_resolved")
        if cached is None:
            cached = resolve_scenario(
                self.scenario,
                policy=self.policy,
                config=self.config,
                duration_ps=self.duration_ps,
                seed=self.seed,
                traffic_scale=self.traffic_scale,
                adaptation_enabled=self.adaptation_enabled,
                dram_freq_mhz=self.dram_freq_mhz,
                dram_model=self.dram_model,
                settings=self.settings,
            )
            object.__setattr__(self, "_resolved", cached)
        return cached

    def fingerprint(self) -> Dict[str, object]:
        """Everything that can influence this spec's result, as plain JSON.

        The serialized scenario carries the platform, workload, policy and
        every override, so the cache key is exactly "the scenario that ran".
        """
        return {
            "scenario": self.resolved_scenario().to_dict(),
            "keep_trace": self.keep_trace,
            "plugin_modules": list(self.plugin_modules),
        }

    def key(self) -> str:
        """Stable cache key for this spec (memoized like the resolution:
        the sweep computes it for dedup and the campaign scheduler reads it
        again to record the manifest — same spec, same key, hash once)."""
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = cache_key(self.fingerprint())
            object.__setattr__(self, "_key", cached)
        return cached

    def memo_fingerprint(self) -> Dict[str, object]:
        """The spec's identity as plain JSON, *without* resolving anything.

        Resolution is a pure function of these fields, so two specs with
        equal memo fingerprints resolve identically and share a cache key.
        The store's point index exploits exactly that: it remembers
        ``memo_key() -> cache key`` at record time, which lets a later
        campaign intersect its whole plan against recorded results without
        a single scenario resolution.  ``label`` is deliberately excluded —
        it names the point but cannot influence the measurement.
        """
        scenario = (
            self.scenario
            if isinstance(self.scenario, Scenario)
            else get_scenario(self.scenario)
        )
        return {
            "scenario": scenario.to_dict(),
            "policy": self.policy,
            "duration_ps": self.duration_ps,
            "traffic_scale": self.traffic_scale,
            "config": self.config.to_dict() if self.config is not None else None,
            "adaptation_enabled": self.adaptation_enabled,
            "dram_freq_mhz": self.dram_freq_mhz,
            "dram_model": self.dram_model,
            "keep_trace": self.keep_trace,
            "seed": self.seed,
            "settings": [[path, value] for path, value in self.settings],
            "plugin_modules": list(self.plugin_modules),
        }

    def memo_key(self) -> str:
        """Stable resolution-free key for this spec (memoized like ``key()``).

        Hashed through the same :func:`~repro.runner.cache.cache_key` mixer,
        so the cache schema version guards recorded memo mappings the same
        way it guards cached results.
        """
        cached = self.__dict__.get("_memo_key")
        if cached is None:
            cached = cache_key(self.memo_fingerprint())
            object.__setattr__(self, "_memo_key", cached)
        return cached

    def display_label(self) -> str:
        if self.label is not None:
            return self.label
        resolved = self.resolved_scenario()
        return f"{resolved.name}/{resolved.policy}"


#: The disjoint wall-time attributions ``phases()`` reports, in display
#: order.  ``elapsed_s`` (the whole sweep) and ``sim_wall_s`` (a derived
#: critical-path estimate overlapping ``sim_cpu_s``) are deliberately not
#: phases.
_PHASE_FIELDS = (
    "resolve_s",
    "build_s",
    "sim_cpu_s",
    "serialize_s",
    "index_lookup_s",
    "pool_startup_s",
)


@dataclass
class SweepStats:
    """What a sweep did, and where its time went.

    Counters (``total`` / ``cache_hits`` / ``executed`` / ``batches``) say
    how much work ran; the ``*_s`` phase fields say where the wall clock
    went, so a perf regression is attributable to one phase:

    * ``resolve_s`` — scenario resolution and cache-key hashing (parent
      process, plus any residual resolution inside workers).
    * ``build_s`` / ``sim_cpu_s`` — system construction and the simulation
      runs themselves.  Summed *across* workers, so with ``jobs > 1`` these
      can legitimately exceed ``elapsed_s`` — they are CPU time spent, not
      wall clock.
    * ``serialize_s`` — result-cache reads and writes in the parent.
    * ``index_lookup_s`` — store point-index probes (memo-key hashing,
      shard reads, recorded-result decoding) when a store memo was handed
      in; ``reused_points`` counts the specs those probes satisfied.
    * ``pool_startup_s`` — spawn cost paid by *this* sweep.  Zero when a
      warm :class:`~repro.runner.pool.WorkerPool` was handed in, which is
      the whole point of keeping one.

    ``sim_wall_s`` is *not* a phase: it estimates the simulation's wall-clock
    critical path — the largest per-worker chain of batch simulation times
    (for ``jobs=1`` simply the total) — and is never larger than
    ``sim_cpu_s``.  It answers "how long did simulating actually gate the
    sweep", where ``sim_cpu_s`` answers "how much simulating was done";
    earlier versions reported only the sum under the name ``sim_s``, which
    read like (and was routinely mistaken for) a wall-clock figure.
    """

    total: int = 0
    cache_hits: int = 0
    reused_points: int = 0
    executed: int = 0
    jobs: int = 1
    batches: int = 0
    retries: int = 0
    quarantined: List[QuarantinedPoint] = field(default_factory=list)
    elapsed_s: float = 0.0
    resolve_s: float = 0.0
    build_s: float = 0.0
    sim_cpu_s: float = 0.0
    sim_wall_s: float = 0.0
    serialize_s: float = 0.0
    index_lookup_s: float = 0.0
    pool_startup_s: float = 0.0
    cache_dir: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepStats({self.summary()})"

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def add_timings(self, timings: RunTimings) -> None:
        """Fold one run's phase breakdown into the sweep totals."""
        self.resolve_s += timings.resolve_s
        self.build_s += timings.build_s
        self.sim_cpu_s += timings.sim_s

    def phases(self) -> Dict[str, float]:
        """The measured phases as a name -> seconds mapping (for reports).

        Phases are disjoint attributions of work time, safe to add up;
        ``sim_wall_s`` (a derived critical-path estimate that overlaps
        ``sim_cpu_s``) and ``elapsed_s`` are deliberately excluded.
        """
        return {name[: -len("_s")]: getattr(self, name) for name in _PHASE_FIELDS}

    def summary(self) -> str:
        """One-line human-readable summary for CLI / script output.

        Phase times are CPU-time attributions (summed across workers) and
        say so explicitly; the simulation's wall-clock critical path prints
        separately as ``sim_wall ... (wall)`` — earlier versions printed it
        unlabelled next to the summed phases, where it read as just another
        addend.
        """
        parts = [
            f"{self.total} run(s)",
            f"{self.cache_hits} cache hit(s)",
            f"{self.executed} executed",
            f"jobs={self.jobs}",
            f"{self.elapsed_s:.2f}s",
        ]
        if self.reused_points:
            parts.insert(2, f"{self.reused_points} reused")
        if self.retries:
            parts.insert(3, f"{self.retries} retried")
        if self.quarantined:
            parts.insert(3, f"{len(self.quarantined)} quarantined")
        phase_parts = [
            f"{name} {seconds:.2f}s"
            for name, seconds in self.phases().items()
            if seconds >= 0.005
        ]
        if phase_parts:
            parts.append("[cpu: " + ", ".join(phase_parts) + "]")
        if self.sim_wall_s >= 0.005 and self.sim_wall_s != self.sim_cpu_s:
            parts.append(f"sim_wall {self.sim_wall_s:.2f}s (wall)")
        if self.cache_dir:
            parts.append(f"cache={self.cache_dir}")
        return "sweep: " + ", ".join(parts)


def _execute_spec(spec: RunSpec) -> ExperimentResult:
    """Run one spec in the current process (timings discarded).

    Plugin modules are loaded first so that registrations (policies,
    workloads, traffic models, scenarios) exist in this process; the call is
    a few dictionary lookups when the modules are already imported.
    Execution goes through :func:`run_experiment_timed` — the same path the
    sweep's sequential and batched modes use — so this convenience wrapper
    cannot drift from what sweeps actually run.
    """
    load_plugins(spec.plugin_modules)
    result, _ = run_experiment_timed(
        spec.resolved_scenario(), keep_trace=spec.keep_trace
    )
    return result


#: Per-spec landing callback:
#: ``observer(index, result, timings, from_cache, source)``.
#: ``timings`` is the run's phase breakdown for the spec that actually
#: executed and ``None`` otherwise (``from_cache=True``).  ``source`` names
#: where the result came from: ``"executed"`` (simulated live), ``"dedup"``
#: (duplicate of an executed spec in the same sweep), ``"cache"`` (result
#: cache) or ``"reused"`` (recorded point served by the store's point
#: index).  Invoked exactly once per spec index, in landing order.  This is
#: how campaign-level callers attribute one flattened sweep's work back to
#: the sub-grids it came from.
Observer = Callable[[int, ExperimentResult, Optional[RunTimings], bool, str], None]


def run_sweep(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
    batching: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
    observer: Optional[Observer] = None,
    executor: Optional[Executor] = None,
    failure_policy: Optional[FailurePolicy] = None,
    memo: Optional[Any] = None,
) -> Tuple[List[ExperimentResult], SweepStats]:
    """Execute a sweep, reusing cached points and parallelising the rest.

    Parameters
    ----------
    specs:
        The grid points, in the order results should be returned.
    jobs:
        Worker processes for the cold points.  ``1`` (the default) runs
        everything in-process; higher values spawn an ephemeral
        :class:`WorkerPool` for this call.  Ignored when ``pool`` is given.
    cache / cache_dir:
        An existing :class:`ResultCache`, or a directory path to open one in.
        ``None`` disables caching.
    pool:
        A caller-owned :class:`WorkerPool` to execute on.  The pool is
        started if needed (only that start-up lands in ``pool_startup_s``)
        and is *not* closed afterwards — that is what lets one warm pool
        serve a whole campaign of sweeps for a single spawn cost.
    batching:
        Group cold specs into cost-balanced batches (one IPC round trip per
        batch) instead of dispatching one spec per message.  Results are
        bit-identical either way; ``False`` exists for measurement and as an
        escape hatch.
    progress:
        Optional ``callback(done, cold_total)`` invoked in the parent as
        executed specs stream back, interleaved with execution.
    observer:
        Optional per-spec landing callback (see :data:`Observer`), called
        once per spec index with its result, its phase timings (``None`` for
        cached/deduplicated points) and whether it came from the cache.
    executor:
        An explicit :class:`~repro.runner.executor.Executor` to run the cold
        points on; ``stats.jobs`` reports its worker count.  By default the
        historical selection applies: in-process for ``jobs=1`` (or a single
        cold point), otherwise batched dispatch on the (warm or ephemeral)
        pool.
    failure_policy:
        The :class:`~repro.runner.executor.FailurePolicy` shared by every
        executor: per-spec timeouts, retry with deterministic backoff, and
        poison-point quarantine.  The default is the historical strict
        contract — one attempt, any failure raises.  With a quarantining
        policy the returned list holds ``None`` at quarantined positions
        and ``stats.quarantined`` names them.
    memo:
        A :class:`~repro.store.StoreMemo` (or anything with its
        ``get(spec) -> Optional[(result, cache_key)]`` shape).  Each spec is
        looked up *before* its cache key is computed; a hit splices the
        recorded result in with zero scenario resolutions and zero
        simulator work, counts into ``stats.reused_points`` and back-fills
        the result cache so a later ``--resume`` sees it.  Probe time lands
        in ``stats.index_lookup_s``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)

    started = time.perf_counter()
    specs = list(specs)
    # Load every spec's plugin modules here in the parent too: computing a
    # spec's cache key resolves its scenario, which may itself be a plugin
    # registration (workers repeat the import for their own process).
    seen_plugins = set()
    for spec in specs:
        fresh = [m for m in spec.plugin_modules if m not in seen_plugins]
        if fresh:
            load_plugins(fresh)
            seen_plugins.update(fresh)
    results: List[Optional[ExperimentResult]] = [None] * len(specs)
    stats = SweepStats(
        total=len(specs),
        cache_dir=str(cache.directory) if cache is not None else None,
    )
    cache_io_before = cache.io_s if cache is not None else 0.0

    # Identical grid points (same cache key) execute once and share the
    # result, whether or not an on-disk cache is attached.  Key computation
    # resolves each distinct scenario once (memoized on the spec), which is
    # the parent's share of the resolve phase.
    resolve_started = time.perf_counter()
    cold: List[Tuple[List[int], RunSpec, str]] = []
    cold_by_key: Dict[str, Tuple[List[int], RunSpec, str]] = {}
    for index, spec in enumerate(specs):
        if memo is not None:
            # The store lookup comes first because it is the only probe that
            # needs no scenario resolution: it goes through the spec's memo
            # key, and a hit carries the recorded cache key with it.
            lookup_started = time.perf_counter()
            hit = memo.get(spec)
            stats.index_lookup_s += time.perf_counter() - lookup_started
            if hit is not None:
                result, key = hit
                # Seed the spec's memoized cache key so later readers (the
                # campaign scheduler records it in the manifest) get the
                # recorded key without resolving the scenario either.
                object.__setattr__(spec, "_key", key)
                results[index] = result
                stats.reused_points += 1
                if cache is not None and key not in cache:
                    cache.put(key, result, include_trace=spec.keep_trace)
                if observer is not None:
                    observer(index, result, None, True, "reused")
                continue
        key = spec.key()
        duplicate = cold_by_key.get(key)
        if duplicate is not None:
            duplicate[0].append(index)
            stats.cache_hits += 1
            continue
        if cache is not None:
            cached = cache.get(key)
            if cached is not None:
                results[index] = cached
                stats.cache_hits += 1
                if observer is not None:
                    observer(index, cached, None, True, "cache")
                continue
        entry = ([index], spec, key)
        cold.append(entry)
        cold_by_key[key] = entry
    stats.resolve_s += (
        time.perf_counter()
        - resolve_started
        - stats.index_lookup_s
        - ((cache.io_s - cache_io_before) if cache is not None else 0.0)
    )

    if executor is None:
        use_pool = pool is not None or (jobs > 1 and len(cold) > 1)
        executor = (
            PoolExecutor(pool=pool, jobs=jobs, batching=batching)
            if use_pool
            else InProcessExecutor()
        )
    stats.jobs = executor.jobs
    if cold:
        policy = failure_policy if failure_policy is not None else STRICT_POLICY
        done = 0
        for event in executor.execute(
            cold,
            stats,
            policy,
            cache_dir=str(cache.directory) if cache is not None else None,
        ):
            done += 1
            if isinstance(event, Landed):
                _land_result(
                    event.entry, event.result, event.timings, results, stats,
                    cache, progress, observer, done, len(cold),
                )
            else:
                # Quarantined: the position stays None in the results and the
                # point is recorded on the stats for callers to account.
                stats.quarantined.append(event)
                if progress is not None:
                    progress(done, len(cold))

    if cache is not None:
        stats.serialize_s += cache.io_s - cache_io_before
    stats.elapsed_s = time.perf_counter() - started
    return list(results), stats  # type: ignore[arg-type]


def _land_result(
    entry: Tuple[List[int], RunSpec, str],
    result: ExperimentResult,
    timings: RunTimings,
    results: List[Optional[ExperimentResult]],
    stats: SweepStats,
    cache: Optional[ResultCache],
    progress: Optional[Callable[[int, int], None]],
    observer: Optional[Observer],
    done: int,
    cold_total: int,
) -> None:
    """Account one executed cold point: stats, placement, cache, progress.

    The single landing path shared by the sequential and pooled modes, so
    their bookkeeping (phase totals, duplicate placement, cache writes,
    progress reporting) cannot drift apart.
    """
    indices, spec, key = entry
    # Driver-side attribution span: carries the point indices (the join key
    # for per-sub-grid aggregation in `repro trace`) with the worker-measured
    # execution time, since the worker itself does not know sweep indices.
    obs.complete(
        "executor.landed",
        timings.resolve_s + timings.build_s + timings.sim_s,
        label=spec.display_label(),
        indices=list(indices),
    )
    stats.add_timings(timings)
    for index in indices:
        results[index] = result
    if observer is not None:
        # The first index is the spec that executed; the rest were
        # deduplicated against it during key resolution.
        for position, index in enumerate(indices):
            observer(
                index,
                result,
                timings if position == 0 else None,
                position > 0,
                "dedup" if position else "executed",
            )
    stats.executed += 1
    if cache is not None:
        cache.put(key, result, include_trace=spec.keep_trace)
    if progress is not None:
        progress(done, cold_total)


# --------------------------------------------------------------------------- #
# Grid builders mirroring repro.system.experiment's sequential helpers
# --------------------------------------------------------------------------- #
def compare_policies_specs(
    policies: Sequence[str],
    scenario: Union[str, Scenario] = "case_a",
    duration_ps: Optional[int] = None,
    traffic_scale: Optional[float] = None,
    config: Optional[SimulationConfig] = None,
    keep_trace: bool = True,
    plugin_modules: Sequence[str] = (),
) -> List[RunSpec]:
    """One spec per policy on the same scenario (Figs. 5, 6, 8, 9)."""
    base = RunSpec(
        scenario=scenario,
        duration_ps=duration_ps,
        traffic_scale=traffic_scale,
        config=config,
        keep_trace=keep_trace,
        plugin_modules=tuple(plugin_modules),
    )
    return [replace(base, policy=policy, label=policy) for policy in policies]


def frequency_sweep_specs(
    frequencies_mhz: Iterable[float],
    scenario: Union[str, Scenario] = "case_a",
    policy: Optional[str] = None,
    duration_ps: Optional[int] = None,
    traffic_scale: Optional[float] = None,
    config: Optional[SimulationConfig] = None,
    plugin_modules: Sequence[str] = (),
) -> List[RunSpec]:
    """One spec per DRAM frequency for one policy (Fig. 7)."""
    base = RunSpec(
        scenario=scenario,
        policy=policy,
        duration_ps=duration_ps,
        traffic_scale=traffic_scale,
        config=config,
        keep_trace=False,
        plugin_modules=tuple(plugin_modules),
    )
    return [
        replace(base, dram_freq_mhz=freq, label=f"{freq:g}")
        for freq in frequencies_mhz
    ]


def scenario_grid_specs(
    scenario: Union[str, Scenario],
    duration_ps: Optional[int] = None,
    traffic_scale: Optional[float] = None,
    keep_trace: bool = False,
    plugin_modules: Sequence[str] = (),
    axis_set: Optional[str] = None,
) -> List[RunSpec]:
    """Expand a scenario's declared sweep axes into one spec per grid point.

    The axes live in the scenario file (``sweep: {"policy": [...], ...}``),
    so a whole experiment grid — over policies, frequencies, workload
    parameters, anything addressable by dotted path — ships as data.  For a
    scenario whose sweep declares *named* axis sets, ``axis_set`` picks the
    sub-grid to expand.
    """
    spec = get_scenario(scenario)
    grid: List[RunSpec] = []
    for point in spec.sweep_points(axis_set):
        label = settings_label(point)
        grid.append(
            RunSpec(
                scenario=spec,
                duration_ps=duration_ps,
                traffic_scale=traffic_scale,
                keep_trace=keep_trace,
                settings=tuple(sorted(point.items())),
                label=label or spec.name,
                plugin_modules=tuple(plugin_modules),
            )
        )
    return grid


def sweep_compare_policies(
    policies: Sequence[str],
    scenario: Union[str, Scenario] = "case_a",
    duration_ps: Optional[int] = None,
    traffic_scale: Optional[float] = None,
    config: Optional[SimulationConfig] = None,
    keep_trace: bool = True,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
    plugin_modules: Sequence[str] = (),
) -> Tuple[Dict[str, ExperimentResult], SweepStats]:
    """Parallel, cached drop-in for :func:`repro.system.experiment.compare_policies`."""
    specs = compare_policies_specs(
        policies,
        scenario=scenario,
        duration_ps=duration_ps,
        traffic_scale=traffic_scale,
        config=config,
        keep_trace=keep_trace,
        plugin_modules=plugin_modules,
    )
    results, stats = run_sweep(
        specs, jobs=jobs, cache=cache, cache_dir=cache_dir, pool=pool
    )
    return dict(zip(policies, results)), stats


def sweep_frequencies(
    frequencies_mhz: Iterable[float],
    scenario: Union[str, Scenario] = "case_a",
    policy: Optional[str] = None,
    duration_ps: Optional[int] = None,
    traffic_scale: Optional[float] = None,
    config: Optional[SimulationConfig] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
    plugin_modules: Sequence[str] = (),
) -> Tuple[Dict[float, ExperimentResult], SweepStats]:
    """Parallel, cached drop-in for :func:`repro.system.experiment.frequency_sweep`."""
    frequencies = list(frequencies_mhz)
    specs = frequency_sweep_specs(
        frequencies,
        scenario=scenario,
        policy=policy,
        duration_ps=duration_ps,
        traffic_scale=traffic_scale,
        config=config,
        plugin_modules=plugin_modules,
    )
    results, stats = run_sweep(
        specs, jobs=jobs, cache=cache, cache_dir=cache_dir, pool=pool
    )
    return dict(zip(frequencies, results)), stats


def sweep_scenario(
    scenario: Union[str, Scenario],
    duration_ps: Optional[int] = None,
    traffic_scale: Optional[float] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
    plugin_modules: Sequence[str] = (),
    axis_set: Optional[str] = None,
) -> Tuple[Dict[str, ExperimentResult], SweepStats]:
    """Run a scenario's declared sweep grid; results keyed by point label."""
    specs = scenario_grid_specs(
        scenario,
        duration_ps=duration_ps,
        traffic_scale=traffic_scale,
        plugin_modules=plugin_modules,
        axis_set=axis_set,
    )
    results, stats = run_sweep(
        specs, jobs=jobs, cache=cache, cache_dir=cache_dir, pool=pool
    )
    return dict(zip((spec.label or "" for spec in specs), results)), stats


@dataclass
class AblationGrid:
    """A labelled grid of config variations for ablation sweeps.

    Built by the ablation benchmarks: one base spec plus a mapping from label
    to the :class:`SimulationConfig` to substitute.  ``specs()`` yields them
    in insertion order so results line up with the labels.
    """

    base: RunSpec
    variants: Dict[str, SimulationConfig] = field(default_factory=dict)

    def add(self, label: str, config: SimulationConfig) -> None:
        self.variants[label] = config

    def specs(self) -> List[RunSpec]:
        return [
            replace(self.base, config=config, label=label)
            for label, config in self.variants.items()
        ]

    def run(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[str] = None,
        pool: Optional[WorkerPool] = None,
    ) -> Tuple[Dict[str, ExperimentResult], SweepStats]:
        results, stats = run_sweep(
            self.specs(), jobs=jobs, cache=cache, cache_dir=cache_dir, pool=pool
        )
        return dict(zip(self.variants, results)), stats
