"""Experiment runner: one simulation run of one scenario point.

:func:`run_experiment` runs one point and returns NPI traces, bandwidth and
priority distributions; :func:`run_experiment_timed` is the same run with
per-phase timings, the entry point the sweep orchestrator executes.  Every
figure and table of the paper's evaluation is a grid of such points (several
policies on one scenario for Figs. 5, 6, 8 and 9, one policy across DRAM
frequencies for Fig. 7), built as a :class:`~repro.runner.RunSpec` list and
run with :func:`~repro.runner.run_sweep`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.scenario import Scenario, critical_cores_for, resolve_scenario
from repro.sim.config import SimulationConfig
from repro.sim.trace import TimeSeries, TraceRecorder
from repro.system.builder import System, build_system


@dataclass
class ExperimentResult:
    """Everything measured during one simulation run."""

    scenario: str
    policy: str
    adaptation_enabled: bool
    duration_ps: int
    dram_freq_mhz: float
    min_core_npi: Dict[str, float]
    mean_core_npi: Dict[str, float]
    dram_bandwidth_bytes_per_s: float
    dram_row_hit_rate: float
    served_transactions: int
    average_latency_ps: float
    priority_distributions: Dict[str, Dict[int, float]] = field(default_factory=dict)
    trace: Optional[TraceRecorder] = None

    def failing_cores(self, threshold: float = 1.0) -> List[str]:
        """Cores whose minimum NPI dropped below the target threshold."""
        return sorted(
            core for core, npi in self.min_core_npi.items() if npi < threshold
        )

    def npi_series(self, core: str) -> TimeSeries:
        """The recorded NPI time series of a core."""
        if self.trace is None:
            raise RuntimeError("this result was produced without trace recording")
        series = self.trace.get(f"npi.core.{core}")
        if series is None:
            raise KeyError(f"no NPI trace recorded for core '{core}'")
        return series

    def dram_bandwidth_gb_per_s(self) -> float:
        return self.dram_bandwidth_bytes_per_s / 1e9


def run_experiment(
    scenario: Union[str, Scenario] = "case_a",
    policy: Optional[str] = None,
    duration_ps: Optional[int] = None,
    traffic_scale: Optional[float] = None,
    config: Optional[SimulationConfig] = None,
    adaptation_enabled: Optional[bool] = None,
    dram_freq_mhz: Optional[float] = None,
    keep_trace: bool = True,
    system: Optional[System] = None,
    dram_model: Optional[str] = None,
) -> ExperimentResult:
    """Run one simulation and collect the paper's metrics.

    A pre-built ``system`` may be supplied (:func:`run_experiment_timed` does
    this to time the build on its own); otherwise one is built from the
    scenario plus the keyword overrides.
    """
    if system is None:
        resolved = resolve_scenario(
            scenario,
            policy=policy,
            config=config,
            duration_ps=duration_ps,
            traffic_scale=traffic_scale,
            adaptation_enabled=adaptation_enabled,
            dram_freq_mhz=dram_freq_mhz,
            dram_model=dram_model,
        )
        system = build_system(resolved)
    horizon = duration_ps or system.config.duration_ps
    system.run(duration_ps=horizon)

    framework = system.framework
    # Exclude the cold-start transient (empty queues, priorities still at 0)
    # from the pass/fail metrics; the full trace is kept for plotting.
    warmup = min(system.config.warmup_ps, horizon // 4)
    min_npi: Dict[str, float] = {}
    mean_npi: Dict[str, float] = {}
    for core in system.cores:
        series = framework.trace.get(f"npi.core.{core}")
        if series is None or not len(series):
            min_npi[core] = 0.0
            mean_npi[core] = 0.0
            continue
        steady = series.after(warmup)
        if not len(steady):
            steady = series
        min_npi[core] = steady.minimum()
        mean_npi[core] = steady.mean()

    priority_distributions = {
        dma_name: adapter.priority_time_fractions()
        for dma_name, adapter in framework.adapters.items()
    }

    scenario_name = (
        system.scenario.name if system.scenario is not None else system.workload.case
    )
    elapsed = max(1, system.engine.now_ps)
    return ExperimentResult(
        scenario=scenario_name,
        policy=system.policy_name,
        adaptation_enabled=system.adaptation_enabled,
        duration_ps=elapsed,
        dram_freq_mhz=system.dram.config.io_freq_mhz,
        min_core_npi=min_npi,
        mean_core_npi=mean_npi,
        dram_bandwidth_bytes_per_s=system.dram.average_bandwidth_bytes_per_s(elapsed),
        dram_row_hit_rate=system.dram.row_hit_rate,
        served_transactions=system.controller.served_transactions,
        average_latency_ps=system.controller.average_latency_ps(),
        priority_distributions=priority_distributions,
        trace=framework.trace if keep_trace else None,
    )


@dataclass
class RunTimings:
    """Wall-clock phase breakdown of one experiment execution.

    ``resolve_s`` covers scenario resolution (zero when the caller hands over
    an already-resolved :class:`Scenario`, e.g. a memoized
    :meth:`repro.runner.RunSpec.resolved_scenario`), ``build_s`` the system
    construction, and ``sim_s`` the event-driven run plus metric collection.
    The sweep orchestrator sums these per-run timings into its
    :class:`~repro.runner.SweepStats` phase fields so a slow sweep can be
    attributed to the phase that actually regressed.
    """

    resolve_s: float = 0.0
    build_s: float = 0.0
    sim_s: float = 0.0


def run_experiment_timed(
    scenario: Union[str, Scenario],
    keep_trace: bool = True,
) -> Tuple[ExperimentResult, RunTimings]:
    """Run one scenario-described experiment, reporting per-phase timings.

    Semantically identical to ``run_experiment(scenario=..., keep_trace=...)``
    — resolution with no overrides is a no-op and pre-building the system is
    exactly what :func:`run_experiment` does internally — but the three phases
    are timed separately.  This is the worker entry point of the sweep
    orchestrator's batched dispatch.  Each phase is read once: the same
    reading fills :class:`RunTimings` and, when tracing is on, the phase's
    ``experiment.*`` span.
    """
    timings = RunTimings()
    started = time.perf_counter()
    resolved = resolve_scenario(scenario)
    built = time.perf_counter()
    timings.resolve_s = built - started
    obs.complete("experiment.resolve", timings.resolve_s)
    system = build_system(resolved)
    ran = time.perf_counter()
    timings.build_s = ran - built
    obs.complete("experiment.build", timings.build_s, scenario=resolved.name)
    result = run_experiment(scenario=resolved, keep_trace=keep_trace, system=system)
    timings.sim_s = time.perf_counter() - ran
    obs.complete(
        "experiment.sim",
        timings.sim_s,
        scenario=resolved.name,
        policy=system.policy_name,
        fired_events=system.engine.fired_events,
        now_ps=system.engine.now_ps,
    )
    return result, timings


def critical_core_minimums(
    result: ExperimentResult, scenario: Union[str, Scenario, None] = None
) -> Dict[str, float]:
    """Minimum NPI restricted to the scenario's critical-core list.

    By default the scenario is resolved from the result's recorded name,
    which works for catalog (bundled or runtime-registered) scenarios; for a
    result produced from a scenario *file*, pass the :class:`Scenario`
    object (or its path) explicitly — the name alone no longer identifies it
    once only the result is held.
    """
    cores = critical_cores_for(scenario if scenario is not None else result.scenario)
    return {core: result.min_core_npi.get(core, 0.0) for core in cores if core in result.min_core_npi}
