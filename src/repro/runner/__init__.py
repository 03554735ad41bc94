"""Sweep orchestration: parallel experiment execution with result caching.

Every figure and table of the paper's evaluation is a composition of
:func:`~repro.system.experiment.run_experiment` calls, and a full benchmark
sweep multiplies cases x policies x frequencies x durations.  This package
turns those compositions into declarative :class:`RunSpec` grids that

* fan out across worker processes (``--jobs``),
* skip any point whose result is already in the on-disk cache
  (``--cache-dir``), keyed by a stable hash of the fully resolved,
  serialized scenario, and
* import each spec's plugin modules inside every worker, so runtime
  registrations (policies, workloads, scenarios) reach every worker.

The sequential path stays byte-identical: a parallel sweep produces exactly
the same :class:`~repro.system.experiment.ExperimentResult` values as running
each spec in-process, because every run is seeded from its own
:class:`~repro.sim.config.SimulationConfig` and shares no state with its
siblings.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "cache": ("CACHE_SCHEMA_VERSION", "ResultCache", "cache_key"),
        "executor": (
            "RESILIENT_POLICY",
            "STRICT_POLICY",
            "ExecutionFault",
            "Executor",
            "FailurePolicy",
            "InProcessExecutor",
            "PayloadError",
            "PoolExecutor",
            "QuarantinedPoint",
            "SpecTimeoutError",
            "WorkerDiedError",
        ),
        "pool": ("TaskOutcome", "WorkerPool", "estimate_cost", "plan_batches"),
        "sweep": (
            "Observer",
            "RunSpec",
            "SweepStats",
            "compare_policies_specs",
            "frequency_sweep_specs",
            "run_sweep",
            "scenario_grid_specs",
        ),
    },
)
