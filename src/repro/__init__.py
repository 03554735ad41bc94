"""SARA: Self-Aware Resource Allocation for heterogeneous MPSoCs — reproduction.

This package reproduces the DAC 2018 paper by Song, Alavoine and Lin.  The
public API is intentionally small:

* :class:`repro.Scenario` / :func:`repro.get_scenario` — declarative,
  serializable experiment setups: platform + workload + policy + sweep axes
  as plain data, with a bundled catalog and open registries for workloads,
  traffic models, address streams and policies (see docs/scenarios.md).
* :func:`repro.build_system` / :class:`repro.System` — assemble a simulated
  heterogeneous MPSoC (cores, NoC, memory controller, LPDDR4 DRAM) from a
  scenario, under a chosen scheduling policy.
* :func:`repro.run_experiment` — one simulation run of one scenario point.
* :class:`repro.RunSpec`, :func:`repro.run_sweep`,
  :class:`repro.WorkerPool` — the sweep orchestrator, the one way to run
  more than one point (every table and figure of the paper's evaluation is
  a list of specs): cost-balanced batches across a persistent warm worker
  pool, with an on-disk result cache and per-phase timing
  (see docs/running_experiments.md).
* :class:`repro.Campaign` / :func:`repro.get_campaign` /
  :class:`repro.CampaignScheduler` — declarative experiment campaigns:
  named sub-grids (``fig5`` … ``fig9``) scheduled through one shared pool
  and reported per figure (see docs/campaigns.md).
* :mod:`repro.core` — the SARA contribution itself: NPI performance meters,
  the NPI-to-priority look-up table and the adaptation framework.

Every name above resolves on first use (PEP 562, :mod:`repro._lazy`), as do
the names ``repro.analysis``, ``repro.campaign``, ``repro.dvfs``,
``repro.runner``, ``repro.scenario`` and ``repro.sim`` re-export: ``import
repro`` imports no subpackage, and ``from repro import run_sweep`` imports the
runner and the simulator it drives only then.  So the results store,
``repro serve`` and the report renderers run without the simulator and
without numpy.

See docs/running_experiments.md for a quickstart and EXPERIMENTS.md for the
paper-versus-measured comparison.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "campaign": (
            "Campaign",
            "CampaignError",
            "CampaignScheduler",
            "SubGrid",
            "available_campaigns",
            "campaign_from_file",
            "campaign_report_md",
            "get_campaign",
        ),
        "core": (
            "BandwidthMeter",
            "BufferOccupancyMeter",
            "FrameProgressMeter",
            "LatencyMeter",
            "PerformanceMeter",
            "PriorityAdapter",
            "PriorityLookupTable",
            "ProcessingTimeMeter",
            "SaraFramework",
        ),
        "sim.config": (
            "DramConfig",
            "DramTimingConfig",
            "MemoryControllerConfig",
            "NocConfig",
            "SimulationConfig",
        ),
        "runner": ("ResultCache", "RunSpec", "SweepStats", "WorkerPool", "run_sweep"),
        "scenario": (
            "Scenario",
            "ScenarioError",
            "available_scenarios",
            "critical_cores_for",
            "get_scenario",
            "load_plugins",
            "register_scenario",
            "resolve_scenario",
            "scenario_config",
            "scenario_from_file",
        ),
        "system": (
            "ExperimentResult",
            "System",
            "build_system",
            "run_experiment",
            "table1_settings",
            "table2_core_types",
        ),
        "traffic.camcorder": ("CamcorderWorkload", "DmaSpec", "camcorder_workload"),
        "version": ("__version__",),
    },
)
