"""Post-processing of experiment results.

* :mod:`repro.analysis.metrics` — QoS pass/fail, bandwidth orderings and
  priority distributions derived from results.
* :mod:`repro.analysis.serialize` — JSON round-tripping of configurations and
  results.
* :mod:`repro.analysis.ascii_plot` — a dependency-free terminal bar chart.

Tables and the paper's shape checks live in :mod:`repro.campaign.report`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ascii_plot": ("ascii_bar_chart",),
        "metrics": (
            "bandwidth_gain",
            "bandwidth_ordering",
            "fraction_of_time_failing",
            "mean_priority",
            "priority_distribution_table",
            "qos_satisfied",
        ),
        "serialize": (
            "experiment_result_from_dict",
            "experiment_result_to_dict",
            "load_config",
            "load_result",
            "save_config",
            "save_result",
            "simulation_config_from_dict",
            "simulation_config_to_dict",
        ),
    },
)
