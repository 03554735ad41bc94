"""Declarative scenarios: serializable platform/workload specs and registries.

A :class:`Scenario` bundles everything one experiment needs — platform
(simulation config + interconnect link widths), workload (resolved by name
through :data:`WORKLOADS`), default policy, critical cores and sweep axes —
as plain, versioned, JSON/TOML-serializable data.  The bundled catalog
(``repro scenarios list``) carries the paper's two camcorder cases plus new
workload families; :func:`register_scenario` and the plugin hook
(:func:`load_plugins`, ``--plugin-module``) extend every registry at runtime,
including inside sweep workers.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "builders": ("CONSTANT_RATE_PREFETCH",),
        "catalog": (
            "BUILTIN_SCENARIO_DIR",
            "available_scenarios",
            "builtin_scenario_paths",
            "critical_cores_for",
            "describe_scenario",
            "get_scenario",
            "is_path_ref",
            "register_scenario",
            "scenario_config",
            "unregister_scenario",
        ),
        "errors": ("RegistryError", "ScenarioError"),
        "plugins": ("load_plugins",),
        "registry": ("ADDRESS_STREAMS", "TRAFFIC_MODELS", "WORKLOADS", "Registry"),
        "spec": (
            "DEFAULT_AXIS_SET",
            "SCENARIO_SCHEMA_VERSION",
            "PlatformSpec",
            "Scenario",
            "WorkloadSpec",
            "expand_axis_points",
            "resolve_scenario",
            "scenario_from_file",
            "settings_label",
        ),
        "workloads": ("build_workload", "dma_spec_from_dict", "dma_spec_to_dict", "place_regions"),
    },
)
