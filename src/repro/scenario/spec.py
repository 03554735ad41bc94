"""The declarative, versioned scenario specification.

A :class:`Scenario` is the unit of experimentation: one platform (the frozen
simulation config plus interconnect link widths), one workload (resolved by
name through the workload registry), a default scheduling policy, the list of
critical cores the corresponding figures plot, and optional sweep axes.

Scenarios are plain data: ``from_dict(to_dict(s)) == s`` holds exactly, the
dictionary form is JSON- and TOML-compatible, and the sweep orchestrator's
cache key is the SHA-256 of the serialized scenario — so two runs described
by the same scenario file always share one cache entry, whichever process,
machine or CI job produced it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.scenario.errors import (
    RegistryError,
    ScenarioError,
    _plain,
    _reject_unknown_keys,
    _require_mapping,
)
from repro.scenario.registry import WORKLOADS
from repro.sim.config import SimulationConfig

PathLike = Union[str, Path]

#: Version of the scenario schema.  Bump when the spec's shape changes in a
#: way old files cannot express; the loader rejects newer versions with an
#: actionable message instead of misreading them.
SCENARIO_SCHEMA_VERSION = 1

#: DRAM backends the system builder can construct.
KNOWN_DRAM_MODELS = ("transaction", "command")

#: Name under which a flat ``sweep`` mapping is exposed by
#: :meth:`Scenario.sweep_axis_sets`, so code that iterates axis sets does not
#: need to special-case the flat form.
DEFAULT_AXIS_SET = "grid"


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload reference: a registry kind plus its free-form parameters.

    ``kind`` names a factory in :data:`repro.scenario.registry.WORKLOADS`
    ("camcorder", "inline", …, or anything a plugin registered); ``params``
    is passed to the factory verbatim.  Parameters are canonicalised to
    plain JSON-compatible data on construction so that serialisation is
    lossless.
    """

    kind: str = "camcorder"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ScenarioError(f"workload.kind must be a non-empty string, got {self.kind!r}")
        object.__setattr__(self, "params", _plain(dict(self.params), "workload.params"))

    def build(self, traffic_scale: Optional[float] = None) -> Any:
        """Resolve the workload factory and build the workload object."""
        factory = WORKLOADS.get(self.kind)
        params = dict(self.params)
        if traffic_scale is not None:
            params["traffic_scale"] = traffic_scale
        return factory(params)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], path: str = "workload") -> "WorkloadSpec":
        data = _require_mapping(data, path)
        _reject_unknown_keys(data, ["kind", "params"], path)
        params = data.get("params", {})
        _require_mapping(params, f"{path}.params")
        return cls(kind=data.get("kind", "camcorder"), params=dict(params))


@dataclass(frozen=True)
class PlatformSpec:
    """The hardware half of a scenario: simulation config plus link widths."""

    sim: SimulationConfig = field(default_factory=SimulationConfig)
    cluster_links_bytes_per_ns: Mapping[str, float] = field(default_factory=dict)
    default_cluster_link_bytes_per_ns: float = 8.0
    root_link_bytes_per_ns: float = 32.0
    dram_model: str = "transaction"

    def __post_init__(self) -> None:
        links = dict(self.cluster_links_bytes_per_ns)
        for cluster, bandwidth in links.items():
            if not isinstance(bandwidth, (int, float)) or bandwidth <= 0:
                raise ScenarioError(
                    f"platform.cluster_links_bytes_per_ns.{cluster}: "
                    f"must be a positive number, got {bandwidth!r}"
                )
        object.__setattr__(self, "cluster_links_bytes_per_ns", links)
        if self.default_cluster_link_bytes_per_ns <= 0:
            raise ScenarioError(
                "platform.default_cluster_link_bytes_per_ns: must be positive"
            )
        if self.root_link_bytes_per_ns <= 0:
            raise ScenarioError("platform.root_link_bytes_per_ns: must be positive")
        if self.dram_model not in KNOWN_DRAM_MODELS:
            raise ScenarioError(
                f"platform.dram_model: unknown DRAM model '{self.dram_model}' "
                f"(known: {', '.join(KNOWN_DRAM_MODELS)})"
            )

    def cluster_link_bytes_per_ns(self, cluster: str) -> float:
        """Link bandwidth for a cluster (falling back to the default width)."""
        return self.cluster_links_bytes_per_ns.get(
            cluster, self.default_cluster_link_bytes_per_ns
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sim": self.sim.to_dict(),
            "cluster_links_bytes_per_ns": dict(self.cluster_links_bytes_per_ns),
            "default_cluster_link_bytes_per_ns": self.default_cluster_link_bytes_per_ns,
            "root_link_bytes_per_ns": self.root_link_bytes_per_ns,
            "dram_model": self.dram_model,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], path: str = "platform") -> "PlatformSpec":
        data = _require_mapping(data, path)
        known = [f.name for f in fields(cls)]
        _reject_unknown_keys(data, known, path)
        kwargs: Dict[str, Any] = {k: data[k] for k in known if k in data}
        if "sim" in kwargs:
            try:
                kwargs["sim"] = SimulationConfig.from_dict(kwargs["sim"], f"{path}.sim")
            except ValueError as exc:
                raise ScenarioError(str(exc)) from None
        if "cluster_links_bytes_per_ns" in kwargs:
            _require_mapping(
                kwargs["cluster_links_bytes_per_ns"], f"{path}.cluster_links_bytes_per_ns"
            )
            kwargs["cluster_links_bytes_per_ns"] = dict(kwargs["cluster_links_bytes_per_ns"])
        return cls(**kwargs)


@dataclass(frozen=True)
class Scenario:
    """One named, fully declarative experiment setup."""

    name: str
    description: str = ""
    schema_version: int = SCENARIO_SCHEMA_VERSION
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    policy: str = "priority_qos"
    adaptation_enabled: Optional[bool] = None
    critical_cores: Tuple[str, ...] = ()
    sweep: Mapping[str, List[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ScenarioError(f"scenario.name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.policy, str) or not self.policy:
            raise ScenarioError(f"scenario.policy must be a non-empty string, got {self.policy!r}")
        if self.schema_version != SCENARIO_SCHEMA_VERSION:
            raise ScenarioError(
                f"scenario.schema_version: file declares version {self.schema_version}, "
                f"this build reads version {SCENARIO_SCHEMA_VERSION}"
            )
        object.__setattr__(
            self, "critical_cores", tuple(str(core) for core in self.critical_cores)
        )
        # The sweep comes in two shapes: the flat form maps axis -> values,
        # the named form maps set name -> {axis -> values} so one scenario
        # can declare several sub-grids (per-figure axis sets).  The two
        # cannot be mixed — a value that is a mapping means the whole sweep
        # is named.
        sweep: Dict[str, Any] = {}
        named: Optional[bool] = None
        for axis, values in dict(self.sweep).items():
            if isinstance(values, Mapping):
                if named is False:
                    raise ScenarioError(
                        f"scenario.sweep.{axis}: cannot mix named axis sets "
                        "with flat axes in one sweep"
                    )
                named = True
                axes: Dict[str, List[Any]] = {}
                for set_axis, set_values in values.items():
                    if not isinstance(set_values, (list, tuple)):
                        raise ScenarioError(
                            f"scenario.sweep.{axis}.{set_axis}: axis values must "
                            f"be a list, got {type(set_values).__name__}"
                        )
                    axes[set_axis] = _plain(
                        list(set_values), f"scenario.sweep.{axis}.{set_axis}"
                    )
                if not axes:
                    raise ScenarioError(
                        f"scenario.sweep.{axis}: named axis set must declare at "
                        "least one axis"
                    )
                sweep[axis] = axes
            elif isinstance(values, (list, tuple)):
                if named is True:
                    raise ScenarioError(
                        f"scenario.sweep.{axis}: cannot mix flat axes with "
                        "named axis sets in one sweep"
                    )
                named = False
                sweep[axis] = _plain(list(values), f"scenario.sweep.{axis}")
            else:
                raise ScenarioError(
                    f"scenario.sweep.{axis}: axis values must be a list (flat "
                    f"form) or a mapping of axes (named form), got "
                    f"{type(values).__name__}"
                )
        object.__setattr__(self, "sweep", sweep)

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def simulation_config(self) -> SimulationConfig:
        """The frozen simulation configuration this scenario describes."""
        return self.platform.sim

    def build_workload(self, traffic_scale: Optional[float] = None) -> Any:
        """Build the workload object via the workload registry."""
        try:
            return self.workload.build(traffic_scale=traffic_scale)
        except RegistryError as exc:
            raise ScenarioError(f"scenario '{self.name}': {exc}") from None

    def with_overrides(self, **changes: Any) -> "Scenario":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain-data form (``from_dict`` inverts it exactly)."""
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "description": self.description,
            "platform": self.platform.to_dict(),
            "workload": self.workload.to_dict(),
            "policy": self.policy,
            "adaptation_enabled": self.adaptation_enabled,
            "critical_cores": list(self.critical_cores),
            "sweep": {
                key: (
                    {axis: list(values) for axis, values in entry.items()}
                    if isinstance(entry, Mapping)
                    else list(entry)
                )
                for key, entry in self.sweep.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Validate and rebuild a scenario from its dictionary form.

        Every validation error is a :class:`ScenarioError` whose message
        starts with the dotted path of the offending entry.
        """
        data = _require_mapping(data, "scenario")
        known = [f.name for f in fields(cls)]
        _reject_unknown_keys(data, known, "scenario")
        if "name" not in data:
            raise ScenarioError("scenario.name: required key is missing")
        kwargs: Dict[str, Any] = {k: data[k] for k in known if k in data}
        if "platform" in kwargs:
            kwargs["platform"] = PlatformSpec.from_dict(kwargs["platform"], "scenario.platform")
        if "workload" in kwargs:
            kwargs["workload"] = WorkloadSpec.from_dict(kwargs["workload"], "scenario.workload")
        if "adaptation_enabled" in kwargs and kwargs["adaptation_enabled"] is not None:
            if not isinstance(kwargs["adaptation_enabled"], bool):
                raise ScenarioError(
                    "scenario.adaptation_enabled: must be true, false or null, "
                    f"got {kwargs['adaptation_enabled']!r}"
                )
        if "critical_cores" in kwargs:
            cores = kwargs["critical_cores"]
            if not isinstance(cores, (list, tuple)):
                raise ScenarioError(
                    f"scenario.critical_cores: expected a list, got {type(cores).__name__}"
                )
            kwargs["critical_cores"] = tuple(cores)
        if "sweep" in kwargs:
            _require_mapping(kwargs["sweep"], "scenario.sweep")
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: PathLike) -> Path:
        """Write the scenario to a JSON file and return the written path."""
        destination = Path(path)
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(self.to_json() + "\n")
        return destination

    # ------------------------------------------------------------------ #
    # Dotted-path overrides (the CLI's --set) and sweep axes
    # ------------------------------------------------------------------ #
    def apply_settings(self, settings: Mapping[str, Any]) -> "Scenario":
        """Apply ``{"dotted.path": value}`` overrides and revalidate.

        String values are parsed as JSON when possible (so ``--set
        platform.sim.seed=7`` yields an integer) and kept as strings
        otherwise.  Paths must already exist in the serialized scenario —
        except under ``workload.params``, which is free-form — so typos fail
        loudly with the list of keys available at the failing level.
        """
        if not settings:
            return self
        data = self.to_dict()
        for dotted, value in settings.items():
            _set_path(data, dotted, _coerce(value))
        return Scenario.from_dict(data)

    @property
    def sweep_is_named(self) -> bool:
        """Whether the sweep declares named axis sets rather than flat axes."""
        return any(isinstance(entry, Mapping) for entry in self.sweep.values())

    def sweep_axis_sets(self) -> Dict[str, Dict[str, List[Any]]]:
        """The sweep as named axis sets, whichever form was declared.

        The named form is returned as declared (in declaration order); the
        flat form is exposed as a single set called
        :data:`DEFAULT_AXIS_SET`.  An empty sweep yields no sets.
        """
        if not self.sweep:
            return {}
        if self.sweep_is_named:
            # Copy the inner lists too: handing out the frozen scenario's own
            # lists would let a caller mutate a catalog-cached sweep.
            return {
                name: {axis: list(v) for axis, v in axes.items()}
                for name, axes in self.sweep.items()
            }
        return {DEFAULT_AXIS_SET: {axis: list(v) for axis, v in self.sweep.items()}}

    def sweep_axes(self, axis_set: Optional[str] = None) -> Dict[str, List[Any]]:
        """The axes of one axis set (or of the flat sweep).

        With ``axis_set=None`` the flat form returns its axes directly; a
        named sweep requires picking one of its sets and says which exist.
        """
        sets = self.sweep_axis_sets()
        if axis_set is None:
            if not sets:
                return {}
            if not self.sweep_is_named:
                return sets[DEFAULT_AXIS_SET]
            raise ScenarioError(
                f"scenario.sweep: scenario '{self.name}' declares named axis "
                f"sets ({', '.join(sets)}); pick one with axis_set="
            )
        if axis_set not in sets:
            raise ScenarioError(
                f"scenario.sweep.{axis_set}: no such axis set in scenario "
                f"'{self.name}' (declared: {', '.join(sets) or 'none'})"
            )
        return sets[axis_set]

    def sweep_axis(self, axis: str) -> Optional[List[Any]]:
        """Look one axis up across the flat sweep or every named set.

        Used for defaulting (e.g. the CLI's policy list): returns the first
        declaration of ``axis`` in declaration order, or ``None``.
        """
        for axes in self.sweep_axis_sets().values():
            if axis in axes:
                return list(axes[axis])
        return None

    def sweep_points(self, axis_set: Optional[str] = None) -> List[Dict[str, Any]]:
        """Expand sweep axes into the cartesian product of settings.

        Each point is a ``{"dotted.path": value}`` mapping suitable for
        :meth:`apply_settings`; an empty sweep yields the single empty point.
        For a sweep with named axis sets, ``axis_set`` selects which set to
        expand.
        """
        return expand_axis_points(self.sweep_axes(axis_set))


def expand_axis_points(axes_by_name: Mapping[str, List[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of axes, expanded in sorted-axis order.

    The single expansion used by scenario sweeps and campaign sub-grids, so
    point order (and therefore result order and labels) cannot drift between
    the two.  Empty axes yield the single empty point.
    """
    if not axes_by_name:
        return [{}]
    axes = sorted(axes_by_name)
    points = []
    for values in itertools.product(*(axes_by_name[axis] for axis in axes)):
        points.append(dict(zip(axes, values)))
    return points


def settings_label(point: Mapping[str, Any]) -> str:
    """Display label for a grid point: its settings' last path segments.

    Shared by ``repro grid`` and campaign sub-grids — cache-key parity
    between the two depends on labels (and the points behind them) staying
    byte-identical.
    """
    return ", ".join(
        f"{path.split('.')[-1]}={value}" for path, value in sorted(point.items())
    )


def _coerce(value: Any) -> Any:
    if not isinstance(value, str):
        return value
    try:
        return json.loads(value)
    except ValueError:
        return value


def _set_path(data: Dict[str, Any], dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node: Any = data
    for depth, part in enumerate(parts[:-1]):
        prefix = ".".join(parts[: depth + 1])
        if not isinstance(node, dict) or part not in node:
            _unknown_path(node, prefix)
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict):
        _unknown_path(node, dotted)
    # workload.params is a free-form mapping: creating new keys there is how
    # --set parameterises custom workloads.  Everywhere else the path must
    # already exist, so typos cannot silently add ignored keys.
    in_params = dotted.startswith("workload.params.")
    if leaf not in node and not in_params:
        _unknown_path(node, dotted)
    node[leaf] = value


def _unknown_path(node: Any, dotted: str) -> None:
    available = sorted(node) if isinstance(node, dict) else []
    raise ScenarioError(
        f"scenario.{dotted}: no such setting (available here: {available or 'none'})"
    )


# --------------------------------------------------------------------------- #
# File loading: JSON and TOML
# --------------------------------------------------------------------------- #
def load_spec_file(path: PathLike, kind: str, error: type) -> Any:
    """Read a ``.json``/``.toml`` spec file to plain data, or raise ``error``.

    The one loader shared by scenario and campaign files, parameterized by
    the document kind (for messages) and the error class to raise.
    """
    source = Path(path)
    try:
        text = source.read_text()
    except OSError as exc:
        raise error(f"cannot read {kind} file {source}: {exc}") from None
    if source.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - python < 3.11
            raise error(
                f"{source}: TOML {kind} files need Python 3.11+ (tomllib); "
                "convert the file to JSON to use it here"
            ) from None
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise error(f"{source}: invalid TOML: {exc}") from None
    try:
        return json.loads(text)
    except ValueError as exc:
        raise error(f"{source}: invalid JSON: {exc}") from None


def scenario_from_file(path: PathLike) -> Scenario:
    """Load a scenario from a ``.json`` or ``.toml`` file."""
    source = Path(path)
    data = load_spec_file(source, "scenario", ScenarioError)
    try:
        return Scenario.from_dict(data)
    except ScenarioError as exc:
        raise ScenarioError(f"{source}: {exc}") from None


# --------------------------------------------------------------------------- #
# Override resolution shared by build_system, run_experiment and RunSpec
# --------------------------------------------------------------------------- #
def resolve_scenario(
    scenario: Union[str, Scenario],
    policy: Optional[str] = None,
    config: Optional[SimulationConfig] = None,
    duration_ps: Optional[int] = None,
    seed: Optional[int] = None,
    traffic_scale: Optional[float] = None,
    adaptation_enabled: Optional[bool] = None,
    dram_freq_mhz: Optional[float] = None,
    dram_model: Optional[str] = None,
    settings: Union[Mapping[str, Any], Sequence[Tuple[str, Any]], None] = None,
) -> Scenario:
    """Resolve a scenario reference and bake every override into the spec.

    The result is a fully self-describing :class:`Scenario`: serializing it
    captures the policy, duration, seed, DRAM model and frequency, and the
    workload's traffic scale — which is exactly what the sweep orchestrator
    hashes for its cache key.
    """
    from repro.scenario.catalog import get_scenario  # deferred: avoids a cycle

    resolved = get_scenario(scenario)
    if settings:
        resolved = resolved.apply_settings(dict(settings))
    sim = config if config is not None else resolved.platform.sim
    if duration_ps is not None:
        sim = sim.with_overrides(duration_ps=duration_ps)
    if seed is not None:
        sim = sim.with_overrides(seed=seed)
    if dram_freq_mhz is not None:
        sim = sim.with_overrides(dram=sim.dram.with_frequency(dram_freq_mhz))
    platform = resolved.platform
    if sim is not platform.sim:
        platform = replace(platform, sim=sim)
    if dram_model is not None:
        platform = replace(platform, dram_model=dram_model)
    workload = resolved.workload
    if traffic_scale is not None:
        params = dict(workload.params)
        params["traffic_scale"] = traffic_scale
        workload = replace(workload, params=params)
    changes: Dict[str, Any] = {}
    if platform is not resolved.platform:
        changes["platform"] = platform
    if workload is not resolved.workload:
        changes["workload"] = workload
    if policy is not None:
        changes["policy"] = policy
    if adaptation_enabled is not None:
        changes["adaptation_enabled"] = adaptation_enabled
    return resolved.with_overrides(**changes) if changes else resolved
