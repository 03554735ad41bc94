"""The declarative, versioned experiment-campaign specification.

A :class:`Campaign` is what a paper's evaluation section actually is: a set
of *named sub-grids* (``fig5``, ``fig7``, ``table2``, …), each binding one
scenario to an axis set, fixed setting overrides, the report columns the
corresponding figure shows, and the claims/checks the results are expected
to satisfy.  Like :class:`~repro.scenario.Scenario`, a campaign is plain
data: ``from_dict(to_dict(c)) == c`` holds exactly, the dictionary form is
JSON- and TOML-compatible, and every validation error carries the dotted
path of the offending entry (``campaign.subgrids.fig7.axes…``).

Sub-grids expand to the same :class:`~repro.runner.RunSpec` points the
``grid``/``sweep`` CLI paths produce, so campaign results are bit-identical
to running each sub-grid through the existing orchestrator — and share its
result cache.  Execution belongs to
:class:`~repro.campaign.scheduler.CampaignScheduler`, reporting to
:mod:`repro.campaign.report`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.campaign.report import CHECK_REQUIRED_PARAMS, KNOWN_CHECKS, KNOWN_COLUMNS
from repro.scenario import (
    Scenario,
    ScenarioError,
    expand_axis_points,
    get_scenario,
    is_path_ref,
    settings_label,
)
from repro.scenario.errors import (
    _plain as _scenario_plain,
    _reject_unknown_keys as _scenario_reject_unknown_keys,
    _require_mapping as _scenario_require_mapping,
)
from repro.scenario.spec import load_spec_file
from repro.sim.clock import MS

if TYPE_CHECKING:  # pragma: no cover - type-only import: loading a campaign runs nothing
    from repro.runner.sweep import RunSpec

PathLike = Union[str, Path]

#: Version of the campaign schema.  Bump when the spec's shape changes in a
#: way old files cannot express; the loader rejects newer versions with an
#: actionable message instead of misreading them.
CAMPAIGN_SCHEMA_VERSION = 1


class CampaignError(ScenarioError):
    """A campaign file or dictionary failed schema validation.

    Subclasses :class:`~repro.scenario.ScenarioError` so every surface that
    already turns scenario errors into friendly messages (the CLI, the
    validation commands) handles campaign errors for free.
    """


# The scenario layer's schema helpers, re-raised as CampaignError so the
# exception type matches the document being validated.
def _plain(value: Any, path: str) -> Any:
    try:
        return _scenario_plain(value, path)
    except ScenarioError as exc:
        raise CampaignError(str(exc)) from None


def _require_mapping(data: Any, path: str) -> Mapping[str, Any]:
    try:
        return _scenario_require_mapping(data, path)
    except ScenarioError as exc:
        raise CampaignError(str(exc)) from None


def _reject_unknown_keys(data: Mapping[str, Any], known: Sequence[str], path: str) -> None:
    try:
        _scenario_reject_unknown_keys(data, known, path)
    except ScenarioError as exc:
        raise CampaignError(str(exc)) from None


@dataclass(frozen=True)
class CheckSpec:
    """One declared executable claim: a registered check kind plus params."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_CHECKS:
            raise CampaignError(
                f"check.kind: unknown check '{self.kind}' "
                f"(known: {', '.join(sorted(KNOWN_CHECKS))})"
            )
        object.__setattr__(self, "params", _plain(dict(self.params), "check.params"))
        missing = [
            param
            for param in CHECK_REQUIRED_PARAMS.get(self.kind, ())
            if param not in self.params
        ]
        if missing:
            raise CampaignError(
                f"check.params: check '{self.kind}' requires param(s) {missing}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], path: str) -> "CheckSpec":
        data = _require_mapping(data, path)
        _reject_unknown_keys(data, ["kind", "params"], path)
        if "kind" not in data:
            raise CampaignError(f"{path}.kind: required key is missing")
        params = data.get("params", {})
        _require_mapping(params, f"{path}.params")
        try:
            return cls(kind=data["kind"], params=dict(params))
        except ScenarioError as exc:
            # Re-anchor the construction-time "check." path at this check's
            # position in the campaign document.
            raise CampaignError(str(exc).replace("check.", f"{path}.", 1)) from None


@dataclass(frozen=True)
class SubGrid:
    """One named sub-grid of a campaign: a figure or table's run grid.

    ``axes`` expand to the cartesian product of dotted-path settings (the
    same shape as a scenario's sweep axes), ``settings`` are fixed overrides
    applied to every point (e.g. pinning the policy of a frequency sweep),
    and ``columns``/``claims``/``checks`` declare what the figure's report
    shows and asserts.  ``duration_ms``/``traffic_scale`` override the
    campaign defaults for this sub-grid only.
    """

    name: str
    scenario: str = "case_a"
    title: str = ""
    axes: Mapping[str, List[Any]] = field(default_factory=dict)
    settings: Mapping[str, Any] = field(default_factory=dict)
    duration_ms: Optional[float] = None
    traffic_scale: Optional[float] = None
    keep_trace: bool = False
    columns: Tuple[str, ...] = ()
    claims: Tuple[str, ...] = ()
    checks: Tuple[CheckSpec, ...] = ()

    def __post_init__(self) -> None:
        prefix = f"subgrid.{self.name or '?'}"
        if not self.name or not isinstance(self.name, str):
            raise CampaignError(f"subgrid name must be a non-empty string, got {self.name!r}")
        if not self.scenario or not isinstance(self.scenario, str):
            raise CampaignError(
                f"{prefix}.scenario: must be a scenario name or file path, "
                f"got {self.scenario!r}"
            )
        overlap = sorted(set(self.axes) & set(self.settings))
        if overlap:
            raise CampaignError(
                f"{prefix}.settings: {overlap} declared both as fixed setting(s) "
                "and as axes (the axis would silently win; drop one)"
            )
        axes: Dict[str, List[Any]] = {}
        for axis, values in dict(self.axes).items():
            if not isinstance(values, (list, tuple)):
                raise CampaignError(
                    f"{prefix}.axes.{axis}: axis values must be a list, "
                    f"got {type(values).__name__}"
                )
            if not values:
                raise CampaignError(f"{prefix}.axes.{axis}: axis values must not be empty")
            # Labels render values with str(), so uniqueness must hold on the
            # same projection (1 and "1" would collide) — a report whose rows
            # carry identical labels is unreadable even though the scheduler
            # regroups by settings, not labels.
            if len({str(value) for value in values}) != len(values):
                raise CampaignError(
                    f"{prefix}.axes.{axis}: axis values must be unique "
                    "(and render distinctly)"
                )
            axes[axis] = _plain(list(values), f"{prefix}.axes.{axis}")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(
            self, "settings", _plain(dict(self.settings), f"{prefix}.settings")
        )
        if self.duration_ms is not None and (
            not isinstance(self.duration_ms, (int, float)) or self.duration_ms <= 0
        ):
            raise CampaignError(
                f"{prefix}.duration_ms: must be a positive number or null, "
                f"got {self.duration_ms!r}"
            )
        if self.traffic_scale is not None and (
            not isinstance(self.traffic_scale, (int, float)) or self.traffic_scale <= 0
        ):
            raise CampaignError(
                f"{prefix}.traffic_scale: must be a positive number or null, "
                f"got {self.traffic_scale!r}"
            )
        columns = tuple(self.columns)
        for column in columns:
            if column not in KNOWN_COLUMNS:
                raise CampaignError(
                    f"{prefix}.columns: unknown column '{column}' "
                    f"(known: {', '.join(sorted(KNOWN_COLUMNS))})"
                )
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "claims", tuple(str(claim) for claim in self.claims))
        object.__setattr__(self, "checks", tuple(self.checks))

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def resolved_scenario(self) -> Scenario:
        """The scenario object this sub-grid runs (catalog name or file).

        Memoized on the instance (like ``RunSpec.resolved_scenario``): the
        catalog caches builtins but a file reference would otherwise be
        re-read and re-validated on every plan/run/report pass.
        """
        cached = self.__dict__.get("_resolved")
        if cached is None:
            cached = get_scenario(self.scenario)
            object.__setattr__(self, "_resolved", cached)
        return cached

    def points(self) -> List[Dict[str, Any]]:
        """The cartesian product of the axes, merged over fixed settings.

        Points are expanded exactly like ``Scenario.sweep_points`` (axes in
        sorted order), so a sub-grid declaring a scenario's own axes yields
        the same grid as ``repro grid``.
        """
        points = []
        for axis_point in expand_axis_points(self.axes):
            point = dict(self.settings)
            point.update(axis_point)
            points.append(point)
        return points

    def point_label(self, point: Mapping[str, Any]) -> str:
        """Display label of one point: its axis values (not fixed settings)."""
        label = settings_label({axis: point[axis] for axis in self.axes})
        return label or self.name

    def run_specs(
        self,
        default_duration_ms: float,
        default_traffic_scale: Optional[float] = None,
        duration_ms: Optional[float] = None,
        traffic_scale: Optional[float] = None,
        plugin_modules: Sequence[str] = (),
    ) -> List[RunSpec]:
        """One :class:`RunSpec` per point, in point order.

        Precedence for the run window and traffic scale: the explicit call
        argument (a CLI override) beats the sub-grid's declaration, which
        beats the campaign default.
        """
        # Imported here: building specs is the first step towards running
        # them, and loading or serving a campaign must not load the runner.
        from repro.runner.sweep import RunSpec

        effective_ms = (
            duration_ms
            if duration_ms is not None
            else (self.duration_ms if self.duration_ms is not None else default_duration_ms)
        )
        effective_scale = (
            traffic_scale
            if traffic_scale is not None
            else (
                self.traffic_scale
                if self.traffic_scale is not None
                else default_traffic_scale
            )
        )
        scenario = self.resolved_scenario()
        return [
            RunSpec(
                scenario=scenario,
                duration_ps=int(effective_ms * MS),
                traffic_scale=effective_scale,
                keep_trace=self.keep_trace,
                settings=tuple(sorted(point.items())),
                label=self.point_label(point),
                plugin_modules=tuple(plugin_modules),
            )
            for point in self.points()
        ]

    # ------------------------------------------------------------------ #
    # Serialisation (the sub-grid's name is its key in the campaign dict)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "title": self.title,
            "axes": {axis: list(values) for axis, values in self.axes.items()},
            "settings": dict(self.settings),
            "duration_ms": self.duration_ms,
            "traffic_scale": self.traffic_scale,
            "keep_trace": self.keep_trace,
            "columns": list(self.columns),
            "claims": list(self.claims),
            "checks": [check.to_dict() for check in self.checks],
        }

    @classmethod
    def from_dict(cls, name: str, data: Mapping[str, Any], path: str) -> "SubGrid":
        data = _require_mapping(data, path)
        known = [f.name for f in fields(cls) if f.name != "name"]
        _reject_unknown_keys(data, known, path)
        kwargs: Dict[str, Any] = {k: data[k] for k in known if k in data}
        if "axes" in kwargs:
            _require_mapping(kwargs["axes"], f"{path}.axes")
        if "settings" in kwargs:
            _require_mapping(kwargs["settings"], f"{path}.settings")
        for listy in ("columns", "claims"):
            if listy in kwargs and not isinstance(kwargs[listy], (list, tuple)):
                raise CampaignError(
                    f"{path}.{listy}: expected a list, got {type(kwargs[listy]).__name__}"
                )
        if "checks" in kwargs:
            if not isinstance(kwargs["checks"], (list, tuple)):
                raise CampaignError(
                    f"{path}.checks: expected a list, got {type(kwargs['checks']).__name__}"
                )
            kwargs["checks"] = tuple(
                CheckSpec.from_dict(check, f"{path}.checks[{index}]")
                for index, check in enumerate(kwargs["checks"])
            )
        if "columns" in kwargs:
            kwargs["columns"] = tuple(kwargs["columns"])
        if "claims" in kwargs:
            kwargs["claims"] = tuple(kwargs["claims"])
        try:
            return cls(name=name, **kwargs)
        except ScenarioError as exc:
            # Re-anchor the construction-time dotted path at this sub-grid's
            # position in the campaign document.
            raise CampaignError(str(exc).replace(f"subgrid.{name}", path, 1)) from None


@dataclass(frozen=True)
class Campaign:
    """A named set of sub-grids with shared execution defaults."""

    name: str
    description: str = ""
    schema_version: int = CAMPAIGN_SCHEMA_VERSION
    duration_ms: float = 4.0
    traffic_scale: Optional[float] = None
    subgrids: Tuple[SubGrid, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise CampaignError(f"campaign.name must be a non-empty string, got {self.name!r}")
        if self.schema_version != CAMPAIGN_SCHEMA_VERSION:
            raise CampaignError(
                f"campaign.schema_version: file declares version {self.schema_version}, "
                f"this build reads version {CAMPAIGN_SCHEMA_VERSION}"
            )
        if not isinstance(self.duration_ms, (int, float)) or self.duration_ms <= 0:
            raise CampaignError(
                f"campaign.duration_ms: must be a positive number, got {self.duration_ms!r}"
            )
        if self.traffic_scale is not None and (
            not isinstance(self.traffic_scale, (int, float)) or self.traffic_scale <= 0
        ):
            raise CampaignError(
                f"campaign.traffic_scale: must be a positive number or null, "
                f"got {self.traffic_scale!r}"
            )
        subgrids = tuple(self.subgrids)
        if not subgrids:
            raise CampaignError("campaign.subgrids: a campaign must declare at least one sub-grid")
        seen = set()
        for subgrid in subgrids:
            if subgrid.name in seen:
                raise CampaignError(
                    f"campaign.subgrids.{subgrid.name}: duplicate sub-grid name"
                )
            seen.add(subgrid.name)
        object.__setattr__(self, "subgrids", subgrids)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def subgrid_names(self) -> List[str]:
        return [subgrid.name for subgrid in self.subgrids]

    def subgrid(self, name: str) -> SubGrid:
        for subgrid in self.subgrids:
            if subgrid.name == name:
                return subgrid
        raise CampaignError(
            f"campaign '{self.name}' has no sub-grid '{name}' "
            f"(declared: {', '.join(self.subgrid_names())})"
        )

    def selection(self, subgrids: Optional[Sequence[str]]) -> Optional[Tuple[str, ...]]:
        """A sub-grid selection as a run records it: deduplicated, in order
        (``None`` runs every sub-grid)."""
        if subgrids is None:
            return None
        return tuple(dict.fromkeys(subgrids))

    def fingerprint(
        self,
        subgrids: Optional[Sequence[str]] = None,
        *,
        duration_ms: Optional[float] = None,
        traffic_scale: Optional[float] = None,
        plugin_modules: Sequence[str] = (),
    ) -> str:
        """The results-store lookup key of one run of this campaign.

        Computed entirely from the dictionary form plus the run's overrides
        — no scenario is resolved, no ``RunSpec`` is built — which is exactly
        what lets a warm ``campaign report`` find its manifest as a pure
        read.  Execution knobs that cannot change results (``jobs``, cache
        and store directories, output format) do not participate.
        """
        from repro.store import run_fingerprint

        return run_fingerprint(
            "campaign",
            self.to_dict(),
            duration_ms=duration_ms,
            traffic_scale=traffic_scale,
            selection=self.selection(subgrids),
            plugin_modules=tuple(plugin_modules),
        )

    def validate(self, deep: bool = True) -> int:
        """Resolve every sub-grid and return the campaign's total point count.

        Construction already schema-checked the document; ``deep`` validation
        additionally resolves each sub-grid's scenario (catching unknown
        catalog names and broken scenario files), builds its workload, and
        applies every point's settings (catching dotted-path typos in axes
        and fixed settings) — everything short of simulating.
        """
        total = 0
        for subgrid in self.subgrids:
            prefix = f"campaign.subgrids.{subgrid.name}"
            points = subgrid.points()
            try:
                scenario = subgrid.resolved_scenario()
                if deep:
                    scenario.build_workload()
                    for point in points:
                        scenario.apply_settings(point)
            except ScenarioError as exc:
                raise CampaignError(f"{prefix}: {exc}") from None
            total += len(points)
        return total

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain-data form (``from_dict`` inverts it exactly)."""
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "description": self.description,
            "duration_ms": self.duration_ms,
            "traffic_scale": self.traffic_scale,
            "subgrids": {subgrid.name: subgrid.to_dict() for subgrid in self.subgrids},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Campaign":
        """Validate and rebuild a campaign from its dictionary form.

        Every validation error is a :class:`CampaignError` whose message
        starts with the dotted path of the offending entry.
        """
        data = _require_mapping(data, "campaign")
        # Version first: a newer-version file must get the actionable version
        # message, not structural errors about keys this build cannot know.
        version = data.get("schema_version", CAMPAIGN_SCHEMA_VERSION)
        if version != CAMPAIGN_SCHEMA_VERSION:
            raise CampaignError(
                f"campaign.schema_version: file declares version {version}, "
                f"this build reads version {CAMPAIGN_SCHEMA_VERSION}"
            )
        known = [f.name for f in fields(cls)]
        _reject_unknown_keys(data, known, "campaign")
        if "name" not in data:
            raise CampaignError("campaign.name: required key is missing")
        kwargs: Dict[str, Any] = {k: data[k] for k in known if k in data}
        if "subgrids" in kwargs:
            _require_mapping(kwargs["subgrids"], "campaign.subgrids")
            kwargs["subgrids"] = tuple(
                SubGrid.from_dict(name, body, f"campaign.subgrids.{name}")
                for name, body in kwargs["subgrids"].items()
            )
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        # Unlike scenarios, keys are NOT sorted: sub-grid order is semantic
        # (it is the report order), and ``to_dict`` emits it losslessly.
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: PathLike) -> Path:
        """Write the campaign to a JSON file and return the written path."""
        destination = Path(path)
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(self.to_json() + "\n")
        return destination


# --------------------------------------------------------------------------- #
# File loading: JSON and TOML
# --------------------------------------------------------------------------- #
def campaign_from_file(path: PathLike) -> Campaign:
    """Load a campaign from a ``.json`` or ``.toml`` file."""
    source = Path(path)
    data = load_spec_file(source, "campaign", CampaignError)
    try:
        campaign = Campaign.from_dict(data)
    except CampaignError as exc:
        raise CampaignError(f"{source}: {exc}") from None
    return _anchor_scenario_paths(campaign, source.parent)


def _anchor_scenario_paths(campaign: Campaign, base: Path) -> Campaign:
    """Resolve relative sub-grid scenario *file* references against ``base``.

    A campaign file referencing ``scenarios/custom.json`` must work from any
    working directory, so path-like references (suffix or separator, not
    catalog names) are anchored to the campaign file's own directory.
    """
    rewritten = []
    changed = False
    for subgrid in campaign.subgrids:
        ref = subgrid.scenario
        if is_path_ref(ref) and not Path(ref).is_absolute():
            rewritten.append(replace(subgrid, scenario=str(base / ref)))
            changed = True
        else:
            rewritten.append(subgrid)
    if not changed:
        return campaign
    return replace(campaign, subgrids=tuple(rewritten))
