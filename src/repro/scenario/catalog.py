"""The scenario catalog: bundled scenario files plus runtime registrations.

Bundled scenarios live as JSON files in ``repro/scenario/data/`` — the two
paper cases (``case_a``, ``case_b``) and the new workload families — and are
loaded lazily on first use.  Plugins (or tests) can add more at runtime with
:func:`register_scenario`; the CLI additionally accepts filesystem paths
wherever a scenario name is expected.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple, Union

from repro.scenario.errors import ScenarioError
from repro.scenario.spec import Scenario, scenario_from_file
from repro.sim.config import SimulationConfig

#: Directory holding the bundled scenario files.
BUILTIN_SCENARIO_DIR = Path(__file__).resolve().parent / "data"

_runtime: Dict[str, Scenario] = {}
_builtin_cache: Dict[str, Scenario] = {}


def is_path_ref(ref: str) -> bool:
    """Whether a string reference names a *file* rather than a catalog entry.

    The one classifier shared by the scenario and campaign catalogs (and by
    campaign-relative path anchoring), so the same string can never be read
    as a path by one layer and a name by another.
    """
    return ref.endswith((".json", ".toml")) or "/" in ref


def builtin_scenario_paths() -> Dict[str, Path]:
    """Name -> path for every bundled scenario file."""
    return {
        path.stem: path
        for path in sorted(BUILTIN_SCENARIO_DIR.glob("*.json"))
    }


def available_scenarios() -> Dict[str, Scenario]:
    """Every known scenario (bundled and runtime-registered), by name.

    Runtime registrations shadow bundled files of the same name, so a plugin
    can refine a built-in scenario without touching the package data.
    """
    catalog: Dict[str, Scenario] = {}
    for name in builtin_scenario_paths():
        catalog[name] = _load_builtin(name)
    catalog.update(_runtime)
    return dict(sorted(catalog.items()))


def register_scenario(scenario: Scenario, replace: bool = False) -> Scenario:
    """Register a scenario under its own name for this process.

    Used by plugin modules (imported in every sweep worker via
    ``--plugin-module``) to make custom scenarios addressable by name.
    """
    if not isinstance(scenario, Scenario):
        raise TypeError("register_scenario expects a Scenario instance")
    if scenario.name in _runtime and not replace:
        raise ScenarioError(
            f"scenario '{scenario.name}' is already registered (pass replace=True)"
        )
    _runtime[scenario.name] = scenario
    return scenario


def unregister_scenario(name: str) -> None:
    """Remove a runtime registration (primarily for tests)."""
    _runtime.pop(name, None)


def _load_builtin(name: str) -> Scenario:
    cached = _builtin_cache.get(name)
    if cached is None:
        cached = scenario_from_file(builtin_scenario_paths()[name])
        if cached.name != name:
            raise ScenarioError(
                f"bundled scenario file '{name}.json' declares name "
                f"'{cached.name}'; file stem and scenario name must match"
            )
        _builtin_cache[name] = cached
    return cached


def get_scenario(ref: Union[str, Path, Scenario]) -> Scenario:
    """Resolve a scenario reference: an object, a known name, or a file path."""
    if isinstance(ref, Scenario):
        return ref
    if isinstance(ref, Path):
        return scenario_from_file(ref)
    if not isinstance(ref, str):
        raise TypeError(f"scenario reference must be a name, path or Scenario, got {type(ref)!r}")
    if ref in _runtime:
        return _runtime[ref]
    builtins = builtin_scenario_paths()
    if ref in builtins:
        return _load_builtin(ref)
    if is_path_ref(ref):
        return scenario_from_file(ref)
    known = sorted(set(builtins) | set(_runtime))
    raise ScenarioError(
        f"unknown scenario '{ref}' (known: {', '.join(known)}; "
        "a path to a .json/.toml scenario file also works)"
    )


def scenario_config(ref: Union[str, Path, Scenario]) -> SimulationConfig:
    """The simulation configuration a scenario describes (common shorthand)."""
    return get_scenario(ref).simulation_config()


def critical_cores_for(ref: Union[str, Path, Scenario]) -> Tuple[str, ...]:
    """The cores whose NPI the scenario's figures plot."""
    return get_scenario(ref).critical_cores


def describe_scenario(ref: Union[str, Path, Scenario]) -> str:
    """One-line summary used by ``repro scenarios list``."""
    scenario = get_scenario(ref)
    workload = scenario.workload
    return (
        f"{scenario.name:<26}workload={workload.kind:<26}"
        f"policy={scenario.policy:<20}{scenario.description}"
    )
