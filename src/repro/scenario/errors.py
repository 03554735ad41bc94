"""Errors raised by the declarative scenario layer, and the schema helpers
that raise them.

The helpers are shared by every plain-data document the repository
validates (scenarios, campaigns, store manifests); they live here, next to
:class:`ScenarioError`, so that validating a manifest does not load the
scenario spec or the simulation config.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


class ScenarioError(ValueError):
    """A scenario file or dictionary failed schema validation.

    The message always carries the dotted path of the offending entry
    (e.g. ``scenario.platform.sim.dram.channels``) so that authors of
    scenario files can fix them without reading the loader source.
    """


class RegistryError(ValueError):
    """A registry lookup or registration failed (unknown key or collision)."""


def _plain(value: Any, path: str) -> Any:
    """Canonicalise a parameter value to JSON-compatible plain data.

    Tuples become lists (so equality survives a JSON round trip) and any
    type JSON cannot express is rejected up front with its dotted path.
    """
    if isinstance(value, (list, tuple)):
        return [_plain(item, f"{path}[{i}]") for i, item in enumerate(value)]
    if isinstance(value, Mapping):
        for key in value:
            if not isinstance(key, str):
                raise ScenarioError(f"{path}: mapping keys must be strings, got {key!r}")
        return {key: _plain(item, f"{path}.{key}") for key, item in value.items()}
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    raise ScenarioError(
        f"{path}: values must be JSON-compatible (null, bool, number, string, "
        f"list or mapping), got {type(value).__name__}"
    )


def _require_mapping(data: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{path}: expected a mapping, got {type(data).__name__}")
    return data


def _reject_unknown_keys(data: Mapping[str, Any], known: Sequence[str], path: str) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ScenarioError(f"{path}: unknown key(s) {unknown} (known: {sorted(known)})")
