"""On-disk result cache keyed by a stable hash of the run configuration.

A cache key is the SHA-256 of the canonical JSON form of everything that can
influence an :class:`~repro.system.experiment.ExperimentResult`: the fully
resolved, serialized :class:`~repro.scenario.Scenario` (platform with nested
DRAM timing, controller and NoC configs; workload kind and parameters;
policy; every override baked in), whether the NPI trace is kept, and the
plugin modules the run imports.  Two runs described by the same scenario
therefore share one cache entry, and any field change — a different seed,
one DRAM timing parameter, a new workload parameter — produces a different
key.

Entries are plain JSON files (via :mod:`repro.analysis.serialize`) sharded
into 256 two-hex-digit subdirectories, so a cache directory can be inspected
with a text editor and shipped between machines or CI runs (the tiered CI
pipeline restores it with ``actions/cache``).  Bump
:data:`CACHE_SCHEMA_VERSION` whenever simulation semantics change in a way
that silently alters results; old entries then simply stop matching.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.analysis.serialize import (
    experiment_result_from_dict,
    experiment_result_to_dict,
)
from repro.system.experiment import ExperimentResult

PathLike = Union[str, Path]

#: Version of the simulation semantics baked into every cache key.  Bump it
#: when engine, scheduler or workload changes make previously cached results
#: stale even though the configuration hash is unchanged.  Version 2: cache
#: keys moved from hand-built config fingerprints to serialized scenarios.
CACHE_SCHEMA_VERSION = 2


def _canonical_json(payload: Dict[str, object]) -> str:
    """Deterministic JSON used for hashing (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key(fingerprint: Dict[str, object]) -> str:
    """SHA-256 hex digest of a run fingerprint dictionary.

    The fingerprint is produced by :meth:`repro.runner.sweep.RunSpec.fingerprint`;
    the schema version is mixed in here so callers cannot forget it.
    """
    payload = dict(fingerprint)
    payload["cache_schema_version"] = CACHE_SCHEMA_VERSION
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of serialized :class:`ExperimentResult` files.

    The cache counts its own hits, misses and stores, and accumulates the
    wall-clock it spends deserializing (``read_s``) and serializing
    (``write_s``) entries, so sweeps can report both how much work they
    skipped and what the skipping itself cost (the orchestrator surfaces the
    sum as ``SweepStats.serialize_s``).
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.read_s = 0.0
        self.write_s = 0.0

    @property
    def io_s(self) -> float:
        """Total wall-clock this cache has spent on entry (de)serialization."""
        return self.read_s + self.write_s

    def path_for(self, key: str) -> Path:
        """Location of the entry for ``key`` (whether or not it exists)."""
        return self.directory / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def get(self, key: str) -> Optional[ExperimentResult]:
        """Load a cached result, or ``None`` on a miss or unreadable entry."""
        path = self.path_for(key)
        began = time.perf_counter()
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        finally:
            self.read_s += time.perf_counter() - began
        began = time.perf_counter()
        try:
            result = experiment_result_from_dict(data["result"])
        except (KeyError, TypeError, ValueError):
            # A corrupt or stale-schema entry is treated as a miss; the fresh
            # run will overwrite it.
            self.misses += 1
            return None
        finally:
            self.read_s += time.perf_counter() - began
        self.hits += 1
        return result

    def put(self, key: str, result: ExperimentResult, include_trace: bool = True) -> Path:
        """Store a result under ``key`` and return the written path.

        The entry is written to a temporary file and renamed into place so
        that concurrent workers (or an interrupted run) never leave a
        half-written JSON file behind.
        """
        path = self.path_for(key)
        began = time.perf_counter()
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "cache_schema_version": CACHE_SCHEMA_VERSION,
            "result": experiment_result_to_dict(result, include_trace=include_trace),
        }
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        finally:
            self.write_s += time.perf_counter() - began
        self.stores += 1
        return path

    def keys(self) -> List[str]:
        """Every cache key currently on disk, sorted.

        The results store's ``verify`` cross-checks a manifest's recorded
        keys against this set, so a report whose underlying results were
        evicted is flagged instead of silently trusted.
        """
        if not self.directory.is_dir():
            return []
        return sorted(entry.stem for entry in self.directory.glob("*/*.json"))

    def entries(self) -> int:
        """Number of entries currently on disk."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for entry in self.directory.glob("*/*.json"):
                entry.unlink()
                removed += 1
        return removed
