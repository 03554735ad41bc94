"""Plugin import hook: make runtime registrations reach every sweep worker.

Registries (scheduling policies, workloads, traffic models, address streams,
scenarios) live in process memory, so anything registered at runtime used to
vanish inside sweep workers, which then started as fresh interpreters — the
ROADMAP's ``jobs=1`` caveat for custom policies.  The fix is declarative: a
run spec carries the *names* of the modules whose import performs the
registrations, and every worker imports them before executing its spec.
Workers are now forked from the driver, but the contract stands: a
registration a worker needs comes from a declared plugin module.  The CLI's
``--plugin-module`` and :attr:`repro.runner.RunSpec.plugin_modules` both
route through here.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Iterable, List


def load_plugins(modules: Iterable[str]) -> List[ModuleType]:
    """Import every named plugin module (idempotent, order-preserving).

    Already-imported modules are returned straight from :data:`sys.modules`
    without touching the import machinery, so calling this once per spec on a
    sweep's hot path costs a few dictionary lookups, not an import-system
    round trip per call.  A failing import is re-raised with the module name
    and a reminder that the module must be importable in worker processes too
    (i.e. reachable from ``sys.path``, not defined inline in a notebook cell).
    """
    loaded: List[ModuleType] = []
    for name in modules:
        module = sys.modules.get(name)
        if module is not None:
            loaded.append(module)
            continue
        try:
            loaded.append(importlib.import_module(name))
        except ImportError as exc:
            raise ImportError(
                f"cannot import plugin module '{name}': {exc}. Plugin modules "
                "must be importable by name in every worker process; install "
                "the package or add its directory to PYTHONPATH."
            ) from exc
    return loaded
