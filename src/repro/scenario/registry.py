"""String-keyed registries backing the declarative scenario layer.

A scenario file refers to everything by name: its workload kind, each DMA's
traffic model and address-stream pattern, and the scheduling policy.  The
first three resolve through the :class:`Registry` instances below; scheduling
policies keep their existing registry in :mod:`repro.memctrl.policies`.

Registries are open: plugin modules (imported via ``--plugin-module`` on the
CLI, or :func:`repro.scenario.load_plugins` from code) register additional
entries at import time, which is what makes custom workloads and traffic
models usable from plain scenario files — including inside sweep
workers, which import the same plugin modules before running their specs.

This module is intentionally import-light (no other ``repro`` imports) so
that any layer can depend on it without cycles.  Each registry names the
module whose import registers its built-in entries and imports it on first
use, so reading or extending a registry always sees the built-ins, however
little of the package has been imported so far.
"""

from __future__ import annotations

import difflib
from typing import Callable, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.scenario.errors import RegistryError

T = TypeVar("T")


class Registry(Generic[T]):
    """A named mapping from string keys to factories (or any values).

    ``register`` may be used directly or as a decorator::

        @TRAFFIC_MODELS.register("frame_burst")
        def _build(spec, *, frame_period_ps, seed): ...

    Lookups of unknown keys raise :class:`RegistryError` listing every known
    key (and a "did you mean" suggestion), so a typo in a scenario file
    produces an actionable message rather than a bare ``KeyError``.
    """

    def __init__(self, kind: str, builtins: Optional[str] = None) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = {}
        #: Module whose import registers the built-in entries (None once
        #: imported).  Its own registrations re-enter :meth:`_loaded` while
        #: it imports, and get the partly imported module back.
        self._builtins = builtins

    def _loaded(self) -> Dict[str, T]:
        """The entries, after importing the built-in entries' module once."""
        if self._builtins is not None:
            __import__(self._builtins)  # not importlib: -X importtime logs this
            self._builtins = None
        return self._entries

    def register(
        self, name: str, value: Optional[T] = None, replace: bool = False
    ) -> Callable[[T], T]:
        """Register ``value`` under ``name`` (decorator form when value is omitted)."""
        if not name or not isinstance(name, str):
            raise RegistryError(f"{self.kind} names must be non-empty strings, got {name!r}")

        def _add(entry: T) -> T:
            entries = self._loaded()
            if name in entries and not replace:
                raise RegistryError(
                    f"{self.kind} '{name}' is already registered "
                    f"(pass replace=True to override)"
                )
            entries[name] = entry
            return entry

        if value is not None:
            _add(value)
            return lambda entry: entry
        return _add

    def unregister(self, name: str) -> None:
        """Remove an entry (primarily for tests cleaning up after themselves)."""
        self._loaded().pop(name, None)

    def get(self, name: str) -> T:
        """Look up an entry, raising an actionable error for unknown keys."""
        entries = self._loaded()
        try:
            return entries[name]
        except KeyError:
            hint = ""
            close = difflib.get_close_matches(name, entries, n=1)
            if close:
                hint = f" — did you mean '{close[0]}'?"
            raise RegistryError(
                f"unknown {self.kind} '{name}' (known: {', '.join(self.names()) or 'none'})"
                f"{hint}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._loaded())

    def items(self) -> List[Tuple[str, T]]:
        return sorted(self._loaded().items())

    def __contains__(self, name: object) -> bool:
        return name in self._loaded()

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._loaded())


#: Workload factories: ``factory(params: dict) -> CamcorderWorkload``-shaped
#: objects (any object carrying ``case``, ``frame_period_ps`` and ``dmas``).
WORKLOADS: Registry = Registry("workload", builtins="repro.scenario.workloads")

#: Traffic-model builders: ``build(spec, *, frame_period_ps, seed) -> TrafficGenerator``.
TRAFFIC_MODELS: Registry = Registry("traffic model", builtins="repro.scenario.builders")

#: Address-stream builders: ``build(spec, *, seed) -> AddressStream``.
ADDRESS_STREAMS: Registry = Registry("address stream", builtins="repro.scenario.builders")
