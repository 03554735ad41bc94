"""Package re-exports resolved on first use (PEP 562).

Importing any module runs the ``__init__`` of every package above it, so a
package ``__init__`` that imported every submodule it re-exports would make
``import repro.serve`` load the simulator and numpy.  Instead, a package
names the submodule each public name lives in, and :func:`lazy_exports`
builds the module-level ``__getattr__`` and ``__dir__`` that import it on
first access::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "spec": ("Campaign", "CampaignError"),
        "scheduler": ("CampaignScheduler",),
    })

``from package import name``, ``from package import *`` and attribute
access all go through ``__getattr__``; the resolved value is then bound in
the package namespace, so every later access is a plain attribute read.
"""

from __future__ import annotations

import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule path relative to ``package`` (``"spec"``,
    ``"sim.config"``) to the names re-exported from it.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        qualified = f"{package}.{module}"
        # ``__import__``, the import statement's own machinery, so that
        # ``python -X importtime`` lists the module (``importlib.import_module``
        # bypasses its log).
        __import__(qualified)
        value = getattr(sys.modules[qualified], name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, sorted(origin)
