"""Each process imports only the layers it runs.

The results store, ``repro serve``, the report renderers and the CLI's
parser never simulate, so importing them must load neither the simulator
nor numpy.  Package ``__init__``s resolve their public names on first use
(:mod:`repro._lazy`).  Every check here runs in a fresh interpreter, because
this process has long since imported everything:

* the light entry points leave the simulator and numpy out of
  ``sys.modules``, and the store, the service and the CLI's parser leave
  out the scenario spec and registry, the simulation config and the
  scenario and campaign catalogs;
* every public name of a lazy package still resolves, by attribute, by
  ``from package import *`` and in ``dir()``;
* the registries that import side effects fill list their built-ins on the
  first lookup, with the same keys and unknown-name errors as ever;
* a pool worker holds the whole simulator, and not the service, before
  its first task.

Nothing from ``repro`` is imported at module level.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The simulator: its packages and modules, and their submodules.
SIMULATOR = (
    "repro.system",
    "repro.sim.engine",
    "repro.memctrl",
    "repro.noc",
    "repro.dram",
    "repro.cores",
    "repro.core",
    "repro.traffic",
    "repro.runner.executor",
    "repro.runner.pool",
    "repro.runner.sweep",
)

#: Packages whose ``__init__`` resolves its public names on first use, with
#: the number of names each exports.
LAZY_PACKAGES = {
    "repro": 47,
    "repro.analysis": 15,
    "repro.campaign": 29,
    "repro.dvfs": 14,
    "repro.runner": 25,
    "repro.scenario": 31,
    "repro.sim": 21,
}


def _fresh(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter and return its stdout."""
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


#: The scenario layer's spec, registry and config, which validating or
#: serving a recorded manifest never needs.
SCENARIO_LAYERS = ("repro.scenario.spec", "repro.scenario.registry", "repro.sim.config")

#: The campaign and scenario catalogs, which only the handlers that load a
#: campaign or a scenario need.
CATALOGS = ("repro.campaign.catalog", "repro.campaign.spec", "repro.scenario.catalog")


def _loaded_after(code: str):
    """The modules a fresh interpreter holds after running ``code``."""
    return json.loads(
        _fresh(f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    )


def _heavy(modules):
    """numpy and the simulator modules among ``modules``."""
    return [
        name
        for name in modules
        if name == "numpy"
        or any(name == root or name.startswith(root + ".") for root in SIMULATOR)
    ]


class TestLightEntryPoints:
    @pytest.mark.parametrize(
        "code",
        [
            "import repro",
            "import repro.serve",
            "import repro.store",
            "import repro.obs",
            "import repro.version",
            "import repro.campaign.report",
            "import repro.analysis.metrics",
            "import repro.cli; repro.cli.build_parser()",
        ],
    )
    def test_loads_neither_the_simulator_nor_numpy(self, code):
        assert _heavy(_loaded_after(code)) == []

    @pytest.mark.parametrize(
        "code, absent",
        [
            ("import repro.serve", SCENARIO_LAYERS),
            ("import repro.store", SCENARIO_LAYERS),
            (
                "import repro.cli; repro.cli.build_parser()",
                SCENARIO_LAYERS + CATALOGS + ("repro.dvfs.governor",),
            ),
        ],
        ids=["serve", "store", "cli-parser"],
    )
    def test_loads_no_scenario_or_campaign_layer(self, code, absent):
        loaded = set(_loaded_after(code))
        assert [name for name in absent if name in loaded] == []


PUBLIC_NAMES_PROBE = """
import importlib, json, sys

name = sys.argv[1]
package = importlib.import_module(name)
listed = dir(package)
star = {}
exec(f"from {name} import *", star)
report = {
    "all": list(package.__all__),
    "missing_from_dir": [n for n in package.__all__ if n not in listed],
    "missing_from_star": [n for n in package.__all__ if n not in star],
    "star_differs": [n for n in package.__all__ if getattr(package, n) is not star.get(n)],
}
try:
    package.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


class TestLazyPackages:
    @pytest.mark.parametrize("package", sorted(LAZY_PACKAGES))
    def test_every_public_name_resolves(self, package):
        report = json.loads(_fresh(PUBLIC_NAMES_PROBE, package))
        assert len(report["all"]) == LAZY_PACKAGES[package]
        assert report["missing_from_dir"] == []
        assert report["missing_from_star"] == []
        assert report["star_differs"] == []
        assert report["unknown"] == f"module '{package}' has no attribute 'no_such_name'"

    def test_top_level_names_are_the_defining_objects(self):
        out = _fresh(
            "import repro\n"
            "from repro.runner.sweep import run_sweep\n"
            "from repro.system.experiment import run_experiment\n"
            "from repro.version import __version__\n"
            "print(repro.run_sweep is run_sweep, repro.run_experiment is run_experiment,"
            " repro.__version__ == __version__)"
        )
        assert out.split() == ["True", "True", "True"]


REGISTRIES_PROBE = """
import json
from repro.scenario.registry import ADDRESS_STREAMS, TRAFFIC_MODELS, WORKLOADS

report = {
    "workloads": WORKLOADS.names(),
    "traffic_models": TRAFFIC_MODELS.names(),
    "address_streams": ADDRESS_STREAMS.names(),
}
for key, registry in (("workload_error", WORKLOADS), ("traffic_error", TRAFFIC_MODELS)):
    try:
        registry.get("camcorde")
    except ValueError as exc:
        report[key] = str(exc)
from repro.dvfs.governor import available_governors
from repro.memctrl.policies import available_policies
from repro.scenario import available_scenarios

report["policies"] = sorted(available_policies())
report["governors"] = sorted(available_governors())
report["scenarios"] = sorted(available_scenarios())
print(json.dumps(report))
"""


class TestRegistries:
    def test_first_lookup_lists_the_builtins(self):
        report = json.loads(_fresh(REGISTRIES_PROBE))
        assert report == {
            "workloads": [
                "ar_glasses",
                "camcorder",
                "inline",
                "latency_bandwidth_stress",
                "manycore_streaming",
            ],
            "traffic_models": ["constant", "frame_burst", "poisson"],
            "address_streams": ["random", "sequential", "strided"],
            "workload_error": (
                "unknown workload 'camcorde' (known: ar_glasses, camcorder, inline, "
                "latency_bandwidth_stress, manycore_streaming) — did you mean 'camcorder'?"
            ),
            "traffic_error": (
                "unknown traffic model 'camcorde' (known: constant, frame_burst, poisson)"
            ),
            "policies": [
                "atlas",
                "edf",
                "fcfs",
                "fr_fcfs",
                "frame_rate_qos",
                "priority_qos",
                "priority_rowbuffer",
                "round_robin",
                "sms",
                "tcm",
            ],
            "governors": [
                "conservative",
                "ondemand",
                "performance",
                "powersave",
                "priority_pressure",
            ],
            "scenarios": [
                "ar_glasses",
                "case_a",
                "case_b",
                "latency_bandwidth_stress",
                "manycore_streaming",
            ],
        }

    def test_a_first_registration_still_collides_with_a_builtin(self):
        out = _fresh(
            "from repro.scenario.registry import WORKLOADS\n"
            "try:\n"
            "    WORKLOADS.register('camcorder', object())\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        assert out.strip() == (
            "workload 'camcorder' is already registered (pass replace=True to override)"
        )


class TestPoolWorker:
    def test_worker_imports_the_simulator_before_its_first_task(self):
        # A forked worker holds whatever its driver held, so the driver is a
        # fresh interpreter that never imported the service: the simulator
        # stack the worker sees is what WorkerPool.start() imported.
        out = _fresh(
            "import json, os, sys\n"
            "from repro.runner import WorkerPool\n"
            "def loaded(_):\n"
            "    return os.getpid(), sorted(sys.modules)\n"
            "with WorkerPool(1) as pool:\n"
            "    startup_s = pool.start()\n"
            "    session = pool.session()\n"
            "    session.submit(loaded, None)\n"
            "    (outcome,) = list(session.outcomes())\n"
            "assert outcome.error is None, outcome.error\n"
            "pid, modules = outcome.value\n"
            "print(json.dumps([pid != os.getpid(), startup_s, modules]))\n"
        )
        in_worker, startup_s, modules = json.loads(out)
        assert in_worker
        assert startup_s > 0.0
        loaded = set(modules)
        assert {"repro.system.builder", "repro.sim.engine", "numpy"} <= loaded
        assert "repro.serve" not in loaded
