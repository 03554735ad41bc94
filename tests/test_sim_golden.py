"""Golden result digests, and the in-code references the simulator must match.

The simulator is pinned two ways:

* **Golden digests.** ``tests/fixtures/golden_digests.json`` holds the sha256
  of ``json.dumps(experiment_result_to_dict(result, include_trace=True),
  sort_keys=True)`` for every bundled scenario x every built-in policy x both
  DRAM models at smoke settings, plus ``case_a`` at full traffic for every
  policy (full traffic is what fills arbitration windows beyond
  :data:`LARGE_WINDOW` candidates), plus ``case_b`` at full traffic on a
  mesh NoC behind a 16-entry scheduler window for every policy and both
  DRAM models (the only rows that build a mesh or bound the window).  Every
  row runs :class:`~repro.memctrl.controller.MemoryController`, the
  columnar controller.  Any change to any NPI sample, priority distribution,
  counter or average moves a digest.
* **References.** Two slower code paths are swapped in and must give equal
  full result dictionaries:

  - *selectors vs policies*: ``make_selector`` patched to return ``None``
    in the memory controller and the NoC router, so every decision goes
    through the policy's own ``select()`` — the path ATLAS, TCM, SMS and
    EDF always take;
  - *columnar vs queue-based controller*: the builder's
    ``MemoryController`` replaced by ``QueueController`` from
    ``tests/queue_reference.py``, which keeps its own candidate index and
    reads row state from the DRAM banks.

  Each reference test asserts that the reference was actually built, and
  on its full-traffic tree rows that the normal run made decisions among
  more than :data:`LARGE_WINDOW` candidates.

Regenerate the fixture only when a change is *meant* to move results::

    PYTHONPATH=src python tests/test_sim_golden.py
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

import repro.memctrl.controller as controller_module
import repro.noc.router as router_module
import repro.system.builder as builder_module
from queue_reference import QueueController
from repro.analysis.serialize import experiment_result_to_dict
from repro.memctrl.columnar import ColumnarStore
from repro.memctrl.controller import MemoryController
from repro.noc.mesh import MeshTopology
from repro.scenario import builtin_scenario_paths, resolve_scenario
from repro.sim.clock import MS
from repro.sim.config import KNOWN_ARBITRATIONS
from repro.system.builder import System, build_system
from repro.system.experiment import run_experiment

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "golden_digests.json"
GENERATOR = "PYTHONPATH=src python tests/test_sim_golden.py"

DURATION_PS = MS // 8
SMOKE_TRAFFIC = 0.1
FULL_TRAFFIC = 1.0
DRAM_MODELS = ("transaction", "command")
POLICIES = tuple(sorted(KNOWN_ARBITRATIONS))

#: The policies whose router selectors do more than take the oldest
#: candidate, so large router windows exercise their scans.
ROUTER_SCAN_POLICIES = ("frame_rate_qos", "priority_qos", "priority_rowbuffer", "round_robin")

#: Live candidates above which a decision window counts as large: the
#: full-traffic reference rows must make such decisions, the smoke rows
#: never do.
LARGE_WINDOW = 64

#: What a row marked ``mesh`` adds to its scenario.
MESH_WINDOW_SETTINGS = {
    "platform.sim.noc.topology": "mesh",
    "platform.sim.memory_controller.scheduler_window_entries": 16,
}

#: (scenario, policy, dram_model, traffic_scale, mesh)
Row = Tuple[str, str, str, float, bool]


def golden_rows() -> List[Row]:
    rows = [
        (scenario, policy, dram_model, SMOKE_TRAFFIC, False)
        for scenario in sorted(builtin_scenario_paths())
        for policy in POLICIES
        for dram_model in DRAM_MODELS
    ]
    rows += [("case_a", policy, "transaction", FULL_TRAFFIC, False) for policy in POLICIES]
    rows += [
        ("case_b", policy, dram_model, FULL_TRAFFIC, True)
        for policy in POLICIES
        for dram_model in DRAM_MODELS
    ]
    return rows


#: Rows the two references are checked on: every policy at smoke traffic,
#: the router-scan policies at full traffic, where windows grow large, and
#: QoS-RB, which reads the open rows a refresh closes, on the command-level
#: model, at smoke traffic and on a mesh behind a bounded window.
REFERENCE_ROWS: List[Row] = (
    [("case_b", policy, "transaction", SMOKE_TRAFFIC, False) for policy in POLICIES]
    + [
        ("case_a", policy, "transaction", FULL_TRAFFIC, False)
        for policy in ROUTER_SCAN_POLICIES
    ]
    + [
        ("case_b", "priority_rowbuffer", "command", SMOKE_TRAFFIC, False),
        ("case_b", "priority_rowbuffer", "command", FULL_TRAFFIC, True),
    ]
)


def row_id(row: Row) -> str:
    scenario, policy, dram_model, traffic, mesh = row
    suffix = "-mesh-w16" if mesh else ""
    return f"{scenario}-{policy}-{dram_model}-{traffic:g}{suffix}"


def build(row: Row) -> System:
    scenario, policy, dram_model, traffic, mesh = row
    return build_system(
        resolve_scenario(
            scenario,
            policy=policy,
            duration_ps=DURATION_PS,
            traffic_scale=traffic,
            dram_model=dram_model,
            settings=MESH_WINDOW_SETTINGS if mesh else None,
        )
    )


def result_dict(system: System) -> dict:
    return experiment_result_to_dict(
        run_experiment(system=system, keep_trace=True), include_trace=True
    )


def digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def load_fixture() -> Dict[str, object]:
    with open(FIXTURE) as handle:
        return json.load(handle)


def write_fixture() -> int:
    """Rerun every golden row and rewrite the fixture; returns the row count."""
    digests = {row_id(row): digest(result_dict(build(row))) for row in golden_rows()}
    payload = {
        "generator": GENERATOR,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "duration_ps": DURATION_PS,
        "digest_of": (
            "json.dumps(experiment_result_to_dict(result, include_trace=True), "
            "sort_keys=True)"
        ),
        "digests": digests,
    }
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    with open(FIXTURE, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return len(digests)


def test_fixture_covers_every_row():
    assert sorted(load_fixture()["digests"]) == sorted(map(row_id, golden_rows()))


@pytest.mark.parametrize("row", golden_rows(), ids=row_id)
def test_digest(row):
    expected = load_fixture()["digests"][row_id(row)]
    system = build(row)
    assert type(system.controller) is MemoryController
    if row[4]:
        assert isinstance(system.network.topology, MeshTopology)
    assert digest(result_dict(system)) == expected, (
        f"{row_id(row)} moved; if that is intended, regenerate with: {GENERATOR}"
    )


def _normal_run(row: Row, monkeypatch) -> dict:
    """The default build's result, and proof that the row reaches the paths
    its reference is there for: on full-traffic tree rows, decisions among
    more than :data:`LARGE_WINDOW` candidates; on mesh rows, arrivals held
    back beyond the scheduler window; on command-model rows, refreshes.

    The router and the columnar controller call ``remove_index`` once per
    store decision, with the chosen candidate still counted live.
    """
    large_windows = []
    held_back = []
    remove_index = ColumnarStore.remove_index
    enqueue = MemoryController.enqueue

    def counting_remove_index(store, index):
        if store.live > LARGE_WINDOW:
            large_windows.append(store.live)
        return remove_index(store, index)

    def counting_enqueue(controller, transaction):
        if controller._class_occupancy[transaction.queue_class] >= controller._window:
            held_back.append(transaction.uid)
        return enqueue(controller, transaction)

    monkeypatch.setattr(ColumnarStore, "remove_index", counting_remove_index)
    monkeypatch.setattr(MemoryController, "enqueue", counting_enqueue)
    system = build(row)
    expected = result_dict(system)
    monkeypatch.undo()
    _, _, dram_model, traffic, mesh = row
    if mesh:
        assert held_back, f"{row_id(row)} never held an arrival beyond its window"
    elif traffic == FULL_TRAFFIC:
        assert large_windows, (
            f"{row_id(row)} never chose among more than {LARGE_WINDOW} candidates"
        )
    if dram_model == "command":
        assert system.dram.refreshes_issued() > 0
    return expected


@pytest.mark.parametrize("row", REFERENCE_ROWS, ids=row_id)
def test_no_selectors(row, monkeypatch):
    """Selectors vs the policies' own select()."""
    expected = _normal_run(row, monkeypatch)

    def no_selector(*args, **kwargs):
        return None

    monkeypatch.setattr(controller_module, "make_selector", no_selector)
    monkeypatch.setattr(router_module, "make_selector", no_selector)
    system = build(row)
    assert system.controller._selector is None
    assert all(router._selector is None for router in system.network.topology.routers())
    assert result_dict(system) == expected


@pytest.mark.parametrize("row", REFERENCE_ROWS, ids=row_id)
def test_queue_controller(row, monkeypatch):
    """The columnar controller vs the queue-based one."""
    expected = _normal_run(row, monkeypatch)
    monkeypatch.setattr(builder_module, "MemoryController", QueueController)
    system = build(row)
    assert type(system.controller) is QueueController
    assert result_dict(system) == expected


if __name__ == "__main__":
    count = write_fixture()
    print(f"wrote {count} digests to {FIXTURE}")
