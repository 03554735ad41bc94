"""The router against a rebuild-scan reference router.

:class:`~repro.noc.router.Router` keeps its candidates in a columnar store,
arbitrates through the policy's selector where one exists, and bypasses the
store when it is idle and empty.  The reference below is the plainest router
that works: one arrival-order deque, a candidate list rebuilt on every
arbitration, a linear removal, and every decision made by
``self.arbiter.select``.  It is installed by patching ``Router`` in
``repro.noc.topology`` and ``repro.noc.mesh``, which the tree and mesh
builders look up at call time.  A full system run under each router must
produce an equal result, NPI trace included, for every built-in policy on
both topologies.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

import pytest

import repro.noc.mesh as mesh_module
import repro.noc.topology as topology_module
from repro.analysis.serialize import experiment_result_to_dict
from repro.memctrl.transaction import Transaction
from repro.noc.mesh import MeshTopology
from repro.noc.router import Router
from repro.scenario import resolve_scenario
from repro.sim.clock import MS
from repro.sim.config import KNOWN_ARBITRATIONS
from repro.system.builder import build_system
from repro.system.experiment import run_experiment

SHORT_PS = 2 * MS // 5


class RebuildScanRouter(Router):
    """One deque, candidate list rebuilt per arbitration, arbiter.select."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._waiting: Deque[Transaction] = deque()

    def receive(self, transaction: Transaction) -> None:
        self._waiting.append(transaction)
        self._try_forward()

    def kick(self) -> None:
        self._try_forward()

    def occupancy(self) -> int:
        return len(self._waiting)

    def _try_forward(self) -> None:
        if self._busy or self._sink is None:
            return
        candidates = list(self._waiting)
        if not candidates:
            return
        if self._gate is not None and not self._gate():
            self.stalled_attempts += 1
            return
        chosen = self.arbiter.select(candidates, self.engine.now_ps)
        self._waiting.remove(chosen)
        self._busy = True
        finish_ps = self.output_link.reserve(self.engine.now_ps, chosen.size_bytes)
        self.engine.schedule_at(finish_ps + self.latency_ps, self._deliver, chosen)

    def _deliver(self, transaction: Transaction) -> None:
        self.forwarded_packets += 1
        self.forwarded_bytes += transaction.size_bytes
        self._busy = False
        self._sink(transaction)
        self._try_forward()


#: The mesh runs behind a 16-entry scheduler window, as the benchmark's
#: ``scalar_fallback`` campaign does.
MESH_SETTINGS = {
    "platform.sim.noc.topology": "mesh",
    "platform.sim.memory_controller.scheduler_window_entries": 16,
}


def _result(policy: str, settings=None):
    system = build_system(
        resolve_scenario(
            "case_b",
            policy=policy,
            duration_ps=SHORT_PS,
            traffic_scale=0.2,
            settings=settings,
        )
    )
    result = run_experiment(system=system, keep_trace=True)
    return experiment_result_to_dict(result, include_trace=True), system.network.topology


#: Every built-in policy on the tree (ids: the policy) and on the mesh.
CASES = [pytest.param(policy, None, id=policy) for policy in sorted(KNOWN_ARBITRATIONS)] + [
    pytest.param(policy, MESH_SETTINGS, id=f"mesh-{policy}")
    for policy in sorted(KNOWN_ARBITRATIONS)
]


@pytest.mark.parametrize("policy, settings", CASES)
def test_matches_rebuild_scan_router(policy, settings, monkeypatch):
    columnar, topology = _result(policy, settings)
    assert isinstance(topology, MeshTopology) == (settings is not None)
    assert not any(isinstance(router, RebuildScanRouter) for router in topology.routers())
    monkeypatch.setattr(topology_module, "Router", RebuildScanRouter)
    monkeypatch.setattr(mesh_module, "Router", RebuildScanRouter)
    reference, topology = _result(policy, settings)
    routers = topology.routers()
    assert routers and all(type(router) is RebuildScanRouter for router in routers)
    assert columnar == reference
