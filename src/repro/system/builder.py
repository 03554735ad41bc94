"""Assembles a full simulated MPSoC from a declarative scenario."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.core.framework import SaraFramework
from repro.core.npi import make_meter
from repro.core.priority import PriorityLookupTable
from repro.cores import create_core
from repro.cores.base import Core, Dma
from repro.dram.cmdsim.device import CommandLevelDram
from repro.dram.device import DramDevice
from repro.memctrl.controller import MemoryController
from repro.memctrl.policies import make_policy
from repro.noc.network import Network
from repro.scenario import ADDRESS_STREAMS, TRAFFIC_MODELS, Scenario, resolve_scenario
from repro.sim.config import NocConfig, SimulationConfig
from repro.sim.engine import Engine
from repro.system.platform import cluster_specs_for
from repro.traffic.camcorder import CamcorderWorkload

#: Policies that carry the SARA priority adaptation end to end.
PRIORITY_POLICIES = ("priority_qos", "priority_rowbuffer")


@dataclass
class System:
    """A fully wired simulated platform, ready to run."""

    engine: Engine
    config: SimulationConfig
    workload: CamcorderWorkload
    policy_name: str
    adaptation_enabled: bool
    dram: DramDevice
    controller: MemoryController
    network: Network
    framework: SaraFramework
    scenario: Optional[Scenario] = None
    cores: Dict[str, Core] = field(default_factory=dict)
    dmas: Dict[str, Dma] = field(default_factory=dict)

    def run(self, duration_ps: Optional[int] = None) -> None:
        """Start every DMA and the monitoring loop, then run to the horizon."""
        horizon = duration_ps or self.config.duration_ps
        self.framework.start(stop_ps=horizon)
        for dma in self.dmas.values():
            dma.start(stop_ps=horizon)
        self.engine.run(until_ps=horizon)

    def core(self, name: str) -> Core:
        try:
            return self.cores[name]
        except KeyError:
            raise KeyError(f"unknown core '{name}'") from None

    def dram_bandwidth_bytes_per_s(self) -> float:
        """Average DRAM bandwidth delivered over the simulated duration."""
        elapsed = max(1, self.engine.now_ps)
        return self.dram.average_bandwidth_bytes_per_s(elapsed)


def build_system(
    scenario: Union[str, Scenario] = "case_a",
    policy: Optional[str] = None,
    config: Optional[SimulationConfig] = None,
    workload: Optional[CamcorderWorkload] = None,
    traffic_scale: Optional[float] = None,
    adaptation_enabled: Optional[bool] = None,
    dram_freq_mhz: Optional[float] = None,
    dram_model: Optional[str] = None,
) -> System:
    """Build a complete simulated MPSoC from a scenario.

    Parameters
    ----------
    scenario:
        A scenario name from the catalog (``repro scenarios list``), a path
        to a ``.json``/``.toml`` scenario file, or a :class:`Scenario`.
    policy:
        Memory-controller and NoC arbitration policy (registry name);
        defaults to the scenario's declared policy.
    config:
        Replace the scenario's simulation configuration wholesale.
    workload:
        Explicit pre-built workload; defaults to the scenario's workload,
        resolved through the workload registry.
    traffic_scale:
        Linear scale on all offered traffic (only used when ``workload`` is
        not supplied).
    adaptation_enabled:
        Force SARA adaptation on or off.  By default adaptation follows the
        scenario, falling back to "enabled exactly for the priority-based
        policies", matching the paper's setup.
    dram_freq_mhz:
        Override the DRAM I/O frequency (used by the Fig. 7 DVFS sweep).
    dram_model:
        DRAM backend: "transaction" (fast transaction-level model) or
        "command" (DRAMSim2-style command-level model with refresh).
    """
    if dram_model is not None and dram_model not in ("transaction", "command"):
        raise ValueError(
            f"unknown dram_model '{dram_model}' (known: transaction, command)"
        )
    spec = resolve_scenario(
        scenario,
        policy=policy,
        config=config,
        traffic_scale=traffic_scale,
        adaptation_enabled=adaptation_enabled,
        dram_freq_mhz=dram_freq_mhz,
        dram_model=dram_model,
    )
    config = spec.simulation_config()
    if workload is None:
        workload = spec.build_workload()
    policy = spec.policy
    adaptation = spec.adaptation_enabled
    if adaptation is None:
        adaptation = policy in PRIORITY_POLICIES

    engine = Engine()
    if spec.platform.dram_model == "transaction":
        dram: DramDevice = DramDevice(config.dram, sim_scale=config.sim_scale)
    else:  # "command" — the platform spec already validated the name
        dram = CommandLevelDram(config.dram, sim_scale=config.sim_scale)
    controller = MemoryController(
        engine, dram, make_policy(policy), config.memory_controller
    )
    noc_config = NocConfig(
        link_bytes_per_ns=config.noc.link_bytes_per_ns,
        router_latency_ns=config.noc.router_latency_ns,
        arbitration=policy,
        topology=config.noc.topology,
        mesh_columns=config.noc.mesh_columns,
    )
    network = Network(
        engine,
        cluster_specs_for(
            workload,
            spec.platform.cluster_links_bytes_per_ns,
            spec.platform.default_cluster_link_bytes_per_ns,
        ),
        config=noc_config,
        root_link_bytes_per_ns=spec.platform.root_link_bytes_per_ns,
    )
    network.set_sink(controller.enqueue)
    # Back-pressure: the root router only forwards while the memory controller
    # has a free entry (Table 1: 42 entries).  The excess backlog therefore
    # waits inside the NoC routers — whose switch arbiters reorder by priority
    # — instead of piling up inside the controller and tripping the aging
    # backstop, which would collapse priority scheduling into round-robin.
    network.topology.root.set_gate(controller.has_space)
    controller.add_space_listener(network.topology.root.kick)
    framework = SaraFramework(
        engine,
        adaptation_interval_ps=config.adaptation_interval_ps,
        adaptation_enabled=adaptation,
        priority_bits=config.priority_bits,
    )

    system = System(
        engine=engine,
        config=config,
        workload=workload,
        policy_name=policy,
        adaptation_enabled=adaptation,
        dram=dram,
        controller=controller,
        network=network,
        framework=framework,
        scenario=spec,
    )

    for dma_spec in workload.dmas:
        if dma_spec.core not in system.cores:
            system.cores[dma_spec.core] = create_core(
                dma_spec.core, cluster=dma_spec.cluster, queue_class=dma_spec.queue_class
            )
        meter = make_meter(
            meter_type=dma_spec.meter,
            average_bytes_per_s=dma_spec.bytes_per_s,
            frame_period_ps=workload.frame_period_ps,
            target_bytes_per_s=dma_spec.target_bytes_per_s,
            latency_limit_ns=dma_spec.latency_limit_ns,
            window_ps=dma_spec.window_ps,
        )
        dma = Dma(
            name=dma_spec.name,
            core=dma_spec.core,
            queue_class=dma_spec.queue_class,
            is_write=dma_spec.is_write,
            transaction_bytes=dma_spec.transaction_bytes,
            generator=TRAFFIC_MODELS.get(dma_spec.traffic)(
                dma_spec, frame_period_ps=workload.frame_period_ps, seed=config.seed
            ),
            addresses=ADDRESS_STREAMS.get(dma_spec.address_pattern)(
                dma_spec, seed=config.seed
            ),
            meter=meter,
            max_outstanding=dma_spec.max_outstanding,
        )
        dma.connect(engine, network.inject)
        controller.register_dma(dma.name, dma.on_complete)
        framework.attach(
            dma,
            table=PriorityLookupTable.for_meter_type(dma_spec.meter, config.priority_bits),
        )
        system.cores[dma_spec.core].add_dma(dma)
        system.dmas[dma.name] = dma

    return system
