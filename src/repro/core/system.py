"""Top-level system composition: build, run and measure a whole HAN.

:class:`HanSystem` wires the simulation kernel, the radio substrate, a
Communication-Plane driver, one agent per Device Interface and the workload
generator, then runs the experiment and returns a :class:`RunResult` with
everything the analysis layer needs.

Policies:

* ``"coordinated"``   — the paper's decentralized scheme (MiniCast CP).
* ``"uncoordinated"`` — free-running duty cycles (Figure 2's baseline).
* ``"centralized"``   — same algorithm at a single controller, reports and
  schedules carried by the AT stack (or direct calls under ``"ideal"``).

CP fidelities: ``"ideal"``, ``"round"`` (calibrated sampling — default) and
``"slot"`` (full flood simulation); see :mod:`repro.st.rounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.analysis.loadstats import LoadStats, load_stats
from repro.core.baselines import (
    CentralController,
    CentralizedAgent,
    UncoordinatedAgent,
)
from repro.core.coordinator import CoordinatedAgent, DeviceAgentBase
from repro.core.scheduler import SchedulerConfig
from repro.han.appliance import Type2Appliance
from repro.han.dutycycle import DutyCycleSpec
from repro.han.meter import SmartMeter
from repro.han.requests import UserRequest
from repro.mac.collection import CollectionNetwork, CollectionStats
from repro.radio.channel import Channel
from repro.radio.energy import EnergyMeter
from repro.radio.medium import CsmaMedium, FloodMedium
from repro.radio.phy import DEFAULT_RADIO_CONFIG, RadioConfig
from repro.radio.topology import Topology, flocklab26, grid_layout
from repro.sim.kernel import Simulator
from repro.sim.monitor import StepSeries
from repro.sim.rng import RandomStreams
from repro.st.minicast import MiniCastConfig
from repro.st.rounds import (
    CpCalibration,
    CpStats,
    IdealCP,
    SampledCP,
    SlotLevelCP,
    cached_calibration,
)
from repro.workloads.arrivals import (
    BatchArrivals,
    MmppArrivals,
    PoissonArrivals,
    fixed_demand,
)
from repro.workloads.scenarios import Scenario

POLICIES = ("coordinated", "uncoordinated", "centralized")
FIDELITIES = ("ideal", "round", "slot")
#: Topology names :func:`make_topology` resolves.
TOPOLOGIES = ("flocklab26", "grid", "line", "home")


@dataclass
class HanConfig:
    """Everything needed to reproduce one run exactly."""

    scenario: Scenario
    policy: str = "coordinated"
    cp_fidelity: str = "round"
    cp_period: float = 2.0
    seed: int = 1
    topology_name: str = "flocklab26"
    refresh_every: int = 15
    calibration_rounds: int = 20
    shadowing_sigma_db: float = 3.0
    path_loss_exponent: Optional[float] = None
    ci_derating: Optional[float] = None
    aggregation: int = 2
    controller_id: int = 0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.cp_fidelity not in FIDELITIES:
            raise ValueError(
                f"cp_fidelity must be one of {FIDELITIES}, "
                f"got {self.cp_fidelity!r}")


@dataclass
class RunResult:
    """Outputs of one complete run."""

    config: HanConfig
    load_w: StepSeries
    requests: list[UserRequest]
    horizon: float
    cp_stats: Optional[CpStats] = None
    cp_calibration: Optional[CpCalibration] = None
    st_energy: Optional[dict[int, EnergyMeter]] = None
    at_stats: Optional[CollectionStats] = None
    agents: dict[int, DeviceAgentBase] = field(default_factory=dict)
    #: Per-device ON intervals ``(on_at, off_at)`` (``off_at`` is None for a
    #: burst still open at the horizon).  Plain data, so invariant checks
    #: survive pickling across process boundaries.
    bursts: dict[int, list[tuple[float, Optional[float]]]] = \
        field(default_factory=dict)

    def stats(self, start: float = 0.0,
              end: Optional[float] = None) -> LoadStats:
        """Load statistics over ``[start, end)`` (default: whole run)."""
        return load_stats(self.load_w, start,
                          end if end is not None else self.horizon)

    def waiting_times(self) -> list[float]:
        """Arrival → first-execution delays of requests that ran."""
        return [r.waiting_time for r in self.requests
                if r.waiting_time is not None]

    def completed_requests(self) -> int:
        return sum(1 for r in self.requests if r.completed_at is not None)

    def portable(self) -> "RunResult":
        """A picklable copy for inter-process transport.

        Live agents hold simulator coroutines (unpicklable generators); every
        other field — including :attr:`bursts`, which mirrors the appliance
        switching history — is plain data, so dropping ``agents`` is the only
        information loss.
        """
        return replace(self, agents={})

    def st_energy_estimate_j(self) -> Optional[float]:
        """Mean per-node CP radio energy over the run.

        Exact for ``slot`` fidelity; for ``round`` fidelity it scales the
        calibrated per-round cost by the number of rounds (the radio runs
        every round regardless of the sampling optimisation).
        """
        if self.st_energy is not None:
            values = [m.energy_joules() for m in self.st_energy.values()]
            return float(np.mean(values)) if values else None
        if self.cp_calibration is not None and self.cp_stats is not None:
            return self.cp_calibration.round_energy_j \
                * self.cp_stats.rounds_total
        return None


class HanSystem:
    """Builder + runner for one experiment."""

    def __init__(self, config: HanConfig):
        self.config = config
        scenario = config.scenario
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        self.meter = SmartMeter(self.sim)
        self.spec = DutyCycleSpec(min_dcd=scenario.min_dcd,
                                  max_dcp=scenario.max_dcp)
        self.sched_config = SchedulerConfig(spec=self.spec)
        self.device_ids = list(range(scenario.n_devices))

        self.appliances: dict[int, Type2Appliance] = {}
        for device_id in self.device_ids:
            self.appliances[device_id] = Type2Appliance(
                self.sim, device_id, f"device-{device_id}",
                scenario.device_power_w, self.spec, meter=self.meter.gauge)

        self.topology: Optional[Topology] = None
        self.channel: Optional[Channel] = None
        self.flood_medium: Optional[FloodMedium] = None
        if config.cp_fidelity != "ideal" or config.policy == "centralized":
            self._build_radio()

        self.agents: dict[int, DeviceAgentBase] = {}
        #: DIs that may hold a fresh CpItem — a conservative superset
        #: maintained via each agent's ``_on_dirty`` observer, so CP
        #: rounds skip idle agents without even calling them (see
        #: :meth:`cp_pending_nodes`)
        self._cp_dirty: set[int] = set()
        self.cp = None
        self.controller: Optional[CentralController] = None
        self.at_network: Optional[CollectionNetwork] = None
        self.st_energy: Optional[dict[int, EnergyMeter]] = None
        self.cp_calibration: Optional[CpCalibration] = None
        if config.policy == "coordinated":
            self._build_coordinated()
        elif config.policy == "uncoordinated":
            self._build_uncoordinated()
        else:
            self._build_centralized()

        self.arrivals = self._build_arrivals()

    # -- construction ------------------------------------------------------------

    def _build_radio(self) -> None:
        radio_config = DEFAULT_RADIO_CONFIG
        if self.config.ci_derating is not None:
            radio_config = RadioConfig(
                ci_derating=self.config.ci_derating)
        self.topology = make_topology(self.config.topology_name,
                                      len(self.device_ids))
        channel_kwargs = {
            "shadowing_sigma_db": self.config.shadowing_sigma_db}
        if self.config.path_loss_exponent is not None:
            channel_kwargs["exponent"] = self.config.path_loss_exponent
        self.channel = self.topology.make_channel(
            rng=self.streams.stream("channel"), config=radio_config,
            **channel_kwargs)
        self.flood_medium = FloodMedium(self.channel,
                                        self.streams.stream("floods"))

    def _minicast_config(self) -> MiniCastConfig:
        return MiniCastConfig(aggregation=self.config.aggregation)

    def _build_coordinated(self) -> None:
        for device_id in self.device_ids:
            agent = CoordinatedAgent(self.sim, self.appliances[device_id],
                                     self.sched_config)
            self.agents[device_id] = agent
            self.sim.spawn(agent.execution_plane(), name=f"ep-{device_id}")
        self._build_cp()

    def _build_uncoordinated(self) -> None:
        for device_id in self.device_ids:
            self.agents[device_id] = UncoordinatedAgent(
                self.sim, self.appliances[device_id], self.sched_config)
        self._build_cp()

    def _watch_dirty_agents(self) -> None:
        """Subscribe to every agent's dirty flag (all start pending)."""
        for device_id, agent in self.agents.items():
            agent._on_dirty = self._cp_dirty.add
            self._cp_dirty.add(device_id)

    def _build_cp(self) -> None:
        self._watch_dirty_agents()
        fidelity = self.config.cp_fidelity
        if fidelity == "ideal":
            self.cp = IdealCP(self.sim, self, self.device_ids,
                              period=self.config.cp_period)
        elif fidelity == "round":
            self.cp_calibration = cached_calibration(
                self._calibration_key(),
                lambda: SampledCP.calibrate(
                    self.flood_medium, self.device_ids,
                    self._minicast_config(),
                    rounds=self.config.calibration_rounds))
            self.cp = SampledCP(
                self.sim, self, self.device_ids,
                self.cp_calibration.delivery_prob,
                self.streams.stream("cp-sampling"),
                period=self.config.cp_period,
                refresh_every=self.config.refresh_every,
                round_duration=self.cp_calibration.round_duration,
                round_energy_j=self.cp_calibration.round_energy_j)
        else:  # slot
            self.st_energy = {i: EnergyMeter() for i in self.device_ids}
            self.cp = SlotLevelCP(
                self.sim, self, self.device_ids, self.flood_medium,
                period=self.config.cp_period,
                minicast_config=self._minicast_config(),
                energy=self.st_energy)
        self.cp.start()

    def _calibration_key(self) -> tuple:
        """Every input :meth:`SampledCP.calibrate` reads in a round-CP home.

        The channel comes from the seed's ``channel`` stream, the
        topology and the channel arguments; the flood draws from the
        ``floods`` stream, which in round fidelity only calibration
        uses (streams are named, so other consumers cannot shift it);
        the MiniCast config from ``aggregation``.  Policy, CP period,
        refresh interval, controller and workload are not read.
        """
        config = self.config
        return (config.seed, config.topology_name, len(self.device_ids),
                config.shadowing_sigma_db, config.path_loss_exponent,
                config.ci_derating, config.aggregation,
                config.calibration_rounds)

    def _build_centralized(self) -> None:
        if self.config.cp_fidelity == "ideal":
            self._build_centralized_direct()
        else:
            self._build_centralized_at()

    def _build_centralized_direct(self) -> None:
        def disseminate(version: int, decisions: object) -> None:
            for agent in self.agents.values():
                agent.on_schedule(decisions)

        self.controller = CentralController(
            self.sched_config, disseminate, lambda: self.sim.now)

        def submit(origin: int, payload: object) -> None:
            if self.controller.alive:
                self.controller.on_report(origin, payload)

        for device_id in self.device_ids:
            agent = CentralizedAgent(self.sim, self.appliances[device_id],
                                     self.sched_config, submit)
            self.agents[device_id] = agent
            self.sim.spawn(agent.execution_plane(), name=f"ep-{device_id}")

    def _build_centralized_at(self) -> None:
        csma_medium = CsmaMedium(self.sim, self.channel,
                                 self.streams.stream("csma-medium"))
        self.at_network = CollectionNetwork(
            self.sim, self.channel, csma_medium, self.device_ids,
            sink=self.config.controller_id,
            rng_factory=lambda name: self.streams.stream(name),
            on_report=lambda report: self.controller.on_report(
                report.origin, report.payload),
            on_schedule=lambda node, bundle: self.agents[node].on_schedule(
                bundle.payload))
        self.controller = CentralController(
            self.sched_config,
            disseminate=self.at_network.disseminate,
            now=lambda: self.sim.now)
        for device_id in self.device_ids:
            agent = CentralizedAgent(
                self.sim, self.appliances[device_id], self.sched_config,
                submit=self.at_network.submit_report)
            self.agents[device_id] = agent
            self.sim.spawn(agent.execution_plane(), name=f"ep-{device_id}")

    def _build_arrivals(self):
        scenario = self.config.scenario
        sinks = {device_id: self.agents[device_id].on_request
                 for device_id in self.device_ids}
        rng = self.streams.stream("arrivals")
        demand = fixed_demand(scenario.demand_cycles)
        if scenario.arrival_kind == "poisson":
            return PoissonArrivals(self.sim, scenario.arrival_rate_per_hour,
                                   self.device_ids, sinks, rng, demand)
        if scenario.arrival_kind == "batch":
            return BatchArrivals(self.sim, scenario.arrival_rate_per_hour,
                                 self.device_ids, sinks, rng,
                                 batch_size=scenario.batch_size,
                                 demand=demand)
        if scenario.arrival_kind == "mmpp":
            return MmppArrivals(self.sim, scenario.arrival_rate_per_hour,
                                self.device_ids, sinks, rng, demand=demand)
        raise ValueError(
            f"unknown arrival kind {scenario.arrival_kind!r}")

    # -- CpApplication interface (multiplexes the per-DI agents) -----------------

    def cp_pending_nodes(self) -> set:
        """Nodes that may share a payload this round (superset, cheap).

        The CP drivers use this to skip idle DIs without a call per node
        per round; a node leaves the set only once :meth:`cp_payload`
        confirms its agent has nothing left to share, so the set can
        never under-report (skipping a node here is behaviourally
        identical to its ``cp_payload`` returning ``None``).
        """
        return self._cp_dirty

    def cp_payload(self, node: int, round_index: int):
        agent = self.agents[node]
        payload = agent.cp_payload(node, round_index)
        if not agent.cp_pending:
            self._cp_dirty.discard(node)
        return payload

    def cp_deliver(self, node: int, packets: dict, round_index: int) -> None:
        self.agents[node].cp_deliver(node, packets, round_index)

    # -- running -----------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> RunResult:
        """Run the experiment and package the results."""
        horizon = until if until is not None else self.config.scenario.horizon
        self.sim.spawn(self.arrivals.run(), name="arrivals")
        self.sim.run(until=horizon)
        return RunResult(
            config=self.config,
            load_w=self.meter.load_series_w,
            requests=list(self.arrivals.requests),
            horizon=horizon,
            cp_stats=self.cp.stats if self.cp is not None else None,
            cp_calibration=self.cp_calibration,
            st_energy=self.st_energy,
            at_stats=(self.at_network.snapshot_stats()
                      if self.at_network is not None else None),
            agents=dict(self.agents),
            bursts={device_id: [(record.on_at, record.off_at)
                                for record in appliance.history]
                    for device_id, appliance in self.appliances.items()})


def make_topology(name: str, n: int) -> Topology:
    """Resolve a topology by name, adapted to ``n`` devices."""
    if name == "flocklab26":
        base = flocklab26()
        if n == base.n:
            return base
        if n < base.n:
            return Topology(f"flocklab26-first{n}", base.positions[:n])
        # Larger fleets: extend with a grid of the same density.
        cols = math.ceil(math.sqrt(n))
        rows = math.ceil(n / cols)
        grid = grid_layout(rows, cols, spacing=18.0)
        return Topology(f"grid-{n}", grid.positions[:n])
    if name == "grid":
        cols = math.ceil(math.sqrt(n))
        rows = math.ceil(n / cols)
        grid = grid_layout(rows, cols, spacing=18.0)
        return Topology(f"grid-{n}", grid.positions[:n])
    if name == "line":
        from repro.radio.topology import linear_layout
        base = linear_layout(n, spacing=20.0)
        return base
    if name == "home":
        from repro.radio.topology import home_layout
        per_room = math.ceil(n / 6)
        layout = home_layout(3, 2, per_room)
        return Topology(f"home-{n}", layout.positions[:n])
    raise ValueError(f"unknown topology {name!r}")


def execute_config(config: HanConfig,
                   until: Optional[float] = None) -> RunResult:
    """Execute one fully-specified config: build the system, run, package.

    This is the non-deprecated execution primitive the spec API bottoms
    out in (``repro.api.run`` → ``ParallelRunner`` → here); application
    code should describe runs as :class:`~repro.api.spec.ExperimentSpec`
    and call :func:`repro.api.run.run` instead.
    """
    return HanSystem(config).run(until=until)

