"""The paper's contribution: collaborative decentralized load management."""

from repro.core.baselines import (
    CentralController,
    CentralizedAgent,
    UncoordinatedAgent,
)
from repro.core.coordinator import CoordinatedAgent, DeviceAgentBase
from repro.core.scheduler import (
    AdmissionDecision,
    SchedulerConfig,
    decisions_for_device,
    plan_admissions,
    slot_loads,
)
from repro.core.state import CpItem, DeviceStatus, SharedView
from repro.core.system import (
    FIDELITIES,
    POLICIES,
    HanConfig,
    HanSystem,
    TOPOLOGIES,
    RunResult,
    execute_config,
    make_topology,
)

__all__ = [
    "AdmissionDecision",
    "CentralController",
    "CentralizedAgent",
    "CoordinatedAgent",
    "CpItem",
    "DeviceAgentBase",
    "DeviceStatus",
    "FIDELITIES",
    "HanConfig",
    "HanSystem",
    "POLICIES",
    "RunResult",
    "SchedulerConfig",
    "SharedView",
    "TOPOLOGIES",
    "UncoordinatedAgent",
    "decisions_for_device",
    "execute_config",
    "make_topology",
    "plan_admissions",
    "slot_loads",
]
