"""Seeded, deterministic fault injection across the execution stack.

The plane has two halves:

* :class:`~repro.faults.plan.FaultPlan` — the declarative spec section
  (per-site rates + root seed) that rides inside an
  :class:`~repro.api.spec.ExperimentSpec`;
* :class:`~repro.faults.inject.FaultInjector` — the runtime that turns
  the plan into pure-hash fault decisions, activated per run with
  :func:`~repro.faults.inject.fault_scope`.

Injection sites live where the real failure would: worker crash /
lease expiry in :mod:`repro.service.worker`, shard frame loss in
:mod:`repro.neighborhood.transport`, artifact corruption in
:mod:`repro.api.cache`, and telemetry drop/delay/duplicate storms in
:mod:`repro.neighborhood.online`.  See ``docs/faults.md`` for the
seeding contract, the degradation ladder, and the invariant table.
"""

from repro.faults.inject import (
    FaultInjector,
    InjectedFault,
    fault_scope,
    get_injector,
    last_injector,
)
from repro.faults.plan import RATE_FIELDS, SITES, FaultPlan

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "RATE_FIELDS",
    "SITES",
    "fault_scope",
    "get_injector",
    "last_injector",
]
