"""The ``faults`` spec section: a declarative, seeded fault schedule.

A :class:`FaultPlan` names *how often* each injection site misbehaves
and the root ``seed`` every fault decision derives from.  It is plain
frozen data — the same shape as every other
:class:`~repro.api.spec.ExperimentSpec` section — so a fault schedule
rides inside the spec JSON, hashes into the spec's content address, and
reproduces bit-identically on any executor (see
:class:`repro.faults.inject.FaultInjector` for the seeding contract).

All rates are probabilities in ``[0, 1]``; a plan with every rate at
``0.0`` is *disabled* and injects nothing (the injector is never even
activated, so the overhead on clean runs is one attribute check).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

#: Injection sites, mapped to the :class:`FaultPlan` field holding each
#: site's rate.  Keys are the ``site`` strings passed to
#: :meth:`repro.faults.inject.FaultInjector.fire`.
SITES = {
    "worker.crash": "worker_crash",
    "worker.lease": "lease_expiry",
    "transport.frame": "frame_loss",
    "cache.corrupt": "cache_corrupt",
    "telemetry.drop": "telemetry_drop",
    "telemetry.delay": "telemetry_delay",
    "telemetry.dup": "telemetry_dup",
}


@dataclass(frozen=True)
class FaultPlan:
    """Per-site fault rates plus the root seed of the fault schedule.

    * ``worker_crash`` — a worker raises mid-job before publishing
      (exercises queue retries and attempt budgets);
    * ``lease_expiry`` — a worker finishes the work but dies before
      publishing, so its lease expires and another worker takes over
      (exercises exactly-once publication);
    * ``frame_loss`` — a cross-process shard's series frame is lost
      when the parent unpacks it (exercises the
      ``FrameUnavailableError`` in-process re-execution fallback);
    * ``cache_corrupt`` — a stored artifact reads back corrupt
      (exercises the discard-and-recompute path);
    * ``telemetry_drop`` / ``telemetry_delay`` / ``telemetry_dup`` —
      a home's per-epoch telemetry batch is lost, arrives up to
      ``max_delay_epochs`` epochs late, or is journaled twice
      (exercises the online plane's degradation ladder).
    """

    seed: int = 0
    worker_crash: float = 0.0
    lease_expiry: float = 0.0
    frame_loss: float = 0.0
    cache_corrupt: float = 0.0
    telemetry_drop: float = 0.0
    telemetry_delay: float = 0.0
    telemetry_dup: float = 0.0
    max_delay_epochs: int = 2

    def rate_of(self, site: str) -> float:
        """The configured rate of one injection site (see :data:`SITES`)."""
        return float(getattr(self, SITES[site]))

    @property
    def enabled(self) -> bool:
        """Whether any site has a non-zero rate (else the plan is inert)."""
        return any(self.rate_of(site) > 0.0 for site in SITES)


#: Names of the rate-carrying float fields (everything except ``seed``
#: and ``max_delay_epochs``) — the validator and spec serializer coerce
#: exactly these to float.
RATE_FIELDS = tuple(f.name for f in fields(FaultPlan)
                    if f.name not in ("seed", "max_delay_epochs"))
