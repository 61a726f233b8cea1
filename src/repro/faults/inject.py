"""Deterministic fault injection: one hash decides every fault.

The seeding contract
--------------------

Every fault decision is a *pure function* of ``(plan.seed, site, key)``:

    fired  ⇔  sha256(f"{seed}:{site}:{key}")[:8] / 2**64  <  rate(site)

No RNG state is carried between decisions, so the schedule is

* **call-order free** — threads, shards, and retries can probe sites in
  any interleaving and get the same answers;
* **partition invariant** for sites whose keys name logical work (a
  telemetry batch is keyed ``e{epoch}:{home}``, a job attempt
  ``{job_id}:a{attempt}``) — the same seed fires the same faults across
  jobs counts, shard sizes, and executors;
* **reproducible** — re-running with the same plan replays the exact
  fault schedule, which is what lets the fault-matrix suite assert
  bit-identical schedules and final digests.

Sites whose keys name *execution shape* (a series frame exists only
when the fleet shards across processes) are deterministic per shape rather than
across shapes; ``docs/faults.md`` tabulates which is which.

Activation
----------

An injector is installed process-wide with :func:`fault_scope` (the
execution layer wraps every spec run in one, see ``repro.api.run.run``
and ``repro.service.worker.execute_job``); sites look it up with
:func:`get_injector` — a single module-global read when no plan is
active, which is why the disabled-injector overhead is unmeasurable
(the ``faults`` bench group keeps it under 1%).  :func:`last_injector`
keeps the most recent injector alive after the run so tests can
inspect the realized schedule.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.faults.plan import SITES, FaultPlan


class InjectedFault(RuntimeError):
    """Raised at an injection site to simulate a crash (``worker.crash``)."""

    def __init__(self, site: str, key: str):
        super().__init__(f"injected fault at {site} ({key})")
        self.site = site
        self.key = key


class FaultInjector:
    """Stateless-hash fault decisions for one :class:`FaultPlan`.

    The only mutable state is bookkeeping: occurrence counters (so a
    site can key repeated probes of the same object distinctly) and the
    set of decisions that fired (the realized *schedule*).  Both are
    lock-guarded, so sites may probe from worker threads.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, str], int] = {}
        self._fired: dict[tuple[str, str], bool] = {}

    def _unit(self, site: str, key: str) -> float:
        """The decision variate in ``[0, 1)`` for ``(site, key)``."""
        text = f"{self.plan.seed}:{site}:{key}"
        digest = hashlib.sha256(text.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def fire(self, site: str, key: str) -> bool:
        """Whether the fault at ``(site, key)`` fires under this plan.

        Pure in ``(seed, site, key)``; fired decisions are recorded in
        :meth:`schedule` (re-probing the same pair records it once).
        """
        if site not in SITES:
            raise KeyError(f"unknown injection site {site!r}")
        rate = self.plan.rate_of(site)
        if rate <= 0.0:
            return False
        fired = self._unit(site, key) < rate
        if fired:
            with self._lock:
                self._fired[(site, key)] = True
        return fired

    def delay_epochs(self, key: str) -> int:
        """How many epochs late a delayed telemetry batch arrives.

        In ``1..plan.max_delay_epochs``, derived from an independent
        hash of the same key so the extent is as reproducible as the
        decision itself.
        """
        span = max(int(self.plan.max_delay_epochs), 1)
        text = f"{self.plan.seed}:telemetry.delay:{key}:extent"
        digest = hashlib.sha256(text.encode()).digest()
        return 1 + int.from_bytes(digest[:8], "big") % span

    def occurrence(self, site: str, key: str) -> int:
        """The 0-based count of probes of ``(site, key)`` so far.

        Lets a site distinguish repeated operations on the same object
        (e.g. successive reads of one cache digest) without any global
        ordering assumption beyond the site's own call sequence.
        """
        with self._lock:
            n = self._counters.get((site, key), 0)
            self._counters[(site, key)] = n + 1
            return n

    def schedule(self, prefix: str = "") -> tuple[tuple[str, str], ...]:
        """The realized fault schedule: sorted, deduplicated decisions.

        ``prefix`` filters by site (e.g. ``"telemetry."`` for the
        partition-invariant telemetry subset).
        """
        with self._lock:
            pairs = [pair for pair in self._fired if pair[0].startswith(prefix)]
        return tuple(sorted(pairs))

    def schedule_digest(self, prefix: str = "") -> str:
        """SHA-256 fingerprint of :meth:`schedule` for equality locks."""
        payload = repr(self.schedule(prefix)).encode()
        return hashlib.sha256(payload).hexdigest()


_ACTIVE: Optional[FaultInjector] = None
_LAST: Optional[FaultInjector] = None


def get_injector() -> Optional[FaultInjector]:
    """The process-wide active injector, or ``None`` on clean runs."""
    return _ACTIVE


def last_injector() -> Optional[FaultInjector]:
    """The most recently activated injector (survives its scope).

    Test hook: after a faulted run returns, the realized schedule is
    still inspectable here even though the scope already deactivated.
    """
    return _LAST


@contextmanager
def fault_scope(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultInjector]]:
    """Activate a fault plan for the duration of a ``with`` block.

    ``None`` or a disabled plan (all rates zero) activates nothing.
    Re-entering with the *same* plan reuses the active injector, so an
    outer run scope and an inner worker scope share one schedule and
    one set of occurrence counters.
    """
    global _ACTIVE, _LAST
    if plan is None or not plan.enabled:
        yield None
        return
    if _ACTIVE is not None and _ACTIVE.plan == plan:
        yield _ACTIVE
        return
    previous = _ACTIVE
    injector = FaultInjector(plan)
    _ACTIVE = injector
    _LAST = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous
