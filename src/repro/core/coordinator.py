"""Per-DI agents: Communication-Plane endpoints + Execution-Plane actuators.

:class:`CoordinatedAgent` implements the paper's scheme: announce requests
over the CP, run the deterministic scheduler on the shared view after every
round, and drive the appliance along the agreed plan in the EP.

The agent structure mirrors the paper's two-plane split (§II):

* CP side — :meth:`cp_payload` / :meth:`cp_deliver` plug into a
  :class:`~repro.st.rounds.CpApplication` driver;
* EP side — :meth:`execution_plane` is a simulation process executing the
  claimed bursts (stagger mode) or walking the slot grid (grid mode).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.core.scheduler import AdmissionDecision, SchedulerConfig, \
    plan_admissions
from repro.core.state import CpItem, DeviceStatus, SharedView
from repro.han.appliance import Type2Appliance
from repro.han.requests import RequestAnnouncement, RequestState, UserRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class DeviceAgentBase:
    """Shared bookkeeping: demand queue, status versioning, EP executor."""

    def __init__(self, sim: "Simulator", device: Type2Appliance,
                 config: SchedulerConfig):
        self.sim = sim
        self.device = device
        self.config = config
        self.device_id = device.device_id
        self.view = SharedView()
        self._version = 0
        self._active = False
        self._slot: Optional[int] = None
        self._next_burst: Optional[float] = None
        self._remaining = 0
        self._last_admitted = 0
        #: own requests, for latency/completion metrics
        self.requests: dict[int, UserRequest] = {}
        #: FIFO of [request_id, cycles_left] attributing bursts to requests
        self._burst_queue: deque[list[int]] = deque()
        #: optional observer (the owning system) told when this DI turns
        #: dirty — lets CP rounds skip idle agents without calling them
        self._on_dirty = None
        self._dirty = True
        self._wake = None
        self.view.merge_item(self.item())

    # -- status ------------------------------------------------------------------

    def status(self) -> DeviceStatus:
        """Current shareable status snapshot."""
        return DeviceStatus(
            device_id=self.device_id,
            version=self._version,
            active=self._active,
            remaining_cycles=self._remaining,
            assigned_slot=self._slot,
            power_w=self.device.power_w,
            last_admitted_request=self._last_admitted,
            burst_start=self._next_burst)

    def item(self) -> CpItem:
        """Status plus own unadmitted announcements (subclass hook)."""
        return CpItem(self.status())

    def _mark_dirty(self) -> None:
        """Flag a fresh shareable state (and tell the observer, if any)."""
        self._dirty = True
        if self._on_dirty is not None:
            self._on_dirty(self.device_id)

    @property
    def cp_pending(self) -> bool:
        """True when the next non-healing ``cp_payload`` would share."""
        return self._dirty

    def _bump_status(self) -> None:
        self._version += 1
        self._mark_dirty()
        self.view.merge_item(self.item())

    @property
    def is_active(self) -> bool:
        """True while the device still owes admitted execution cycles."""
        return self._active

    @property
    def remaining_cycles(self) -> int:
        """Admitted ``minDCD`` cycles not yet executed."""
        return self._remaining

    @property
    def assigned_slot(self) -> Optional[int]:
        """Claimed slot position (grid mode), None when inactive."""
        return self._slot

    # -- demand bookkeeping ----------------------------------------------------------

    def _enqueue_demand(self, request_id: int, cycles: int,
                        extends: bool = False) -> None:
        self._remaining += cycles
        self._burst_queue.append([request_id, cycles])
        request = self.requests.get(request_id)
        if request is not None:
            request.state = RequestState.ADMITTED
            request.admitted_at = self.sim.now
            request.extended_existing = extends

    def _account_burst(self, started_at: float) -> None:
        """Attribute one completed burst to the oldest open request."""
        self._remaining -= 1
        if not self._burst_queue:
            return
        head = self._burst_queue[0]
        request = self.requests.get(head[0])
        if request is not None and request.first_burst_at is None:
            request.first_burst_at = started_at
            request.state = RequestState.RUNNING
        head[1] -= 1
        if head[1] == 0:
            self._burst_queue.popleft()
            if request is not None:
                request.state = RequestState.COMPLETED
                request.completed_at = self.sim.now

    # -- applying scheduler decisions --------------------------------------------------

    def _apply_decision(self, decision: AdmissionDecision) -> None:
        """Adopt one admission decision concerning this device."""
        extends = self._active
        if not self._active:
            self._active = True
            if self.config.mode == "grid":
                self._slot = decision.slot if decision.slot is not None else 0
            else:
                self._next_burst = decision.start_time \
                    if decision.start_time is not None else self.sim.now
        self._enqueue_demand(decision.request_id, decision.demand_cycles,
                             extends=extends)
        self._last_admitted = max(self._last_admitted, decision.request_id)
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _finish_if_done(self) -> None:
        if self._remaining == 0:
            self._active = False
            self._slot = None
            self._next_burst = None

    # -- execution plane ------------------------------------------------------------

    def execution_plane(self):
        """Process executing the device's claimed bursts."""
        if self.config.mode == "grid":
            yield from self._ep_grid()
        else:
            yield from self._ep_stagger()

    def _ep_stagger(self):
        """Run each claimed burst at its claimed start (stagger mode)."""
        spec = self.config.spec
        while True:
            if not self._active or self._next_burst is None:
                self._wake = self.sim.event()
                yield self._wake
                self._wake = None
                continue
            delay = self._next_burst - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
                continue  # re-check: the claim may have moved meanwhile
            burst_start = self.sim.now
            self.device.turn_on()
            yield self.sim.timeout(spec.min_dcd)
            self.device.turn_off()
            self._account_burst(burst_start)
            if self._remaining > 0:
                # Recur one maxDCP after the claimed start: exactly one
                # burst per period, as the guarantee requires.
                self._next_burst = burst_start + spec.max_dcp
            else:
                self._finish_if_done()
            self._bump_status()

    def _ep_grid(self):
        """Walk the slot grid; burst whenever the owned slot comes up.

        Visits every slot start exactly once (``handled`` guards against
        double-handling and against skipping a slot whose start coincides
        with the end of the previous burst).
        """
        grid = self.config.make_grid()
        spec = self.config.spec
        handled: Optional[tuple[int, int]] = None
        while True:
            ref, start = self._upcoming_slot(grid, handled)
            if start > self.sim.now:
                yield self.sim.timeout(start - self.sim.now)
            handled = (ref.epoch, ref.slot)
            if (self._active and self._remaining > 0
                    and self._slot == ref.slot):
                burst_start = self.sim.now
                self.device.turn_on()
                yield self.sim.timeout(spec.min_dcd)
                self.device.turn_off()
                self._account_burst(burst_start)
                self._finish_if_done()
                self._bump_status()

    _BOUNDARY_EPS = 1e-6

    def _upcoming_slot(self, grid, handled):
        """Next slot to visit: the one starting now (if unvisited) or next."""
        ref = grid.slot_of(self.sim.now)
        start = grid.slot_start(ref)
        at_boundary = abs(start - self.sim.now) < self._BOUNDARY_EPS
        if at_boundary and (ref.epoch, ref.slot) != handled:
            return ref, self.sim.now
        return grid.next_slot_boundary(self.sim.now)


class CoordinatedAgent(DeviceAgentBase):
    """The paper's decentralized collaborative load manager."""

    def __init__(self, sim: "Simulator", device: Type2Appliance,
                 config: SchedulerConfig):
        # Set before super().__init__, which snapshots item() into the view.
        self._announcements: list[RequestAnnouncement] = []
        super().__init__(sim, device, config)

    def item(self) -> CpItem:
        return CpItem(self.status(), tuple(self._announcements))

    # -- user side -------------------------------------------------------------

    def on_request(self, request: UserRequest) -> None:
        """A user pressed the button on this DI."""
        self.requests[request.request_id] = request
        announcement = RequestAnnouncement.of(request,
                                              power_w=self.device.power_w)
        self._announcements.append(announcement)
        self.view.merge_item(CpItem(self.status(), (announcement,)))
        self._mark_dirty()

    # -- CP application interface ----------------------------------------------------

    @property
    def cp_pending(self) -> bool:
        """Dirty, or still announcing unadmitted requests every round."""
        return self._dirty or bool(self._announcements)

    def cp_payload(self, node: int, round_index: int) -> Optional[CpItem]:
        """This DI's :class:`~repro.core.state.CpItem` for the round.

        Returns ``None`` when nothing changed since the last share (the
        :class:`~repro.st.rounds.SampledCP` driver skips such rounds);
        ``round_index == -1`` marks a healing round and always shares.
        """
        if round_index == -1 or self._dirty or self._announcements:
            self._dirty = False
            return self.item()
        return None

    def cp_deliver(self, node: int, packets: dict[int, CpItem],
                   round_index: int) -> None:
        """Fold a round's received items into the view, then admit.

        The admission pass (:func:`~repro.core.scheduler.plan_admissions`)
        is a pure function of the merged
        :class:`~repro.core.state.SharedView`, so DIs holding equal views
        derive equal plans — the decentralized-yet-coherent property the
        paper's scheme rests on.
        """
        self.view.merge_items(packets.values())
        self._run_admission()

    # -- scheduling -------------------------------------------------------------------

    def _run_admission(self) -> None:
        """Admit visible pending requests; apply only this device's share."""
        if not self.view.pending:
            return
        # Only decisions for *this* device are ever applied, and an
        # admission order with none of our announcements cannot produce
        # one (planning is pure) — skip the whole pass.  This is the
        # common case: another device's announcement lingers in our view
        # for a round until its owner's updated status clears it.
        own = self.device_id
        if all(announcement.device_id != own
               for announcement in self.view.pending.values()):
            return
        decisions = plan_admissions(self.view, self.config, self.sim.now)
        mine = [d for d in decisions if d.device_id == self.device_id]
        if not mine:
            return
        for decision in mine:
            self._apply_decision(decision)
        self._announcements = [
            a for a in self._announcements
            if a.request_id > self._last_admitted]
        self._bump_status()
