"""Shared state exchanged over the Communication Plane.

Every DI shares a :class:`CpItem` — its device's current
:class:`DeviceStatus` plus any not-yet-admitted :class:`RequestAnnouncement`
items that arrived locally.  Each DI folds received items into a
:class:`SharedView`; statuses are versioned per device, so stale or
reordered deliveries never regress the view (merge is idempotent and
commutative — the property tests rely on this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.han.requests import RequestAnnouncement

#: serialized footprint of a status on the radio, bytes
STATUS_WIRE_BYTES: int = 14


@dataclass(frozen=True)
class DeviceStatus:
    """One device's coordination-relevant state, as shared with all DIs.

    Exactly one of ``assigned_slot`` (grid scheduling mode) or
    ``burst_start`` (stagger mode — absolute time of the next claimed
    burst) is meaningful while the device is active.
    """

    device_id: int
    version: int
    active: bool
    remaining_cycles: int
    assigned_slot: Optional[int]
    power_w: float
    #: highest request id this device has admitted (clears announcements)
    last_admitted_request: int = 0
    #: absolute start of the next claimed ON burst (stagger mode)
    burst_start: Optional[float] = None

    def __post_init__(self) -> None:
        if self.remaining_cycles < 0:
            raise ValueError("remaining_cycles cannot be negative")
        if self.active and self.assigned_slot is None \
                and self.burst_start is None:
            raise ValueError("active devices must claim a slot or a start")


@dataclass(frozen=True)
class CpItem:
    """One DI's payload for a Communication-Plane round."""

    status: DeviceStatus
    announcements: tuple[RequestAnnouncement, ...] = ()

    @property
    def wire_bytes(self) -> int:
        """Approximate serialized size, for radio airtime accounting."""
        return (STATUS_WIRE_BYTES
                + RequestAnnouncement.WIRE_BYTES * len(self.announcements))


@dataclass
class SharedView:
    """A DI's best knowledge of every device and outstanding request."""

    statuses: dict[int, DeviceStatus] = field(default_factory=dict)
    pending: dict[int, RequestAnnouncement] = field(default_factory=dict)

    def merge_item(self, item: CpItem) -> bool:
        """Fold one received payload in; True if anything changed."""
        changed = self._merge_status(item.status)
        for announcement in item.announcements:
            if self._admittable(announcement):
                if announcement.request_id not in self.pending:
                    self.pending[announcement.request_id] = announcement
                    changed = True
        return changed

    def merge_items(self, items: Iterable[CpItem]) -> bool:
        """Fold several payloads; True if anything changed."""
        changed = False
        for item in items:
            changed |= self.merge_item(item)
        return changed

    def _merge_status(self, status: DeviceStatus) -> bool:
        existing = self.statuses.get(status.device_id)
        if existing is not None and existing.version >= status.version:
            # Stale (or duplicate) status: keep the newer one, but still
            # prune any pending announcements the kept status covers, so
            # merge stays order-insensitive.
            self._clear_admitted(existing)
            return False
        self.statuses[status.device_id] = status
        self._clear_admitted(status)
        return True

    def _admittable(self, announcement: RequestAnnouncement) -> bool:
        status = self.statuses.get(announcement.device_id)
        if status is None:
            return True
        return announcement.request_id > status.last_admitted_request

    def _clear_admitted(self, status: DeviceStatus) -> None:
        stale = [rid for rid, ann in self.pending.items()
                 if ann.device_id == status.device_id
                 and rid <= status.last_admitted_request]
        for rid in stale:
            del self.pending[rid]

    # -- queries --------------------------------------------------------------

    def plan_key(self) -> tuple[tuple, tuple]:
        """``(statuses_part, pending_part)`` — everything planning reads.

        Full value tuples, so hash collisions degrade to dict probes,
        never wrong plans.
        """
        return (tuple(sorted(self.statuses.items())),
                tuple(sorted(self.pending.items())))

    def active_statuses(self) -> list[DeviceStatus]:
        """Devices currently executing (sorted by id, deterministic)."""
        return sorted((s for s in self.statuses.values() if s.active),
                      key=lambda s: s.device_id)

    def pending_ordered(self) -> list[RequestAnnouncement]:
        """Outstanding requests in the paper's one-by-one admission order."""
        return sorted(self.pending.values(), key=lambda a: a.sort_key)

    def status_of(self, device_id: int) -> Optional[DeviceStatus]:
        return self.statuses.get(device_id)

    def consistency_digest(self) -> int:
        """Hash of the coordination-relevant content.

        Two DIs with equal digests are guaranteed to derive identical
        schedules; tests use this to measure view convergence.
        """
        status_part = tuple(sorted(
            (s.device_id, s.version, s.active, s.remaining_cycles,
             s.assigned_slot, s.last_admitted_request, s.burst_start)
            for s in self.statuses.values()))
        pending_part = tuple(sorted(self.pending))
        return hash((status_part, pending_part))
