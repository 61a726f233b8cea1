"""Glossy-style concurrent flooding — the ST primitive under MiniCast.

A flood proceeds in radio slots: the initiator transmits in slot 0; every
node that decodes the packet in slot *s* retransmits it in slot *s + 1*,
until each node has transmitted ``n_tx`` times or ``max_slots`` elapse.
Because all transmitters send the identical packet nearly simultaneously,
receivers exploit constructive interference and capture rather than
suffering collisions (see :class:`repro.radio.medium.FloodMedium`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.radio.medium import FloodMedium
from repro.radio.phy import frame_airtime

#: Software/processing gap between consecutive flood slots, seconds.
SLOT_PROCESSING_GAP: float = 200e-6


@dataclass(frozen=True)
class GlossyConfig:
    """Flood parameters.

    Attributes:
        n_tx: transmissions each node performs per flood.
        max_slots: hard bound on flood length, slots.
        payload_bytes: application payload carried in the flood packet.
        header_bytes: flood header (relay counter, initiator id, type).
    """

    n_tx: int = 3
    max_slots: int = 24
    payload_bytes: int = 16
    header_bytes: int = 4

    @property
    def psdu_bytes(self) -> int:
        """PHY payload: flood header + app payload + MAC overhead."""
        return 9 + self.header_bytes + self.payload_bytes + 2

    @property
    def slot_length(self) -> float:
        """Length of one flood slot, seconds."""
        return frame_airtime(self.psdu_bytes) + SLOT_PROCESSING_GAP


@dataclass
class FloodResult:
    """Outcome of one flood."""

    initiator: int
    #: first slot index in which each node decoded the packet
    first_rx_slot: dict[int, int] = field(default_factory=dict)
    #: transmissions performed per node
    tx_counts: dict[int, int] = field(default_factory=dict)
    slots_used: int = 0
    duration: float = 0.0

    @property
    def receivers(self) -> set[int]:
        """Nodes (excluding the initiator) that decoded the packet."""
        return set(self.first_rx_slot)

    def hop_count(self, node: int) -> Optional[int]:
        """Flood-slot distance of ``node`` from the initiator."""
        if node == self.initiator:
            return 0
        slot = self.first_rx_slot.get(node)
        return None if slot is None else slot + 1

    def latency(self, node: int, config: GlossyConfig) -> Optional[float]:
        """Time from flood start until ``node`` decoded (seconds)."""
        if node == self.initiator:
            return 0.0
        slot = self.first_rx_slot.get(node)
        if slot is None:
            return None
        return (slot + 1) * config.slot_length


def run_flood(medium: FloodMedium, initiator: int,
              participants: Iterable[int],
              config: GlossyConfig = GlossyConfig()) -> FloodResult:
    """Simulate one Glossy flood at slot granularity.

    ``participants`` are the alive nodes taking part (must include the
    initiator).  Returns per-node first-reception slots and transmit counts;
    the caller charges energy from these and ``config.slot_length``.
    """
    nodes = set(participants)
    if initiator not in nodes:
        raise ValueError(f"initiator {initiator} not among participants")

    result = FloodResult(initiator=initiator)
    first_rx_slot = result.first_rx_slot
    n_tx = config.n_tx
    psdu_bytes = config.psdu_bytes
    tx_counts: dict[int, int] = {n: 0 for n in nodes}
    #: nodes that will transmit in the current slot
    transmitters: set[int] = {initiator}

    slot = 0
    while transmitters and slot < config.max_slots:
        # Listeners in set-iteration order: the order they draw in.
        listeners = [n for n in nodes
                     if n not in transmitters and tx_counts[n] < n_tx]
        received = medium.flood_slot(sorted(transmitters), listeners,
                                     psdu_bytes)
        for node in transmitters:
            tx_counts[node] += 1
        for node in received:
            if node not in first_rx_slot and node != initiator:
                first_rx_slot[node] = slot
        # Glossy: the initiator alternates TX/RX slots until its budget ends.
        if tx_counts[initiator] < n_tx:
            if initiator in transmitters:
                received.discard(initiator)
            else:
                received.add(initiator)
        transmitters = {n for n in received if tx_counts[n] < n_tx}
        slot += 1

    result.tx_counts = tx_counts
    result.slots_used = slot
    result.duration = slot * config.slot_length
    return result
