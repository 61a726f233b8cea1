"""Shared-medium models.

Two media cover the two communication paradigms in the paper:

* :class:`FloodMedium` — slot-synchronous model for Synchronous-Transmission
  protocols (Glossy/MiniCast).  All transmitters in a slot send the *same*
  packet within sub-µs offsets, so signals combine (constructive
  interference / capture) instead of colliding.
* :class:`CsmaMedium` — continuous-time model for the traditional
  Asynchronous-Transmission stack: overlapping different frames interfere,
  with SINR-based capture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.radio.channel import (
    Channel,
    mw_to_dbm,
    prr_from_sinr,
    prr_steps,
)
from repro.radio.packet import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class FloodMedium:
    """Reception model for slot-synchronous concurrent transmissions.

    A slot is evaluated for all its listeners at once over the channel's
    mW table, bit-identically to evaluating each listener on its own:
    combined power is accumulated row by row in sender order (a
    cumulative sum over the sender axis, which is Python's left-to-right
    ``sum`` per listener — a NumPy reduction is not), PRR comes from
    :class:`~repro.radio.channel.PrrSteps`, and one
    ``Generator.random(k)`` call yields the same doubles, in the same
    order and with the same final generator state, as ``k`` scalar
    draws.
    """

    def __init__(self, channel: Channel, rng: np.random.Generator):
        self.channel = channel
        self.rng = rng

    def combined_power_mw(self, senders: Sequence[int]) -> list[float]:
        """Power of the ``senders`` (at least one) combined at every node.

        Summed row by row in sender order — per node, Python's
        left-to-right ``sum`` — as one cumulative sum down the sender
        axis of the mW table.
        """
        table = self.channel.rx_power_mw_table
        if len(senders) == 1:
            return table[senders[0]].tolist()
        return table[list(senders)].cumsum(axis=0)[-1].tolist()

    def reception_probabilities(self, senders: Sequence[int],
                                listeners: Sequence[int],
                                psdu_bytes: int) -> list[float]:
        """Probability that each listener decodes a synchronized slot.

        All ``senders`` transmit the identical packet: their powers add at
        the receiver (non-coherent combining), de-rated per extra sender to
        account for carrier-frequency beating (``ci_derating``).
        """
        if not len(senders):
            return [0.0] * len(listeners)
        combined = self.combined_power_mw(senders)
        config = self.channel.config
        derating = config.ci_derating ** (len(senders) - 1)
        return prr_steps(config, psdu_bytes).prrs(combined, listeners,
                                                  derating)

    def reception_probability(self, receiver: int, senders: Sequence[int],
                              psdu_bytes: int) -> float:
        """:meth:`reception_probabilities` of a single receiver."""
        return self.reception_probabilities(senders, [receiver],
                                            psdu_bytes)[0]

    def flood_slot(self, senders: Sequence[int], listeners: Iterable[int],
                   psdu_bytes: int) -> set[int]:
        """Simulate one slot; returns the listeners that decoded the packet.

        Listeners with a non-zero probability draw one uniform each, in
        listener order; the others draw nothing.
        """
        listeners = list(listeners)
        probs = self.reception_probabilities(senders, listeners, psdu_bytes)
        hearing = [(node, p) for node, p in zip(listeners, probs) if p > 0.0]
        if not hearing:
            return set()
        draws = self.rng.random(len(hearing)).tolist()
        return {node for (node, p), u in zip(hearing, draws) if u < p}


@dataclass
class Transmission:
    """One in-flight frame on the CSMA medium."""

    frame: Frame
    source: int
    start: float
    end: float
    #: transmissions whose airtime overlapped this one at any point
    interferers: list["Transmission"] = field(default_factory=list)


class CsmaMedium:
    """Continuous-time broadcast medium with SINR-based capture.

    Nodes register a ``listener`` callback; when a frame's airtime ends the
    medium decides per receiver whether it decodes, based on the SINR
    against every transmission that overlapped the frame, then invokes the
    callback.
    """

    def __init__(self, sim: "Simulator", channel: Channel,
                 rng: np.random.Generator):
        self.sim = sim
        self.channel = channel
        self.rng = rng
        self._active: list[Transmission] = []
        self._listeners: dict[int, Callable[[Frame, float], None]] = {}
        #: node ids currently transmitting (cannot receive meanwhile)
        self._transmitting: set[int] = set()
        # statistics
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost_interference = 0
        self.frames_lost_noise = 0

    # -- registration -----------------------------------------------------------

    def register(self, node: int,
                 callback: Callable[[Frame, float], None]) -> None:
        """Attach ``node``'s reception callback."""
        self._listeners[node] = callback

    def unregister(self, node: int) -> None:
        """Detach a node (e.g. crash injection)."""
        self._listeners.pop(node, None)

    # -- carrier sensing ----------------------------------------------------------

    def channel_busy(self, node: int) -> bool:
        """Would a CCA at ``node`` report the channel busy right now?"""
        if not self._active:
            return False
        rows = self.channel.rx_power_mw_rows
        energy_mw = self.channel.noise_mw + sum(
            rows[t.source][node] for t in self._active)
        return mw_to_dbm(energy_mw) >= self.channel.config.cca_threshold_dbm

    # -- transmission -----------------------------------------------------------

    def transmit(self, source: int, frame: Frame):
        """Process: occupy the medium for the frame's airtime, then deliver.

        Use as ``yield from medium.transmit(node_id, frame)`` from a node
        process.  Reception outcomes are evaluated at end of frame.
        """
        start = self.sim.now
        transmission = Transmission(frame, source, start,
                                    start + frame.airtime)
        for other in self._active:
            other.interferers.append(transmission)
            transmission.interferers.append(other)
        self._active.append(transmission)
        self._transmitting.add(source)
        self.frames_sent += 1
        try:
            yield self.sim.timeout(frame.airtime)
        finally:
            self._active.remove(transmission)
            self._transmitting.discard(source)
        self._deliver(transmission)

    def _deliver(self, transmission: Transmission) -> None:
        frame = transmission.frame
        source = transmission.source
        if frame.is_broadcast:
            receivers = list(self._listeners.items())
        else:
            # Real receivers drop frames for others after address filter;
            # only the destination is evaluated.
            callback = self._listeners.get(frame.destination)
            receivers = ([] if callback is None
                         else [(frame.destination, callback)])
        channel = self.channel
        config = channel.config
        signal_dbm = channel.rx_power_dbm_rows[source]
        interferer_ids = [t.source for t in transmission.interferers]
        interferer_mw = [channel.rx_power_mw_rows[i] for i in interferer_ids]
        for node, callback in receivers:
            if node == source:
                continue
            if node in self._transmitting:
                continue  # half-duplex: transmitters cannot receive
            rx_dbm = signal_dbm[node]
            if rx_dbm < config.sensitivity_dbm:
                continue  # inaudible
            if interferer_ids:
                # Co-channel capture: the frame survives concurrent
                # *different* transmissions only with a clear power
                # advantage (same-packet combining is FloodMedium's job).
                interference_mw = sum(row[node] for row in interferer_mw)
                if interference_mw > 0.0:
                    sir_db = rx_dbm - mw_to_dbm(interference_mw)
                    if sir_db < config.capture_threshold_db:
                        self.frames_lost_interference += 1
                        continue
            sinr = channel.sinr_db(node, source, interferer_ids)
            p = prr_from_sinr(sinr, frame.psdu_bytes)
            if self.rng.random() < p:
                self.frames_delivered += 1
                callback(frame, rx_dbm)
            elif interferer_ids:
                self.frames_lost_interference += 1
            else:
                self.frames_lost_noise += 1
