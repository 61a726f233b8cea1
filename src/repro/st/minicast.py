"""MiniCast — many-to-many data sharing over concurrent floods (ref [7]).

MiniCast organises one *round* as a TDMA sequence of Glossy floods, one per
participating node.  In its flood slot, a node disseminates its current data
item (here: the DI's device status and any pending user requests); all other
nodes decode it.  After a full round every node holds every node's items —
the all-to-all sharing the paper's Communication Plane relies on
(Figure 1: "MiniCast period = 2 sec").

The real protocol additionally aggregates several items per packet; the
``aggregation`` parameter folds ``aggregation`` node items into one flood,
shortening the round the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.radio.energy import EnergyMeter
from repro.radio.medium import FloodMedium
from repro.st.glossy import FloodResult, GlossyConfig, run_flood


@dataclass
class MiniCastConfig:
    """Round parameters for the all-to-all share."""

    flood: GlossyConfig = field(default_factory=GlossyConfig)
    #: how many node items ride in one flood packet
    aggregation: int = 2
    #: gap between consecutive floods in the round, seconds
    inter_flood_gap: float = 0.5e-3


@dataclass
class RoundOutcome:
    """Everything one MiniCast round produced."""

    #: ``delivered[origin]`` = set of nodes that decoded origin's item
    delivered: dict[int, set[int]] = field(default_factory=dict)
    #: individual flood results, in TDMA order
    floods: list[FloodResult] = field(default_factory=list)
    duration: float = 0.0

    def reached(self, origin: int, node: int) -> bool:
        """Did ``node`` obtain ``origin``'s item this round?"""
        return node == origin or node in self.delivered.get(origin, ())

    def delivery_ratio(self, nodes: Sequence[int]) -> float:
        """Fraction of (origin, receiver) pairs served this round."""
        n = len(nodes)
        if n < 2:
            return 1.0
        got = sum(len(self.delivered.get(o, ())) for o in nodes)
        return got / (n * (n - 1))


class MiniCast:
    """Executes all-to-all sharing rounds at flood-slot granularity."""

    def __init__(self, medium: FloodMedium,
                 config: Optional[MiniCastConfig] = None):
        self.medium = medium
        self.config = config or MiniCastConfig()

    def round_duration(self, n_participants: int) -> float:
        """Worst-case on-air length of one round with ``n_participants``."""
        floods = -(-n_participants // max(self.config.aggregation, 1))
        flood_len = self.config.flood.max_slots * self.config.flood.slot_length
        return floods * (flood_len + self.config.inter_flood_gap)

    def run_round(self, participants: Iterable[int],
                  energy: Optional[dict[int, EnergyMeter]] = None,
                  ) -> RoundOutcome:
        """Run one full round among ``participants``.

        With ``aggregation = k``, participants are grouped k-at-a-time; the
        group's first member initiates the flood carrying every group
        member's item, so a decoded flood delivers all k items.  (The real
        protocol exchanges items within the group in earlier rounds; the
        grouping here preserves the round length and delivery behaviour.)

        ``energy`` maps node id to its meter; each participant is charged
        listening for the whole round minus its own transmit slots.
        """
        nodes = sorted(set(participants))
        outcome = RoundOutcome()
        agg = max(self.config.aggregation, 1)
        elapsed = 0.0
        for i in range(0, len(nodes), agg):
            group = nodes[i:i + agg]
            initiator = group[0]
            flood = run_flood(self.medium, initiator, nodes,
                              self.config.flood)
            outcome.floods.append(flood)
            receivers = flood.receivers
            for origin in group:
                # Group members other than the initiator already hold their
                # own item; everyone that decoded the flood gains them all.
                outcome.delivered[origin] = (
                    receivers | set(group)) - {origin}
            elapsed += flood.duration + self.config.inter_flood_gap
        outcome.duration = elapsed
        if energy is not None and outcome.floods:
            self._charge(outcome.floods, nodes, energy)
        return outcome

    def _charge(self, floods: list[FloodResult], nodes: list[int],
                energy: dict[int, EnergyMeter]) -> None:
        """Charge every flood of a round to every node's meter at once.

        Each node pays its transmit slots as TX and the rest of each
        flood as RX.  Per meter and state the additions happen flood by
        flood, in flood order (a cumulative sum down the flood axis), so
        the tallies are bit-identical to adding one flood at a time.
        """
        meters = [energy[node] for node in nodes]
        if len({id(meter) for meter in meters}) != len(meters):
            raise ValueError("every participant needs its own EnergyMeter")
        slot = self.config.flood.slot_length
        counts = np.array([[flood.tx_counts.get(node, 0) for node in nodes]
                           for flood in floods])
        durations = np.array([[flood.duration] for flood in floods])
        tx_time = counts * slot
        rx_time = np.maximum(durations - tx_time, 0.0)
        for state, charge in (("tx", tx_time), ("rx", rx_time)):
            start = [meter.seconds[state] for meter in meters]
            totals = np.cumsum(np.vstack([start, charge]), axis=0)[-1]
            for meter, total in zip(meters, totals.tolist()):
                meter.seconds[state] = total


PayloadProvider = Callable[[int], object]
