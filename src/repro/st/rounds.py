"""Communication-Plane drivers.

The paper's Communication Plane (CP) runs one MiniCast round every 2 s so
that every DI holds every device's status and every pending user request
(Figure 1).  Three interchangeable drivers trade fidelity for speed:

* :class:`SlotLevelCP` — full flood-slot simulation (sync beacon + MiniCast
  round); the ground truth, used by protocol tests and microbenches.
* :class:`SampledCP` — per-round delivery sampled from a matrix *calibrated
  against the slot-level model* on the same topology; the default for the
  350-minute load experiments.
* :class:`IdealCP` — loss-free instantaneous sharing, for pure-algorithm
  unit tests.

Applications implement :class:`CpApplication`; payloads are *full current
state* (idempotent), so a missed delivery is healed by any later round.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Hashable,
    Optional,
    Protocol,
    Sequence,
)

import numpy as np

from repro.radio.clock import DriftingClock
from repro.radio.energy import EnergyMeter
from repro.radio.medium import FloodMedium
from repro.st.glossy import GlossyConfig, run_flood
from repro.st.minicast import MiniCast, MiniCastConfig
from repro.st.sync import SyncService

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class CpApplication(Protocol):
    """What the coordination layer exposes to the CP driver."""

    def cp_payload(self, node: int, round_index: int) -> Optional[object]:
        """The item ``node`` shares this round (None = nothing new)."""

    def cp_deliver(self, node: int, packets: dict[int, object],
                   round_index: int) -> None:
        """Hand ``node`` the payloads (origin → payload) it decoded."""


@dataclass
class CpStats:
    """Aggregate CP behaviour over a run."""

    rounds_total: int = 0
    rounds_active: int = 0
    deliveries: int = 0
    misses: int = 0
    duration_on_air: float = 0.0

    @property
    def delivery_ratio(self) -> float:
        attempted = self.deliveries + self.misses
        return self.deliveries / attempted if attempted else 1.0


class _CpBase:
    """Shared alive-set and periodic-tick bookkeeping."""

    #: A round with nothing to share only counts itself, so the kernel
    #: may step past it (see :meth:`_idle`); False where the radio runs
    #: every round regardless.
    quiet_rounds_are_noops = True

    def __init__(self, sim: "Simulator", app: CpApplication,
                 nodes: Sequence[int], period: float = 2.0):
        self.sim = sim
        self.app = app
        self.nodes = list(nodes)
        self.period = period
        self.alive: set[int] = set(nodes)
        self.stats = CpStats()
        self.round_index = 0
        self._ticker = None
        self._pending_nodes = getattr(app, "cp_pending_nodes", None)

    def start(self) -> None:
        """Begin periodic rounds (first round runs immediately)."""
        if self._ticker is not None:
            raise RuntimeError("CP already started")
        idle = (self._idle if self.quiet_rounds_are_noops
                and self._pending_nodes is not None else None)
        self._ticker = self.sim.every(self.period, self._tick, idle=idle)

    def fail_node(self, node: int) -> None:
        """Crash ``node``: it stops initiating, relaying and receiving."""
        self.alive.discard(node)

    def recover_node(self, node: int) -> None:
        """Bring a crashed node back into the CP."""
        if node in self.nodes:
            self.alive.add(node)

    def _tick(self) -> None:
        self._round()
        self.round_index += 1

    def _idle(self, most: int) -> int:
        """Count up to ``most`` upcoming no-op rounds as run; return how many.

        The kernel's idle hook (:meth:`repro.sim.kernel.Simulator.every`):
        the next ``most`` rounds would run before any other event, and
        ``cp_pending_nodes`` only changes inside events, so if it is
        empty now it stays empty through them.  Each such round only
        adds one to ``round_index`` and ``stats.rounds_total``.
        """
        if self._pending_nodes():
            return 0
        quiet = self._quiet_rounds(most)
        self.round_index += quiet
        self.stats.rounds_total += quiet
        return quiet

    def _quiet_rounds(self, most: int) -> int:
        """How many of the next ``most`` rounds are no-ops with no payload."""
        return most

    # -- interface for subclasses ------------------------------------------------

    def _round(self) -> None:
        raise NotImplementedError

    def _gather_payloads(self) -> dict[int, object]:
        """Fresh payloads this round, keyed by node, in ``nodes`` order.

        When the application can name the nodes that *may* share
        (``cp_pending_nodes``, a conservative superset — see
        :meth:`repro.core.system.HanSystem.cp_pending_nodes`), every
        other node is skipped without a call: on quiet rounds — the vast
        majority at CP period 2 s — gathering costs one set lookup
        instead of one call chain per node.  Behaviour is identical
        either way, because ``cp_payload`` on a non-pending node returns
        ``None`` without side effects.
        """
        payloads = {}
        app = self.app
        round_index = self.round_index
        pending = self._pending_nodes
        if pending is not None:
            candidates = pending()
            if not candidates:
                return payloads
            alive = self.alive
            for node in self.nodes:
                if node in candidates and node in alive:
                    payload = app.cp_payload(node, round_index)
                    if payload is not None:
                        payloads[node] = payload
            return payloads
        for node in self.nodes:
            if node not in self.alive:
                continue
            payload = app.cp_payload(node, round_index)
            if payload is not None:
                payloads[node] = payload
        return payloads


class IdealCP(_CpBase):
    """Loss-free, zero-latency all-to-all sharing."""

    def _round(self) -> None:
        self.stats.rounds_total += 1
        payloads = self._gather_payloads()
        if not payloads:
            return
        self.stats.rounds_active += 1
        for node in self.nodes:
            if node not in self.alive:
                continue
            packets = {origin: p for origin, p in payloads.items()}
            self.stats.deliveries += len(packets)
            self.app.cp_deliver(node, packets, self.round_index)


class SlotLevelCP(_CpBase):
    """Full-fidelity CP: sync flood + MiniCast round, slot by slot."""

    quiet_rounds_are_noops = False

    def __init__(self, sim: "Simulator", app: CpApplication,
                 nodes: Sequence[int], medium: FloodMedium,
                 period: float = 2.0,
                 minicast_config: Optional[MiniCastConfig] = None,
                 clocks: Optional[dict[int, DriftingClock]] = None,
                 sync_rng: Optional[np.random.Generator] = None,
                 energy: Optional[dict[int, EnergyMeter]] = None):
        super().__init__(sim, app, nodes, period)
        self.minicast = MiniCast(medium, minicast_config)
        self.medium = medium
        self.energy = energy
        self.sync: Optional[SyncService] = None
        if clocks is not None and sync_rng is not None:
            self.sync = SyncService(clocks, sync_rng,
                                    self.minicast.config.flood)

    def _round(self) -> None:
        self.stats.rounds_total += 1
        alive = sorted(self.alive)
        if len(alive) < 2:
            return
        # 1. sync beacon from the lowest-id alive node
        beacon = run_flood(self.medium, alive[0], alive,
                           self.minicast.config.flood)
        self.stats.duration_on_air += beacon.duration
        if self.sync is not None:
            self.sync.apply_flood(beacon)
        # 2. all-to-all share
        payloads = self._gather_payloads()
        self.stats.rounds_active += 1
        outcome = self.minicast.run_round(alive, energy=self.energy)
        self.stats.duration_on_air += outcome.duration
        for node in alive:
            packets = {origin: payload
                       for origin, payload in payloads.items()
                       if outcome.reached(origin, node)}
            self.stats.deliveries += len(packets)
            self.stats.misses += len(payloads) - len(packets)
            if packets:
                self.app.cp_deliver(node, packets, self.round_index)


class SampledCP(_CpBase):
    """Fast CP: per-pair delivery sampled from a calibrated matrix.

    The matrix ``delivery_prob[origin, receiver]`` comes from
    :meth:`calibrate`, which runs the slot-level model on the same topology.
    Rounds with no fresh payload are skipped *computationally* (state is
    idempotent and unchanged), except that every ``refresh_every`` rounds a
    full share runs anyway to heal any stale views — bounding staleness the
    way real per-round re-flooding does.
    """

    def __init__(self, sim: "Simulator", app: CpApplication,
                 nodes: Sequence[int], delivery_prob: np.ndarray,
                 rng: np.random.Generator, period: float = 2.0,
                 refresh_every: int = 15,
                 round_duration: float = 0.0,
                 round_energy_j: float = 0.0):
        super().__init__(sim, app, nodes, period)
        n = len(nodes)
        delivery_prob = np.asarray(delivery_prob, dtype=float)
        if delivery_prob.shape != (n, n):
            raise ValueError(
                f"delivery matrix must be {n}x{n}, got {delivery_prob.shape}")
        self.delivery_prob = delivery_prob
        self.rng = rng
        self.refresh_every = max(int(refresh_every), 1)
        self.round_duration = round_duration
        self.round_energy_j = round_energy_j
        self._index = {node: i for i, node in enumerate(nodes)}
        self._had_miss = False

    def _round(self) -> None:
        self.stats.rounds_total += 1
        payloads = self._gather_payloads()
        refresh_due = (self.round_index % self.refresh_every) == 0
        if not payloads and not (self._had_miss and refresh_due):
            return
        if not payloads and refresh_due:
            # Healing round: re-share current state of every alive node.
            for node in sorted(self.alive):
                payload = self.app.cp_payload(node, -1)
                if payload is not None:
                    payloads[node] = payload
            if not payloads:
                self._had_miss = False
                return
        self.stats.rounds_active += 1
        self.stats.duration_on_air += self.round_duration
        self._had_miss = False
        receivers = sorted(self.alive)
        origins = [(origin, payload,
                    self.delivery_prob[self._index[origin]].tolist())
                   for origin, payload in payloads.items()]
        # One uniform per (receiver, foreign origin) pair, in receiver
        # then origin order: drawn as one block, the same doubles as
        # one scalar draw per pair.
        draws = iter(self.rng.random(
            len(receivers) * len(origins)
            - len(payloads.keys() & set(receivers))).tolist())
        for node in receivers:
            j = self._index[node]
            packets = {}
            for origin, payload, row in origins:
                if origin == node:
                    packets[origin] = payload
                    continue
                if next(draws) < row[j]:
                    packets[origin] = payload
                    self.stats.deliveries += 1
                else:
                    self.stats.misses += 1
                    self._had_miss = True
            if packets:
                self.app.cp_deliver(node, packets, self.round_index)

    def _quiet_rounds(self, most: int) -> int:
        if not self._had_miss:
            return most
        # Stop before the next refresh-due round: it heals the miss.
        return min(most, -self.round_index % self.refresh_every)

    # -- calibration ------------------------------------------------------------

    @staticmethod
    def calibrate(medium: FloodMedium, nodes: Sequence[int],
                  minicast_config: Optional[MiniCastConfig] = None,
                  rounds: int = 30) -> "CpCalibration":
        """Measure delivery probabilities with the slot-level model."""
        minicast = MiniCast(medium, minicast_config)
        ordered = sorted(nodes)
        n = len(ordered)
        index = {node: i for i, node in enumerate(ordered)}
        hits = [[0] * n for _ in range(n)]
        total_duration = 0.0
        energy = {node: EnergyMeter() for node in ordered}
        for _ in range(rounds):
            outcome = minicast.run_round(ordered, energy=energy)
            total_duration += outcome.duration
            for origin in ordered:
                row = hits[index[origin]]
                for receiver in outcome.delivered.get(origin, ()):
                    row[index[receiver]] += 1
        prob = np.array(hits, dtype=float).reshape(n, n) / rounds
        np.fill_diagonal(prob, 1.0)
        mean_energy = float(np.mean(
            [m.energy_joules() for m in energy.values()])) / rounds
        return CpCalibration(delivery_prob=prob,
                             round_duration=total_duration / rounds,
                             round_energy_j=mean_energy)


@dataclass(frozen=True)
class CpCalibration:
    """Output of :meth:`SampledCP.calibrate`."""

    delivery_prob: np.ndarray
    round_duration: float
    round_energy_j: float

    @property
    def mean_delivery(self) -> float:
        n = len(self.delivery_prob)
        if n < 2:
            return 1.0
        off_diag = self.delivery_prob.sum() - n
        return float(off_diag / (n * (n - 1)))


#: Calibrations :func:`cached_calibration` keeps (least recently used
#: out first): a 26-device matrix is 5.4 kB.
CALIBRATION_MEMO_SIZE = 32
_CALIBRATIONS: "OrderedDict[Hashable, CpCalibration]" = OrderedDict()


def cached_calibration(key: Hashable,
                       calibrate: Callable[[], CpCalibration]
                       ) -> CpCalibration:
    """The calibration stored under ``key``, calling ``calibrate`` on a miss.

    ``key`` must name every input ``calibrate`` reads, so that a hit
    equals what the call would return.  A stored calibration is shared
    by every run that hits it, so its ``delivery_prob`` is made
    read-only (and :class:`CpCalibration` is frozen): no run can change
    another run's matrix.  The memo lives in this process and holds at
    most :data:`CALIBRATION_MEMO_SIZE` entries.
    """
    calibration = _CALIBRATIONS.get(key)
    if calibration is not None:
        _CALIBRATIONS.move_to_end(key)
        return calibration
    calibration = calibrate()
    calibration.delivery_prob.setflags(write=False)
    _CALIBRATIONS[key] = calibration
    if len(_CALIBRATIONS) > CALIBRATION_MEMO_SIZE:
        _CALIBRATIONS.popitem(last=False)
    return calibration
