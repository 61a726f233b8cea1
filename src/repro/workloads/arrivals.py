"""Request arrival processes.

The paper evaluates Poisson-like "randomly arriving" user requests at an
aggregate rate (4 / 18 / 30 requests per hour across 26 devices).  This
module provides that process plus burstier alternatives (batch arrivals and
a two-state MMPP) used by ablations to stress the one-by-one admission
property.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.han.requests import UserRequest
from repro.sim.units import per_hour_to_per_second

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Called for every generated request; wired to the owning DI agent.
RequestSink = Callable[[UserRequest], None]
#: Draws the demanded number of duty cycles for one request.
DemandSampler = Callable[[np.random.Generator], int]


def fixed_demand(cycles: int = 1) -> DemandSampler:
    """Every request asks for exactly ``cycles`` executions."""
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    return lambda _rng: cycles


def geometric_demand(mean_cycles: float) -> DemandSampler:
    """Geometric demand with the given mean (support {1, 2, ...})."""
    if mean_cycles < 1.0:
        raise ValueError("mean must be >= 1")
    p = 1.0 / mean_cycles
    return lambda rng: int(rng.geometric(p))


@dataclass
class ArrivalStats:
    """What an arrival process generated."""

    generated: int = 0
    per_device: Optional[dict[int, int]] = None


class PoissonArrivals:
    """Aggregate Poisson arrivals, device chosen uniformly at random."""

    def __init__(self, sim: "Simulator", rate_per_hour: float,
                 device_ids: Sequence[int], sinks: dict[int, RequestSink],
                 rng: np.random.Generator,
                 demand: DemandSampler = fixed_demand(1)):
        if rate_per_hour <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.rate = per_hour_to_per_second(rate_per_hour)
        self.device_ids = list(device_ids)
        self.sinks = sinks
        self.rng = rng
        self.demand = demand
        self.stats = ArrivalStats(per_device={d: 0 for d in device_ids})
        self.requests: list[UserRequest] = []
        #: request ids count from 1 per arrival process — so per run —
        #: making a run's requests (and its exports) independent of what
        #: else ran in the process
        self._request_ids = count(1)

    def run(self):
        """Arrival process; spawn with ``sim.spawn(arrivals.run())``."""
        while True:
            gap = self.rng.exponential(1.0 / self.rate)
            yield self.sim.timeout(gap)
            self._emit()

    def _emit(self) -> None:
        device = int(self.rng.choice(self.device_ids))
        request = UserRequest(device_id=device,
                              arrival_time=self.sim.now,
                              demand_cycles=self.demand(self.rng),
                              request_id=next(self._request_ids))
        self.requests.append(request)
        self.stats.generated += 1
        self.stats.per_device[device] += 1
        self.sinks[device](request)


class BatchArrivals(PoissonArrivals):
    """Poisson batch arrivals: every event releases ``batch_size`` requests.

    Models synchronized user behaviour (e.g. everyone returning home at
    once) — the worst case for load stacking, used to demonstrate the
    one-by-one admission property.
    """

    def __init__(self, sim: "Simulator", rate_per_hour: float,
                 device_ids: Sequence[int], sinks: dict[int, RequestSink],
                 rng: np.random.Generator, batch_size: int = 5,
                 demand: DemandSampler = fixed_demand(1)):
        super().__init__(sim, rate_per_hour, device_ids, sinks, rng, demand)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size

    def run(self):
        while True:
            gap = self.rng.exponential(1.0 / self.rate)
            yield self.sim.timeout(gap)
            for _ in range(self.batch_size):
                self._emit()


class MmppArrivals(PoissonArrivals):
    """Two-state Markov-modulated Poisson process (calm / busy).

    Dwell times are exponential; the busy state multiplies the base rate.
    """

    def __init__(self, sim: "Simulator", rate_per_hour: float,
                 device_ids: Sequence[int], sinks: dict[int, RequestSink],
                 rng: np.random.Generator, busy_factor: float = 5.0,
                 mean_dwell_s: float = 1800.0,
                 demand: DemandSampler = fixed_demand(1)):
        super().__init__(sim, rate_per_hour, device_ids, sinks, rng, demand)
        if busy_factor <= 0 or mean_dwell_s <= 0:
            raise ValueError("busy_factor and dwell must be positive")
        self.busy_factor = busy_factor
        self.mean_dwell_s = mean_dwell_s

    def run(self):
        busy = False
        state_ends = self.sim.now + self.rng.exponential(self.mean_dwell_s)
        while True:
            rate = self.rate * (self.busy_factor if busy else 1.0)
            gap = self.rng.exponential(1.0 / rate)
            if self.sim.now + gap >= state_ends:
                yield self.sim.timeout(max(state_ends - self.sim.now, 0.0))
                busy = not busy
                state_ends = self.sim.now + self.rng.exponential(
                    self.mean_dwell_s)
                continue
            yield self.sim.timeout(gap)
            self._emit()
