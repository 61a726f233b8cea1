"""Heterogeneous home fleets for neighborhood-scale simulation.

A fleet (:class:`FleetSpec`) is N fully-specified homes behind one feeder.
Each home (:class:`HomeSpec`) draws its archetype (studio / family /
large, see :data:`repro.workloads.scenarios.HOME_ARCHETYPES`), device
count, power rating and arrival rate from *named* random streams —
``fleet/home-<i>`` — of one root seed
(:class:`~repro.sim.rng.RandomStreams`), so home *i* is identical whether
the fleet is built for 4 homes or 400, serially or in parallel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.api.spec import FleetPlan
from repro.core.system import FIDELITIES, POLICIES, HanConfig
from repro.sim.rng import RandomStreams
from repro.workloads.scenarios import FLEET_MIXES, HOME_ARCHETYPES, Scenario


def home_seed(root_seed: int, home_id: int) -> int:
    """Derive home ``home_id``'s simulation seed from the fleet seed.

    Hash-based (like :mod:`repro.sim.rng` stream derivation) so seeds are
    independent of fleet size and build order.
    """
    digest = hashlib.sha256(
        f"home-seed:{root_seed}:{home_id}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class HomeSpec:
    """One home's complete, picklable run specification."""

    home_id: int
    archetype: str
    scenario: Scenario
    policy: str = "coordinated"
    cp_fidelity: str = "round"
    seed: int = 1

    def config(self, **overrides) -> HanConfig:
        """The :class:`HanConfig` that reproduces this home exactly."""
        kwargs = dict(scenario=self.scenario, policy=self.policy,
                      cp_fidelity=self.cp_fidelity, seed=self.seed)
        kwargs.update(overrides)
        return HanConfig(**kwargs)


@dataclass(frozen=True)
class FleetSpec:
    """A named neighborhood: the homes plus the seed that produced them."""

    name: str
    seed: int
    homes: tuple[HomeSpec, ...]

    @property
    def n_homes(self) -> int:
        """Number of homes behind the feeder."""
        return len(self.homes)

    @property
    def total_devices(self) -> int:
        """Type-2 devices across every home of the fleet."""
        return sum(home.scenario.n_devices for home in self.homes)

    @property
    def horizon(self) -> float:
        """The feeder observation window (homes share one horizon)."""
        return max(home.scenario.horizon for home in self.homes)


def _pick_archetype(weights: Sequence[tuple[str, float]],
                    draw: float) -> str:
    """Map a uniform [0,1) draw onto the cumulative weight table."""
    total = sum(weight for _name, weight in weights)
    threshold = draw * total
    accumulated = 0.0
    for name, weight in weights:
        accumulated += weight
        if threshold < accumulated:
            return name
    return weights[-1][0]


def build_fleet(n_homes: int, mix: str = FleetPlan.mix, seed: int = 1,
                policy: str = "coordinated", cp_fidelity: str = "round",
                horizon: Optional[float] = None,
                rate_jitter: float = FleetPlan.rate_jitter,
                size_jitter: float = FleetPlan.size_jitter) -> FleetSpec:
    """Build a heterogeneous ``n_homes``-home fleet from a named mix.

    Per-home randomness comes from the stream ``fleet/home-<i>``, so each
    home's composition depends only on ``(seed, i)`` — never on how many
    other homes exist or who was built first.
    """
    if n_homes < 1:
        raise ValueError(f"n_homes must be >= 1, got {n_homes}")
    if mix not in FLEET_MIXES:
        known = ", ".join(sorted(FLEET_MIXES))
        raise KeyError(f"unknown fleet mix {mix!r}; one of: {known}")
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    if cp_fidelity not in FIDELITIES:
        raise ValueError(
            f"cp_fidelity must be one of {FIDELITIES}, got {cp_fidelity!r}")
    weights = FLEET_MIXES[mix]
    streams = RandomStreams(seed).child("fleet")
    homes = []
    for i in range(n_homes):
        rng = streams.stream(f"home-{i}")
        # Fixed draw order within the stream keeps each home reproducible.
        archetype = _pick_archetype(weights, float(rng.random()))
        base = HOME_ARCHETYPES[archetype]()
        n_devices = max(2, round(base.n_devices
                                 * (1.0 + rng.uniform(-size_jitter,
                                                      size_jitter))))
        power_w = base.device_power_w * (1.0 + rng.uniform(-0.1, 0.1))
        rate = base.arrival_rate_per_hour \
            * (1.0 + rng.uniform(-rate_jitter, rate_jitter))
        scenario = replace(
            base,
            name=f"home{i:03d}-{archetype}",
            n_devices=int(n_devices),
            device_power_w=float(power_w),
            arrival_rate_per_hour=float(rate),
            horizon=horizon if horizon is not None else base.horizon,
            notes=f"{mix} fleet member (seed {seed})")
        homes.append(HomeSpec(home_id=i, archetype=archetype,
                              scenario=scenario, policy=policy,
                              cp_fidelity=cp_fidelity,
                              seed=home_seed(seed, i)))
    return FleetSpec(name=f"{mix}-{n_homes}homes", seed=seed,
                     homes=tuple(homes))
