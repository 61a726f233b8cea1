"""The collaborative duty-cycle scheduling algorithm (the contribution).

Deterministic and side-effect free: every DI runs exactly this code on its
:class:`~repro.core.state.SharedView`; identical views yield identical
decisions, which is what makes the scheme decentralized yet coherent.

The algorithm (paper §II) admits requests **one by one** in
``(arrival, id)`` order and guarantees every active and newly requested
device at least one ``minDCD`` execution inside every ``maxDCP`` window.
Two placement modes implement the "coordinate the ON periods" step:

* ``"stagger"`` (default, the paper's behaviour) — each admitted device
  claims a concrete burst start inside ``[now, now + maxDCP − minDCD]``,
  chosen to minimise the projected peak concurrent load; while demand
  remains the burst recurs every ``maxDCP``.  Starts therefore interleave
  one by one and total load moves in single-device steps.
* ``"grid"`` (ablation variant) — time is a grid of ``maxDCP`` epochs
  split into ``minDCD`` slots; each device owns the least-loaded slot
  position.  Simpler, but synchronises switching at slot boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.state import DeviceStatus, SharedView
from repro.han.dutycycle import DutyCycleGrid, DutyCycleSpec
from repro.han.requests import RequestAnnouncement

MODES = ("stagger", "grid")
DEFERRALS = ("period", "strict")


@dataclass(frozen=True)
class AdmissionDecision:
    """What the scheduler decided for one pending request."""

    request_id: int
    device_id: int
    #: True when the request extends an already-active device
    extends: bool
    demand_cycles: int
    #: claimed burst start (stagger mode; None when extending)
    start_time: Optional[float] = None
    #: claimed slot position (grid mode)
    slot: Optional[int] = None


@dataclass
class SchedulerConfig:
    """Knobs of the collaborative scheduler."""

    spec: DutyCycleSpec
    mode: str = "stagger"
    grid_origin: float = 0.0
    #: weigh devices by power (True) or count (False) when balancing
    balance_by_power: bool = True
    #: how late a first burst may start relative to the request:
    #: "period" — the burst *starts* within maxDCP (default; the paper's
    #: "execution ... within a single period of maxDCP");
    #: "strict" — the burst also *completes* within maxDCP.
    deferral: str = "period"
    #: placement granularity guard for float comparisons, seconds
    epsilon: float = 1e-6

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.deferral not in DEFERRALS:
            raise ValueError(
                f"deferral must be one of {DEFERRALS}, got {self.deferral!r}")

    @property
    def start_latitude(self) -> float:
        """Latest admissible burst start, relative to admission time."""
        if self.deferral == "strict":
            return self.spec.max_dcp - self.spec.min_dcd
        return self.spec.max_dcp

    def make_grid(self) -> DutyCycleGrid:
        """The slot grid placements snap to in ``grid`` mode."""
        return DutyCycleGrid(self.spec, self.grid_origin)


#: Exact-key memo of recent :func:`plan_admissions` results.  Planning is
#: a pure function, and within one CP round every converged DI plans the
#: *same* ``(view content, config, now)`` — decentralized-yet-coherent by
#: design — so N identical per-DI planning passes collapse into one
#: computation plus N-1 lookups.  Keys are full value tuples (frozen
#: dataclasses), never bare hashes, so a hash collision degrades to a
#: dict probe, not a wrong plan.
_PLAN_MEMO: dict[tuple, list[AdmissionDecision]] = {}
_PLAN_MEMO_MAX = 32


def reset_plan_caches() -> None:
    """Drop the planner memo (tests/benchmarks)."""
    _PLAN_MEMO.clear()


def _config_key(config: SchedulerConfig) -> tuple:
    """The scheduler knobs planning reads, as one hashable value."""
    return (config.spec, config.mode, config.grid_origin,
            config.balance_by_power, config.deferral, config.epsilon)


def plan_admissions(view: SharedView, config: SchedulerConfig,
                    now: float) -> list[AdmissionDecision]:
    """Decide placements for every pending request in ``view``.

    Pure function of ``(view, config, now)``: DIs holding the same view at
    the same CP round derive the same plan.  Requests are processed in the
    paper's one-by-one ``(arrival, id)`` order; requests for already-active
    devices extend demand without moving the claim.

    The exact-content memo (``_PLAN_MEMO``) makes the N-DI re-planning
    cheap, bit-identical by purity: fully converged views collapse into
    one computation.
    """
    key = (*view.plan_key(), _config_key(config), now)
    cached = _PLAN_MEMO.get(key)
    if cached is not None:
        return list(cached)
    if config.mode == "grid":
        decisions = _plan_grid(view, config, now)
    else:
        decisions = _plan_stagger(view, config, now)
    if len(_PLAN_MEMO) >= _PLAN_MEMO_MAX:
        _PLAN_MEMO.clear()
    _PLAN_MEMO[key] = decisions
    return list(decisions)


# ---------------------------------------------------------------------------
# stagger mode
# ---------------------------------------------------------------------------

def _claimed_intervals(view: SharedView, config: SchedulerConfig,
                       horizon_start: float,
                       horizon_end: float) -> list[tuple[float, float, float]]:
    """Projected ``(start, end, power)`` bursts of active devices.

    Each active device recurs every ``maxDCP`` from its claimed
    ``burst_start`` for its remaining cycles; only the parts overlapping
    the horizon matter for placement.
    """
    spec = config.spec
    intervals: list[tuple[float, float, float]] = []
    for status in view.active_statuses():
        if status.burst_start is None:
            continue
        weight = status.power_w if config.balance_by_power else 1.0
        for k in range(status.remaining_cycles):
            start = status.burst_start + k * spec.max_dcp
            end = start + spec.min_dcd
            if end <= horizon_start:
                continue
            if start >= horizon_end:
                break
            intervals.append((start, end, weight))
    return intervals


def _window_peak(intervals: list[tuple[float, float, float]],
                 u: float, duration: float) -> float:
    """Maximum concurrent projected load inside ``[u, u + duration)``."""
    window_end = u + duration
    events: list[tuple[float, float]] = []
    for start, end, weight in intervals:
        lo = max(start, u)
        hi = min(end, window_end)
        if lo < hi:
            events.append((lo, weight))
            events.append((hi, -weight))
    if not events:
        return 0.0
    events.sort()
    peak = 0.0
    level = 0.0
    for _time, delta in events:
        level += delta
        peak = max(peak, level)
    return peak


def _window_peaks(starts: np.ndarray, ends: np.ndarray, weights: np.ndarray,
                  candidates: np.ndarray, duration: float) -> np.ndarray:
    """:func:`_window_peak` for every candidate start, in one batch.

    Bit-compatible with the scalar sweep: per candidate the same clipped
    ``(time, ±weight)`` events are sorted by the same ``(time, delta)``
    key, and ``np.cumsum`` accumulates the running level in exactly the
    scalar iteration order.  Intervals that miss a window contribute
    zero-weight no-op events (adding ±0.0 leaves every IEEE-754 level
    bit-unchanged), which lets all windows share one rectangular batch.
    """
    lo = np.maximum(starts[None, :], candidates[:, None])
    hi = np.minimum(ends[None, :], (candidates + duration)[:, None])
    live = (lo < hi) * weights[None, :]
    times = np.concatenate([lo, hi], axis=1)
    deltas = np.concatenate([live, -live], axis=1)
    order = np.lexsort((deltas, times), axis=1)
    levels = np.cumsum(np.take_along_axis(deltas, order, axis=1), axis=1)
    return np.maximum(levels.max(axis=1), 0.0)


def _pick_start(intervals: list[tuple[float, float, float]],
                config: SchedulerConfig, now: float) -> float:
    """Least-overlapping start in ``[now, now + latitude]``.

    The sliding-window peak is piecewise constant in the start time ``u``,
    changing only where the window boundary crosses a projected interval
    edge; candidates are therefore ``now``, every in-window edge, every
    edge minus ``minDCD``, and the midpoints between consecutive
    breakpoints (plateau representatives).  Selection keys, in order:

    1. smallest projected peak inside ``[u, u + minDCD)``,
    2. no other claimed burst starting at the same instant — this keeps
       total load moving in *single-device* steps (the paper's "load
       increases in small steps"),
    3. earliest ``u`` ("one by one": run as soon as the lull allows).

    Vectorized (every candidate window evaluated in one NumPy batch, see
    :func:`_window_peaks`) but bit-identical to the scalar definition:
    candidate enumeration, peak arithmetic and tie-breaking reproduce the
    same floats in the same order.
    """
    if not intervals:
        return now  # every window is empty; the earliest candidate wins
    spec = config.spec
    latest = now + config.start_latitude
    table = np.asarray(intervals, dtype=float)
    starts, ends, weights = table[:, 0], table[:, 1], table[:, 2]
    edges = np.concatenate([starts, ends,
                            starts - spec.min_dcd, ends - spec.min_dcd])
    edges = edges[(now < edges) & (edges < latest)]
    ordered = np.unique(np.concatenate([edges, [now, latest]]))
    midpoints = (ordered[:-1] + ordered[1:]) / 2.0
    candidates = np.unique(np.concatenate([ordered, midpoints]))
    peaks = _window_peaks(starts, ends, weights, candidates, spec.min_dcd)
    collisions = (np.abs(candidates[:, None] - starts[None, :])
                  < config.epsilon).any(axis=1)
    best_u = now
    best_key: Optional[tuple[float, int, float]] = None
    for u, peak, collides in zip(candidates, peaks, collisions):
        key = (peak, int(collides), u)
        if best_key is None or key < best_key:
            best_key = key
            best_u = u
    return float(best_u)


def _plan_stagger(view: SharedView, config: SchedulerConfig,
                  now: float) -> list[AdmissionDecision]:
    """Process the pending requests one by one (the paper's order).

    A request for a device that already runs, or that an earlier request
    in this pass placed, extends demand; any other claims the
    least-overlapping start, and its projected bursts join the intervals
    later placements avoid.
    """
    spec = config.spec
    intervals = _claimed_intervals(view, config, now,
                                   now + 2.0 * spec.max_dcp)
    decisions: list[AdmissionDecision] = []
    planned: set[int] = set()
    for announcement in view.pending_ordered():
        status = view.status_of(announcement.device_id)
        if (status is not None and status.active) \
                or announcement.device_id in planned:
            decisions.append(AdmissionDecision(
                request_id=announcement.request_id,
                device_id=announcement.device_id,
                extends=True,
                demand_cycles=announcement.demand_cycles))
            continue
        start = _pick_start(intervals, config, now)
        weight = _weight_of(view, announcement, config)
        for k in range(announcement.demand_cycles):
            intervals.append((start + k * spec.max_dcp,
                              start + k * spec.max_dcp + spec.min_dcd,
                              weight))
        planned.add(announcement.device_id)
        decisions.append(AdmissionDecision(
            request_id=announcement.request_id,
            device_id=announcement.device_id,
            extends=False,
            demand_cycles=announcement.demand_cycles,
            start_time=start))
    return decisions


# ---------------------------------------------------------------------------
# grid mode
# ---------------------------------------------------------------------------

def slot_loads(view: SharedView, config: SchedulerConfig) -> list[float]:
    """Projected concurrent load per slot position from claimed slots."""
    loads = [0.0] * config.spec.slots_per_epoch
    for status in view.active_statuses():
        if status.assigned_slot is None:
            continue
        weight = status.power_w if config.balance_by_power else 1.0
        loads[status.assigned_slot % len(loads)] += weight
    return loads


def _pick_slot(loads: list[float], grid: DutyCycleGrid, now: float) -> int:
    """Least-loaded slot; ties broken by earliest next start, then index."""
    best: Optional[tuple[float, float, int]] = None
    for slot, load in enumerate(loads):
        next_start = grid.slot_start(grid.occurrence_of_slot(slot, now))
        key = (load, next_start, slot)
        if best is None or key < best:
            best = key
    assert best is not None
    return best[2]


def _plan_grid(view: SharedView, config: SchedulerConfig,
               now: float) -> list[AdmissionDecision]:
    grid = config.make_grid()
    loads = slot_loads(view, config)
    decisions: list[AdmissionDecision] = []
    planned_slots: dict[int, int] = {}
    for announcement in view.pending_ordered():
        status = view.status_of(announcement.device_id)
        if status is not None and status.active:
            decisions.append(AdmissionDecision(
                request_id=announcement.request_id,
                device_id=announcement.device_id,
                extends=True,
                demand_cycles=announcement.demand_cycles,
                slot=status.assigned_slot))
            continue
        if announcement.device_id in planned_slots:
            decisions.append(AdmissionDecision(
                request_id=announcement.request_id,
                device_id=announcement.device_id,
                extends=True,
                demand_cycles=announcement.demand_cycles,
                slot=planned_slots[announcement.device_id]))
            continue
        slot = _pick_slot(loads, grid, now)
        loads[slot] += _weight_of(view, announcement, config)
        planned_slots[announcement.device_id] = slot
        decisions.append(AdmissionDecision(
            request_id=announcement.request_id,
            device_id=announcement.device_id,
            extends=False,
            demand_cycles=announcement.demand_cycles,
            slot=slot))
    return decisions


def _weight_of(view: SharedView, announcement: RequestAnnouncement,
               config: SchedulerConfig) -> float:
    if not config.balance_by_power:
        return 1.0
    status = view.status_of(announcement.device_id)
    if status is not None and status.power_w > 0:
        return status.power_w
    return announcement.power_w


def decisions_for_device(decisions: list[AdmissionDecision],
                         device_id: int) -> list[AdmissionDecision]:
    """The subset of a plan the owning DI actually applies."""
    return [d for d in decisions if d.device_id == device_id]
