"""The collaborative scheduler: determinism, guarantees, balancing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CpItem, DeviceStatus, SchedulerConfig, SharedView, \
    plan_admissions
from repro.core.scheduler import slot_loads
from repro.han.dutycycle import DutyCycleSpec
from repro.han.requests import RequestAnnouncement

SPEC = DutyCycleSpec(min_dcd=900.0, max_dcp=1800.0)


def config(**kwargs):
    return SchedulerConfig(spec=SPEC, **kwargs)


def view_with(statuses=(), announcements=()):
    view = SharedView()
    for status in statuses:
        view.merge_item(CpItem(status))
    for ann in announcements:
        view.pending[ann.request_id] = ann
    return view


def status(device_id, version=1, active=False, remaining=0, slot=None,
           power=1000.0, burst=None, last_admitted=0):
    return DeviceStatus(device_id=device_id, version=version, active=active,
                        remaining_cycles=remaining, assigned_slot=slot,
                        power_w=power, burst_start=burst,
                        last_admitted_request=last_admitted)


def announcement(request_id, device_id, arrival=0.0, cycles=1,
                 power=1000.0):
    return RequestAnnouncement(request_id=request_id, device_id=device_id,
                               arrival_time=arrival, demand_cycles=cycles,
                               power_w=power)


def test_empty_view_empty_plan():
    assert plan_admissions(view_with(), config(), now=0.0) == []


def test_single_request_starts_immediately_on_idle_system():
    view = view_with(statuses=[status(1)],
                     announcements=[announcement(10, 1, arrival=5.0)])
    decisions = plan_admissions(view, config(), now=7.0)
    assert len(decisions) == 1
    assert decisions[0].start_time == 7.0
    assert not decisions[0].extends


def test_two_requests_are_serialized():
    """The paper's one-by-one property: no overlap when capacity allows."""
    view = view_with(
        statuses=[status(1), status(2)],
        announcements=[announcement(10, 1, arrival=0.0),
                       announcement(11, 2, arrival=1.0)])
    decisions = plan_admissions(view, config(), now=2.0)
    starts = {d.device_id: d.start_time for d in decisions}
    assert starts[1] == 2.0
    assert starts[2] == pytest.approx(2.0 + SPEC.min_dcd)


def test_admission_order_is_arrival_then_id():
    view = view_with(
        statuses=[status(1), status(2)],
        announcements=[announcement(20, 1, arrival=9.0),
                       announcement(15, 2, arrival=3.0)])
    decisions = plan_admissions(view, config(), now=10.0)
    assert [d.request_id for d in decisions] == [15, 20]


def test_start_within_latitude_guarantee():
    """Every admitted start must lie within the liveness window."""
    cfg = config()
    announcements = [announcement(10 + i, i, arrival=float(i))
                     for i in range(12)]
    view = view_with(statuses=[status(i) for i in range(12)],
                     announcements=announcements)
    now = 50.0
    for decision in plan_admissions(view, cfg, now=now):
        assert not decision.extends
        assert now <= decision.start_time <= now + cfg.start_latitude


def test_strict_deferral_tightens_window():
    cfg = config(deferral="strict")
    assert cfg.start_latitude == SPEC.max_dcp - SPEC.min_dcd
    announcements = [announcement(10 + i, i, arrival=0.0) for i in range(6)]
    view = view_with(statuses=[status(i) for i in range(6)],
                     announcements=announcements)
    for decision in plan_admissions(view, cfg, now=0.0):
        assert decision.start_time <= cfg.start_latitude


def test_active_device_request_extends_without_moving():
    view = view_with(
        statuses=[status(1, active=True, remaining=1, burst=100.0)],
        announcements=[announcement(10, 1, arrival=0.0, cycles=2)])
    decisions = plan_admissions(view, config(), now=0.0)
    assert decisions[0].extends
    assert decisions[0].demand_cycles == 2


def test_second_request_same_plan_extends_first_placement():
    view = view_with(
        statuses=[status(1)],
        announcements=[announcement(10, 1, arrival=0.0),
                       announcement(11, 1, arrival=1.0)])
    decisions = plan_admissions(view, config(), now=2.0)
    assert not decisions[0].extends
    assert decisions[1].extends


def test_determinism_same_view_same_plan():
    def build():
        return view_with(
            statuses=[status(i, active=(i % 2 == 0), remaining=i % 2,
                             burst=50.0 * i if i % 2 == 0 else None)
                      for i in range(1, 7)],
            announcements=[announcement(20 + i, i, arrival=float(i % 3))
                           for i in range(1, 7) if i % 2 == 1])
    plan_a = plan_admissions(build(), config(), now=10.0)
    plan_b = plan_admissions(build(), config(), now=10.0)
    assert plan_a == plan_b


def test_projected_load_respects_claims():
    """A new request avoids overlapping an already-claimed burst."""
    view = view_with(
        statuses=[status(1, active=True, remaining=1, burst=0.0),
                  status(2)],
        announcements=[announcement(10, 2, arrival=0.0)])
    decisions = plan_admissions(view, config(), now=0.0)
    # device 1 burns [0, 900); device 2 must start at 900
    assert decisions[0].start_time == pytest.approx(900.0)


def test_small_steps_property():
    """k simultaneous requests never pile onto one instant."""
    k = 6
    view = view_with(
        statuses=[status(i) for i in range(k)],
        announcements=[announcement(10 + i, i, arrival=0.0)
                       for i in range(k)])
    decisions = plan_admissions(view, config(), now=0.0)
    starts = sorted(d.start_time for d in decisions)
    # no two simultaneous starts until the window forces overlap
    assert len(set(starts)) == len(starts) or k > 2 * SPEC.slots_per_epoch
    # max concurrency is ceil(k * duty) with full staggering
    max_concurrent = 0
    for t in starts:
        running = sum(1 for s in starts
                      if s <= t < s + SPEC.min_dcd)
        max_concurrent = max(max_concurrent, running)
    assert max_concurrent <= -(-k * SPEC.min_dcd // SPEC.max_dcp) + 1


# ---------------------------------------------------------------------------
# grid mode
# ---------------------------------------------------------------------------

def test_grid_mode_assigns_least_loaded_slot():
    cfg = config(mode="grid")
    view = view_with(
        statuses=[status(1, active=True, remaining=1, slot=0),
                  status(2, active=True, remaining=1, slot=0),
                  status(3, active=True, remaining=1, slot=1),
                  status(4)],
        announcements=[announcement(10, 4, arrival=0.0)])
    decisions = plan_admissions(view, cfg, now=0.0)
    assert decisions[0].slot == 1


def test_grid_mode_balances_batch():
    cfg = config(mode="grid")
    view = view_with(
        statuses=[status(i) for i in range(4)],
        announcements=[announcement(10 + i, i, arrival=0.0)
                       for i in range(4)])
    decisions = plan_admissions(view, cfg, now=0.0)
    slots = [d.slot for d in decisions]
    assert sorted(slots) == [0, 0, 1, 1]


def test_slot_loads_weighting():
    cfg = config(mode="grid")
    view = view_with(statuses=[
        status(1, active=True, remaining=1, slot=0, power=2000.0),
        status(2, active=True, remaining=1, slot=1, power=500.0)])
    assert slot_loads(view, cfg) == [2000.0, 500.0]
    cfg_count = config(mode="grid", balance_by_power=False)
    assert slot_loads(view, cfg_count) == [1.0, 1.0]


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        config(mode="psychic")
    with pytest.raises(ValueError):
        config(deferral="never")


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 9), st.floats(0, 100)),
                min_size=1, max_size=10, unique_by=lambda t: t[0]),
       st.floats(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_guarantee_holds_for_any_batch(request_specs, now):
    """Liveness: every admission starts within maxDCP of `now`."""
    cfg = config()
    view = view_with(
        statuses=[status(d) for d, _ in request_specs],
        announcements=[announcement(100 + i, d, arrival=arr)
                       for i, (d, arr) in enumerate(request_specs)])
    decisions = plan_admissions(view, cfg, now=now)
    assert len(decisions) == len(request_specs)
    for decision in decisions:
        assert now - 1e-6 <= decision.start_time \
            <= now + SPEC.max_dcp + 1e-6


@given(st.integers(2, 12))
@settings(max_examples=50, deadline=None)
def test_batch_peak_is_bounded_by_duty_share(k):
    """Greedy staggering keeps the batch peak near k x duty-fraction.

    The information-theoretic optimum is ceil(k*minDCD/(latitude+minDCD));
    the one-by-one greedy is not optimal for large batches but must stay
    within the duty-share bound ceil(k * minDCD / maxDCP) + 1.
    """
    cfg = config()
    view = view_with(
        statuses=[status(i) for i in range(k)],
        announcements=[announcement(10 + i, i, arrival=0.0)
                       for i in range(k)])
    decisions = plan_admissions(view, cfg, now=0.0)
    starts = [d.start_time for d in decisions]
    events = sorted([(s, 1) for s in starts]
                    + [(s + SPEC.min_dcd, -1) for s in starts])
    level = peak = 0
    for _t, delta in events:
        level += delta
        peak = max(peak, level)
    duty_share = -(-k * SPEC.min_dcd // SPEC.max_dcp)
    assert peak <= duty_share + 1
    # and each batch start is unique: load moves one device at a time
    assert len(set(starts)) == k


# ---------------------------------------------------------------------------
# vectorized window sweep + plan memo (PR 4)
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.floats(0, 3000), st.floats(1, 900),
                          st.sampled_from([500.0, 1000.0, 1500.0])),
                min_size=0, max_size=12),
       st.floats(0, 3000))
@settings(max_examples=150, deadline=None)
def test_window_peaks_batch_matches_scalar_oracle(raw, u0):
    """The NumPy candidate batch equals the scalar sweep, float for float.

    ``_window_peak`` is the executable specification; ``_window_peaks``
    is the vectorized batch the planner actually runs.
    """
    import numpy as np
    from repro.core.scheduler import _window_peak, _window_peaks
    intervals = [(s, s + d, w) for s, d, w in raw]
    candidates = np.asarray(sorted({u0, u0 + 100.0, u0 + 901.0}))
    if intervals:
        table = np.asarray(intervals, dtype=float)
        peaks = _window_peaks(table[:, 0], table[:, 1], table[:, 2],
                              candidates, SPEC.min_dcd)
        for u, peak in zip(candidates, peaks):
            assert peak == _window_peak(intervals, float(u), SPEC.min_dcd)


def test_plan_memo_returns_equal_but_independent_lists():
    """Memo hits are value-equal and safe to mutate per caller."""
    cfg = config()
    view_a = view_with(
        statuses=[status(0), status(1, active=True, remaining=2, burst=0.0)],
        announcements=[announcement(10, 0, arrival=0.0)])
    view_b = view_with(
        statuses=[status(0), status(1, active=True, remaining=2, burst=0.0)],
        announcements=[announcement(10, 0, arrival=0.0)])
    first = plan_admissions(view_a, cfg, now=0.0)
    second = plan_admissions(view_b, cfg, now=0.0)  # equal view -> memo hit
    assert first == second
    second.clear()  # a caller mutating its plan list ...
    assert plan_admissions(view_a, cfg, now=0.0) == first  # ... hurts nobody


def test_plan_memo_distinguishes_now_and_view():
    """Every planning input is part of the memo key — no false hits."""
    from repro.core.scheduler import _PLAN_MEMO
    cfg = config()
    view = view_with(
        statuses=[status(0), status(1, active=True, remaining=2, burst=500.0)],
        announcements=[announcement(10, 0, arrival=0.0)])
    _PLAN_MEMO.clear()
    plan_admissions(view, cfg, now=0.0)
    plan_admissions(view, cfg, now=250.0)  # same view, different now
    assert len(_PLAN_MEMO) == 2
    grown = view_with(
        statuses=[status(0), status(1, active=True, remaining=2, burst=500.0)],
        announcements=[announcement(10, 0, arrival=0.0),
                       announcement(11, 2, arrival=1.0)])
    plan_admissions(grown, cfg, now=0.0)  # same now, different view
    assert len(_PLAN_MEMO) == 3


# -- memo vs cold planning pass ----------------------------------------------


def _fresh_caches():
    from repro.core import scheduler as sched
    sched._PLAN_MEMO.clear()


def _cold_plan(view, cfg, now):
    """Plan with the memo dropped — the ground-truth pass."""
    _fresh_caches()
    return plan_admissions(view, cfg, now)


def _assert_plans_match_cold(views, now):
    """Planning ``views`` back to back, either way round, matches cold."""
    expected = [_cold_plan(view, config(), now) for view in views]
    for order in (range(len(views)), reversed(range(len(views)))):
        _fresh_caches()
        for index in order:
            assert plan_admissions(views[index], config(), now) \
                == expected[index], index
    return expected


def _inactive_view(n_devices, pending, versions=None):
    """``n_devices`` idle devices; announcement ``100 + i`` per index i."""
    versions = versions or {}
    return view_with(
        statuses=[status(d, version=versions.get(d, 1))
                  for d in range(1, n_devices + 1)],
        announcements=[announcement(100 + i, 1 + i % n_devices,
                                    arrival=float(i))
                       for i in pending])


def test_suffix_replan_matches_cold_plan_on_pending_extension():
    """Same statuses, extra trailing announcements."""
    statuses = [status(1), status(2), status(3)]
    shorter = view_with(statuses=statuses,
                        announcements=[announcement(10, 1, arrival=1.0),
                                       announcement(11, 2, arrival=2.0)])
    longer = view_with(statuses=statuses,
                       announcements=[announcement(10, 1, arrival=1.0),
                                      announcement(11, 2, arrival=2.0),
                                      announcement(12, 3, arrival=3.0)])
    _assert_plans_match_cold([shorter, longer], 5.0)


def test_suffix_replan_matches_cold_plan_on_divergent_tail():
    """Two DIs missed different announcements: shared prefix, forked tail."""
    statuses = [status(1), status(2), status(3), status(4)]
    base = [announcement(20, 1, arrival=1.0),
            announcement(21, 2, arrival=2.0)]
    fork_a = view_with(statuses=statuses,
                       announcements=base + [announcement(22, 3,
                                                          arrival=3.0)])
    fork_b = view_with(statuses=statuses,
                       announcements=base + [announcement(23, 4,
                                                          arrival=3.5)])
    _assert_plans_match_cold([fork_a, fork_b, fork_a], 4.0)


def test_memo_matches_cold_plan_under_inactive_version_churn():
    """Version bumps on idle devices change the memo key, not the plan;
    a device that starts running changes both."""
    claimed = _inactive_view(6, range(5))
    claimed.merge_item(CpItem(status(6, version=2, active=True,
                                     remaining=2, burst=0.0)))
    baseline, churned, running = _assert_plans_match_cold(
        [_inactive_view(6, range(5)),
         _inactive_view(6, range(5), versions={3: 7, 5: 9}), claimed], 0.0)
    assert churned == baseline
    assert running != baseline


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_randomized_trace_reuse_is_bit_identical(data):
    """Any interleaving of prefix-sharing views plans like a cold pass."""
    n_devices = data.draw(st.integers(2, 5))
    statuses = [status(d, active=data.draw(st.booleans()),
                       remaining=1, burst=100.0)
                if data.draw(st.booleans()) else status(d)
                for d in range(1, n_devices + 1)]
    statuses = [s if not s.active else
                status(s.device_id, active=True, remaining=1, burst=100.0)
                for s in statuses]
    pool = [announcement(30 + i, data.draw(st.integers(1, n_devices)),
                         arrival=float(i))
            for i in range(data.draw(st.integers(1, 6)))]
    cuts = sorted(data.draw(
        st.lists(st.integers(0, len(pool)), min_size=2, max_size=4)))
    views = [view_with(statuses=statuses, announcements=pool[:cut])
             for cut in cuts]
    now = data.draw(st.sampled_from([0.0, 50.0]))
    expected = [_cold_plan(view, config(), now) for view in views]
    _fresh_caches()
    order = data.draw(st.permutations(range(len(views))))
    for index in order:
        assert plan_admissions(views[index], config(), now) \
            == expected[index], index


def test_view_merge_reports_only_effective_changes():
    view = SharedView()
    item = CpItem(status(1, version=1), (announcement(5, 1),))
    assert view.merge_item(item)
    assert not view.merge_item(item)  # idempotent re-delivery
    assert view.merge_item(CpItem(status(1, version=2, last_admitted=5)))
