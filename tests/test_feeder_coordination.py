"""Feeder-level collaboration plane: rotation algebra, the decentralized
claim rounds, conservation invariants, parallel determinism, and a
golden-style lock on the diversity-factor uplift.

The conservation tests pin the plane's contract (see
``docs/coordination.md``): coordination re-phases homes, it never changes
what any home consumes — per-home energy and per-home peak are invariant,
and the guard never lets a plan regress the realized coincident peak.
The golden uplift lock follows the policy in ``docs/regression-policy.md``.
"""

import math
import random

import numpy as np
import pytest

from repro.neighborhood import (
    FeederConfig,
    FeederPlane,
    ForecastConfig,
    build_fleet,
    coordinate_fleet,
    coordinate_fleet_online,
    coordinate_profiles,
    negotiate_offsets,
    renegotiate_offsets,
    phase_envelope_window,
    rotate_series,
    rotate_window,
    execute_fleet,
    sum_series,
)
from repro.neighborhood import aggregate
from repro.neighborhood.aggregate import RecordTable, dedup_records, \
    table_sums
from repro.neighborhood.coordination import rotate_windows
from repro.sim.monitor import StepSeries
from repro.sim.units import MINUTE
from repro.st.rounds import CpStats

HORIZON = 90 * MINUTE

#: Golden diversity-factor uplift of the locked fleet below (seed 5,
#: 6 homes, "mixed", ideal CP, 90 min).  Deterministic reruns match to
#: rounding; re-pin only per docs/regression-policy.md.
GOLDEN_UPLIFT = 1.230
GOLDEN_UPLIFT_TOL = 0.02


def locked_fleet():
    """The fixed fleet/seed the golden uplift is pinned against."""
    return build_fleet(6, mix="mixed", seed=5, cp_fidelity="ideal",
                       horizon=HORIZON)


@pytest.fixture(scope="module")
def coordinated():
    """One coordinated run of the locked fleet, shared by every test."""
    return execute_fleet(locked_fleet(), jobs=1, coordination="feeder")


# -- rotation algebra ---------------------------------------------------------


def square_wave(period=10.0, high=1000.0, duty=0.4, horizon=100.0,
                phase=0.0):
    series = StepSeries("square")
    t = phase
    while t < horizon:
        series.record(t, high)
        series.record(min(t + duty * period, horizon), 0.0)
        t += period
    return series


def test_rotate_series_wraps_exactly():
    series = StepSeries("s")
    series.record(0.0, 100.0)
    series.record(60.0, 0.0)  # one burst in [0, 60)
    rotated = rotate_series(series, 80.0, horizon=100.0)
    # burst occupies [80, 100) and wraps into [0, 40)
    assert rotated.at(0.0) == 100.0
    assert rotated.at(39.0) == 100.0
    assert rotated.at(41.0) == 0.0
    assert rotated.at(79.0) == 0.0
    assert rotated.at(81.0) == 100.0


@pytest.mark.parametrize("offset", [0.0, 7.5, 33.0, 99.0, 100.0, 140.0])
def test_rotation_conserves_energy_and_peak(offset):
    series = square_wave()
    rotated = rotate_series(series, offset, horizon=100.0)
    assert rotated.integral(0.0, 100.0) == pytest.approx(
        series.integral(0.0, 100.0), rel=1e-12)
    assert rotated.maximum(0.0, 100.0) == series.maximum(0.0, 100.0)
    assert rotated.minimum(0.0, 100.0) == series.minimum(0.0, 100.0)


def test_rotation_by_zero_is_identity():
    series = square_wave()
    rotated = rotate_series(series, 0.0, horizon=100.0)
    for t in [0.0, 3.9, 4.1, 55.0, 99.5]:
        assert rotated.at(t) == series.at(t)


def test_rotation_shifts_values():
    series = square_wave()  # high on [0, 4), [10, 14), ...
    rotated = rotate_series(series, 5.0, horizon=100.0)
    for t in [0.0, 3.0, 10.0, 47.0]:
        assert rotated.at((t + 5.0) % 100.0) == series.at(t)


# -- envelopes ----------------------------------------------------------------


def test_phase_envelope_upper_bounds_the_series():
    series = square_wave(period=13.0, duty=0.31)
    envelope = phase_envelope_window(series, 0.0, 100.0, bin_s=6.0)
    assert len(envelope) == math.ceil(100.0 / 6.0)
    for i, value in enumerate(envelope):
        for t in (i * 6.0, i * 6.0 + 3.0, i * 6.0 + 5.9):
            if t < 100.0:
                assert value >= series.at(t) - 1e-9


def test_phase_envelope_tight_on_aligned_series():
    series = StepSeries("s")
    series.record(0.0, 500.0)
    series.record(10.0, 0.0)
    series.record(20.0, 800.0)
    series.record(30.0, 0.0)
    assert phase_envelope_window(series, 0.0, 40.0, bin_s=10.0) \
        == (500.0, 0.0, 800.0, 0.0)


# -- the claim rounds ---------------------------------------------------------


def test_negotiation_staggers_identical_homes():
    """Two same-phase square homes end up in disjoint phases."""
    env = (1000.0, 1000.0, 0.0, 0.0)  # half-duty, aligned
    claims, stats, sweeps = negotiate_offsets(
        FeederPlane([0, 1], {0: env, 1: env}, shifts=4), FeederConfig())
    assert sorted(claims) == [0, 1]
    assert abs(claims[0] - claims[1]) == 2  # opposite phases
    assert stats.rounds_total >= 2
    assert sweeps >= 1


def test_negotiation_converges_and_stops():
    env_a = (900.0, 0.0, 0.0, 900.0)
    env_b = (0.0, 700.0, 700.0, 0.0)
    claims, _stats, sweeps = negotiate_offsets(
        FeederPlane([0, 1], {0: env_a, 1: env_b}, shifts=4),
        FeederConfig(max_sweeps=6))
    # Already perfectly staggered: nobody should move, and the plane
    # should notice within two sweeps.
    assert claims == {0: 0, 1: 0}
    assert sweeps <= 2


# -- brute-force claim-round oracle -------------------------------------------


def _rolled(envelope, shift, j):
    """Bin ``j`` of ``envelope`` delayed by ``shift`` bins, cyclically."""
    return envelope[(j - shift) % len(envelope)]


def _oracle_others(home_ids, envelopes, claims, node):
    """Everyone but ``node``'s claimed envelopes, summed per bin one home
    at a time in home order, starting from 0.0."""
    others = []
    for j in range(len(envelopes[node])):
        total = 0.0
        for home in home_ids:
            if home != node:
                total += _rolled(envelopes[home], claims[home], j)
        others.append(total)
    return others


def _oracle_best_shift(home_ids, envelopes, claims, node, shifts):
    """``FeederPlane._best_shift`` as plain loops: per-bin sums of the
    others' rolled envelopes in home order, then the same tie keys
    (smallest peak, the current claim within 1e-9, earliest shift)."""
    bins = len(envelopes[node])
    others = _oracle_others(home_ids, envelopes, claims, node)
    peaks = [max(others[j] + _rolled(envelopes[node], shift, j)
                 for j in range(bins))
             for shift in range(shifts)]
    floor = min(peaks)
    ties = [shift for shift in range(shifts) if peaks[shift] <= floor + 1e-9]
    return claims[node] if claims[node] in ties else ties[0]


def _oracle_sweeps(home_ids, envelopes, claims, shifts, tokens,
                   deliveries, max_sweeps):
    """The claim loop over :func:`_oracle_best_shift`."""
    claims = dict(claims)
    rounds = sweeps = 0
    for _sweep in range(max_sweeps):
        moved = False
        for token in tokens:
            rounds += 1
            best = _oracle_best_shift(home_ids, envelopes, claims, token,
                                      shifts)
            moved = moved or best != claims[token]
            claims[token] = best
        sweeps += 1
        if not moved:
            break
    return claims, CpStats(rounds_total=rounds, rounds_active=rounds,
                           deliveries=rounds * deliveries), sweeps


def _random_envelopes(rng, home_ids, bins, levels):
    return {home: tuple(rng.choice(levels) for _ in range(bins))
            for home in home_ids}


#: ``(homes, bins, shifts, levels)``: coarse integer levels force exact
#: ties, levels 4e-10 apart force ties inside the 1e-9 tolerance; fine
#: random levels exercise float sums; one all-zero fleet and one single
#: home; signed zeros, which the sum turns into +0.0 as the loop does.
#: The last two are the real shapes — the online epoch's (12 homes,
#: 5 bins, 5 shifts) and the fleet's (24 homes, 60 bins, 45 shifts) —
#: long enough that a pairwise or exactly rounded sum lands on
#: different bits than the sequential one.
ORACLE_CASES = [
    (5, 8, 8, (0.0, 1000.0, 2000.0)),
    (5, 8, 8, (0.0, 1000.0, 1000.0000000004)),
    (7, 12, 6, (0.0, 500.0)),
    (6, 10, 10, None),
    (4, 6, 6, (0.0,)),
    (1, 8, 8, None),
    (4, 6, 6, (-0.0, 500.0)),
    (12, 5, 5, None),
    (24, 60, 45, None),
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("homes,bins,shifts,levels", ORACLE_CASES)
def test_claim_rounds_match_brute_force_oracle(seed, homes, bins, shifts,
                                               levels):
    rng = random.Random(seed)
    levels = levels or tuple(rng.uniform(0.0, 3000.0) for _ in range(9))
    home_ids = rng.sample(range(100), homes)  # not sorted: home order
    config = FeederConfig(max_sweeps=5)
    envelopes = _random_envelopes(rng, home_ids, bins, levels)
    zero = {home: 0 for home in home_ids}
    claims, stats, sweeps = negotiate_offsets(
        FeederPlane(home_ids, envelopes, shifts), config)
    assert (claims, stats, sweeps) == _oracle_sweeps(
        home_ids, envelopes, zero, shifts, home_ids, homes * homes,
        config.max_sweeps)
    # An online epoch: some homes re-publish, only they claim again.
    plane = FeederPlane(home_ids, envelopes, shifts, claims=claims)
    changed = rng.sample(home_ids, rng.randint(0, homes))
    moved = dict(envelopes)
    for home in changed:
        moved[home] = _random_envelopes(rng, [home], bins, levels)[home]
        plane.update_envelope(home, moved[home])
    tokens = [home for home in home_ids if home in changed]
    expected = (_oracle_sweeps(home_ids, moved, claims, shifts, tokens,
                               homes, config.max_sweeps) if tokens
                else (claims, CpStats(), 0))
    assert renegotiate_offsets(plane, changed, config) == expected
    # The projected load each claim is judged against is the
    # sequential home-order sum, bit for bit (signed zeros included).
    for node in home_ids:
        others = _oracle_others(home_ids, moved, plane.claims, node)
        assert plane._combined_others(node).tobytes() \
            == np.array(others, dtype=float).tobytes()


def test_envelopes_of_unequal_width_are_refused():
    with pytest.raises(ValueError, match="bins"):
        FeederPlane([0, 1], {0: (1.0, 2.0, 3.0), 1: (1.0, 2.0)}, 3)
    plane = FeederPlane([0, 1], {0: (1.0, 2.0), 1: (2.0, 1.0)}, 2)
    with pytest.raises(ValueError, match="bins"):
        plane.update_envelope(1, (5.0,))


# -- scalar oracles for the batched rotation and the exact sum -----------------


def _oracle_rotate(series, offset, start, end):
    """``rotate_window`` from :meth:`StepSeries.segments` and
    :meth:`StepSeries.record`, one segment at a time: each segment start
    moves by the offset and wraps at ``end``, a segment that straddles
    ``end`` re-enters at ``start``, and the entries are replayed sorted
    by (time, value) — a stable sort, as the batched lexsort is."""
    span = end - start
    offset = offset % span
    entries, reentries = [], []
    for seg_start, seg_end, value in series.segments(start, end):
        if offset == 0.0:
            entries.append((seg_start, value))
        elif seg_start + offset >= end:
            entries.append((seg_start + offset - span, value))
        else:
            entries.append((seg_start + offset, value))
            if seg_end + offset > end:
                reentries.append((start, value))
    out = StepSeries(series.name)
    for time, value in sorted(entries + reentries,
                              key=lambda entry: (entry[0], entry[1])):
        out.record(time, value)
    return out


def _oracle_sum(series_list):
    """Per-event ``math.fsum`` over every member, replayed through
    :meth:`StepSeries.record`."""
    out = StepSeries("oracle")
    for time in sorted({t for series in series_list for t in series.times}):
        out.record(time, math.fsum(series.at(time)
                                   for series in series_list))
    return out


def _bits(series):
    """A series' recordings as raw bytes: signed zeros count."""
    times, values = series._data()
    return times.tobytes(), values.tobytes()


def _table_member(table, k, name):
    return StepSeries.from_arrays(name, *table.member(k))


#: values the random homes draw from: signed zeros, coarse ratings whose
#: sums tie and cancel, and fine levels
_LEVELS = (0.0, -0.0, 500.0, 1000.0, 1500.0, 0.1, 0.2, 0.3, 1e-12,
           2000.0000000004)


def _random_home(rng, name, horizon):
    """A home on a 5 s grid (times shared across homes, records exactly
    at window edges), with same-instant overwrites that leave equal
    adjacent values."""
    series = StepSeries(name)
    time = float(rng.choice((0, 5, 10, 40)))
    while time < horizon + 20.0:
        value = rng.choice(_LEVELS)
        if rng.random() < 0.2:
            series.record(time, series.at(time) + 700.0)
            series.record(time, series.values[-2]
                          if len(series) > 1 else value)
        else:
            series.record(time, value)
        time += 5.0 * rng.randint(1, 4)
    return series


def _edge_homes():
    empty = StepSeries("empty")
    late = StepSeries("late")  # first record after every window's end
    late.record(500.0, 900.0)
    late.record(505.0, 0.0)
    overwritten = StepSeries("overwritten")  # equal adjacent values
    overwritten.record(0.0, 300.0)
    overwritten.record(20.0, 700.0)
    overwritten.record(20.0, 300.0)
    overwritten.record(60.0, -0.0)
    overwritten.record(80.0, 0.0)
    return [empty, late, overwritten]


#: (start, end) windows honouring the exact-span contract
_WINDOWS = [(0.0, 100.0), (100.0, 200.0), (60.0, 110.0), (40.0, 75.0)]


def _offsets(rng, homes, start, end):
    """Zero, the span, beyond the span, random, and offsets that land a
    record exactly on ``end``."""
    span = end - start
    choices = [0.0, span, 2.5 * span, 3 * span + 5.0, 5.0, span - 5.0]
    offsets = []
    for home in homes:
        inside = [t for t in home.times if start < t < end]
        pick = rng.random()
        if inside and pick < 0.3:
            offsets.append(end - rng.choice(inside))
        elif pick < 0.8:
            offsets.append(rng.choice(choices))
        else:
            offsets.append(rng.uniform(0.0, 4 * span))
    return offsets


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("homes", [1, 2, 9])
def test_rotate_windows_matches_scalar_oracle(seed, homes):
    rng = random.Random(seed)
    fleet = [_random_home(rng, f"h{k}", 200.0) for k in range(homes)]
    if homes > 1:
        fleet += _edge_homes()
    table = RecordTable.of_series(fleet)
    for start, end in _WINDOWS:
        offsets = _offsets(rng, fleet, start, end)
        rotated = rotate_windows(table, offsets, start, end)
        assert rotated.n == len(fleet)
        for k, (home, offset) in enumerate(zip(fleet, offsets)):
            expected = _bits(_oracle_rotate(home, offset, start, end))
            assert _bits(_table_member(rotated, k, home.name)) \
                == expected, (k, offset, start, end)
            assert _bits(rotate_window(home, offset, start, end)) \
                == expected
        windows = [_table_member(rotated, k, home.name)
                   for k, home in enumerate(fleet)]
        events, sums = table_sums(rotated)
        assert _bits(StepSeries.from_arrays(
            "sum", *dedup_records(events, sums))) \
            == _bits(_oracle_sum(windows))


@pytest.mark.parametrize("seed", range(6))
def test_sum_core_matches_fsum_oracle(seed):
    rng = random.Random(seed)
    fleet = [_random_home(rng, f"h{k}", 200.0)
             for k in range(rng.randint(1, 12))] + _edge_homes()
    assert _bits(sum_series(fleet)) == _bits(_oracle_sum(fleet))
    assert _bits(sum_series(fleet[:1])) == _bits(_oracle_sum(fleet[:1]))
    assert len(sum_series([StepSeries("empty")])) == 0


def test_sum_core_blocks_carry_each_members_latest_record(monkeypatch):
    """Blocks of a few events: every member's value carries across the
    block edges, so the sum is the one-block sum, bit for bit."""
    rng = random.Random(7)
    fleet = [_random_home(rng, f"h{k}", 400.0) for k in range(7)]
    whole = _bits(sum_series(fleet))
    monkeypatch.setattr(aggregate, "_SUM_BLOCK_CELLS", 20)
    assert _bits(sum_series(fleet)) == whole == _bits(_oracle_sum(fleet))


def test_rotate_windows_refuses_bad_windows_and_offsets():
    table = RecordTable.of_series([square_wave(), square_wave()])
    with pytest.raises(ValueError, match="empty window"):
        rotate_windows(table, [0.0, 0.0], 50.0, 50.0)
    with pytest.raises(ValueError, match="offsets"):
        rotate_windows(table, [0.0], 0.0, 100.0)


# -- conservation invariants on a real fleet ----------------------------------


def test_coordination_never_increases_per_home_energy(coordinated):
    """The plane re-phases homes; it cannot make any home consume more."""
    for result, contribution in zip(coordinated.homes,
                                    coordinated.contributions_w):
        original = result.load_w.integral(0.0, coordinated.horizon)
        rotated = contribution.integral(0.0, coordinated.horizon)
        assert rotated <= original + 1e-6
        assert rotated == pytest.approx(original, rel=1e-9)


def test_coordination_preserves_per_home_peaks(coordinated):
    for result, contribution in zip(coordinated.homes,
                                    coordinated.contributions_w):
        assert contribution.maximum(0.0, coordinated.horizon) \
            == result.load_w.maximum(0.0, coordinated.horizon)


def test_feeder_equals_sum_of_rotated_homes(coordinated):
    probe_times = list(coordinated.feeder_w.times)[:300]
    probe_times += [t + 7.5 for t in probe_times[:100]]
    for t in probe_times:
        expected = math.fsum(series.at(t)
                             for series in coordinated.contributions_w)
        assert coordinated.feeder_w.at(t) == pytest.approx(expected,
                                                           abs=1e-9)


def test_guard_never_regresses_the_feeder(coordinated):
    plan = coordinated.coordination
    coordinated_peak = plan.coordinated_w.maximum(0.0, coordinated.horizon)
    independent_peak = plan.independent_w.maximum(0.0, coordinated.horizon)
    assert coordinated_peak <= independent_peak + 1e-9
    comparison = coordinated.comparison()
    assert comparison.coordinated.diversity_factor \
        >= comparison.independent.diversity_factor - 1e-9


def test_offsets_lie_inside_the_epoch(coordinated):
    plan = coordinated.coordination
    for offset in plan.offsets_s:
        assert 0.0 <= offset < plan.epoch


def test_homes_are_untouched_by_coordination(coordinated):
    """Home runs are bit-identical with and without the feeder plane."""
    independent = execute_fleet(locked_fleet(), jobs=1)
    for a, b in zip(independent.homes, coordinated.homes):
        assert a.load_w.times == b.load_w.times
        assert a.load_w.values == b.load_w.values
        assert a.bursts == b.bursts
    assert independent.feeder_w.times \
        == coordinated.coordination.independent_w.times
    assert independent.feeder_w.values \
        == coordinated.coordination.independent_w.values
    assert independent.comparison() is None


# -- parallel determinism -----------------------------------------------------


def test_coordinated_run_bit_identical_1_vs_n_workers(coordinated):
    fanned = execute_fleet(locked_fleet(), jobs=3,
                              coordination="feeder")
    assert fanned.coordination.offsets_s \
        == coordinated.coordination.offsets_s
    assert fanned.coordination.applied == coordinated.coordination.applied
    assert fanned.feeder_w.times == coordinated.feeder_w.times
    assert fanned.feeder_w.values == coordinated.feeder_w.values
    for a, b in zip(fanned.contributions_w, coordinated.contributions_w):
        assert a.times == b.times
        assert a.values == b.values


# -- golden uplift lock -------------------------------------------------------


def test_diversity_uplift_matches_golden(coordinated):
    """The locked fleet's uplift stays pinned (docs/regression-policy.md)."""
    comparison = coordinated.comparison()
    assert coordinated.coordination.applied
    assert comparison.diversity_uplift == pytest.approx(
        GOLDEN_UPLIFT, abs=GOLDEN_UPLIFT_TOL), (
        "feeder-coordination uplift drifted; if intentional, re-pin "
        "GOLDEN_UPLIFT following docs/regression-policy.md")
    assert comparison.coordinated.diversity_factor \
        > comparison.independent.diversity_factor
    assert comparison.energy_drift_pct < 1e-9


# -- mode plumbing ------------------------------------------------------------


def test_unknown_coordination_mode_rejected():
    with pytest.raises(ValueError, match="coordination must be one of"):
        execute_fleet(locked_fleet(), coordination="bogus")


def test_single_home_fleet_is_a_noop():
    fleet = build_fleet(1, mix="suburb", seed=3, cp_fidelity="ideal",
                        horizon=HORIZON)
    result = execute_fleet(fleet, coordination="feeder")
    plan = result.coordination
    assert plan.offsets_s == (0.0,)
    assert not plan.applied
    assert result.feeder_w.times == plan.independent_w.times
    assert result.feeder_w.values == plan.independent_w.values
    assert result.comparison().diversity_uplift == pytest.approx(1.0)


# -- one loop: the batch tiers are its one-window call -------------------------


def _plan_bits(plan):
    """Everything a plan decided and realized, as comparable bytes."""
    return (plan.planned_offsets_s, plan.offsets_s, plan.applied,
            plan.sweeps, plan.cp_stats, plan.bin_s,
            _bits(plan.coordinated_w),
            [_bits(series) for series in plan.contributions_w])


@pytest.mark.parametrize("homes,minutes", [(12, 60), (30, 30), (1, 30)])
def test_batch_tiers_equal_one_epoch_cold_oracle(homes, minutes):
    """With the phase period at the horizon, the feeder tier, the
    substation tier over the same profiles and a one-epoch cold oracle
    online run are one loop: offsets, sweeps, CP stats and every
    contribution match bit for bit.  The 1-home fleet is the declined
    case."""
    horizon = minutes * MINUTE
    fleet = build_fleet(homes, mix="suburb", seed=3, cp_fidelity="ideal",
                        horizon=horizon)
    results = execute_fleet(fleet, until=horizon).homes
    config = FeederConfig(epoch=horizon)
    feeder = coordinate_fleet(fleet, results, horizon, config=config)
    substation = coordinate_profiles(
        [result.load_w for result in results], horizon, config=config)
    online = coordinate_fleet_online(
        fleet, results, horizon, config=config,
        forecast=ForecastConfig(forecaster="oracle"), replan="cold")
    assert online.n_epochs == 1
    assert feeder.applied == (homes > 1)
    assert _plan_bits(feeder) == _plan_bits(substation) \
        == _plan_bits(online)
