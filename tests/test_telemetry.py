"""The telemetry plane: bulk append, replayable journal.

Two contracts locked here:

* :meth:`repro.sim.monitor.StepSeries.append` is *exactly* a
  ``record()`` loop — fast path and fallback alike — and every cached
  view (``times``/``values`` tuples, the ``_data()`` ndarray pair) is
  invalidated on mutation, never returned stale (the PR 8 regression:
  a view fetched before an append must reflect the append afterwards);
* :class:`repro.telemetry.log.TelemetryLog` replays bit-identically:
  the journal alone rebuilds every per-home series the live ingestion
  maintained, and the digest fingerprints the exact event stream.
"""

import numpy as np
import pytest

from repro.sim.monitor import StepSeries
from repro.telemetry import TelemetryIngest, TelemetryLog


def recorded(pairs, name="s"):
    series = StepSeries(name)
    for time, value in pairs:
        series.record(time, value)
    return series


def random_stream(seed, n=60, same_instant=False):
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.0, 5.0, n)
    if not same_instant:
        steps = np.maximum(steps, 1e-3)
    times = np.cumsum(steps)
    values = np.round(rng.uniform(0.0, 2000.0, n), 1)
    # Inject duplicates so the no-change skip path is exercised too.
    for index in rng.choice(n - 1, size=n // 6, replace=False):
        values[index + 1] = values[index]
    return times.tolist(), values.tolist()


# -- StepSeries.append ------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_append_fast_path_equals_record_loop(seed):
    times, values = random_stream(seed)
    bulk, scalar = StepSeries("bulk"), StepSeries("scalar")
    bulk.append(times, values)
    for time, value in zip(times, values):
        scalar.record(time, value)
    assert tuple(bulk.times) == tuple(scalar.times)
    assert tuple(bulk.values) == tuple(scalar.values)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_append_batched_equals_one_batch(seed):
    times, values = random_stream(seed)
    rng = np.random.default_rng(seed + 100)
    cuts = sorted(rng.choice(len(times), size=4, replace=False).tolist())
    whole, pieces = StepSeries("whole"), StepSeries("pieces")
    whole.append(times, values)
    for lo, hi in zip([0] + cuts, cuts + [len(times)]):
        pieces.append(times[lo:hi], values[lo:hi])
    assert tuple(whole.times) == tuple(pieces.times)
    assert tuple(whole.values) == tuple(pieces.values)


def test_append_fallback_same_instant_overwrite_wins():
    series = StepSeries()
    # t=2.0 appears twice: record() semantics say the later value wins.
    series.append([0.0, 2.0, 2.0, 3.0], [10.0, 20.0, 25.0, 30.0])
    assert tuple(series.times) == (0.0, 2.0, 3.0)
    assert tuple(series.values) == (10.0, 25.0, 30.0)


def test_append_fallback_joins_at_last_record_time():
    series = recorded([(0.0, 5.0), (4.0, 9.0)])
    series.append([4.0, 6.0], [7.0, 8.0])
    assert tuple(series.times) == (0.0, 4.0, 6.0)
    assert tuple(series.values) == (5.0, 7.0, 8.0)


def test_append_skips_no_change_values_like_record():
    series = StepSeries()
    series.append([0.0, 1.0, 2.0, 3.0], [5.0, 5.0, 6.0, 6.0])
    assert tuple(series.times) == (0.0, 2.0)
    assert tuple(series.values) == (5.0, 6.0)
    # Continuing a held value across batches is also skipped.
    series.append([4.0], [6.0])
    assert tuple(series.times) == (0.0, 2.0)


def test_append_rejects_regression_and_shape_mismatch():
    series = recorded([(0.0, 1.0), (5.0, 2.0)])
    with pytest.raises(ValueError, match="precedes"):
        series.append([4.0], [3.0])
    with pytest.raises(ValueError, match="equal-length"):
        series.append([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        series.append([[0.0, 1.0]], [[1.0, 2.0]])


def test_append_empty_batch_is_a_no_op():
    series = recorded([(0.0, 1.0)])
    before = (tuple(series.times), tuple(series.values))
    series.append([], [])
    assert (tuple(series.times), tuple(series.values)) == before


# -- stale cached views (the PR 8 regression) -------------------------------


def test_views_fetched_before_append_are_not_returned_stale():
    series = recorded([(0.0, 1.0), (10.0, 2.0)])
    stale_times, stale_values = series.times, series.values
    stale_arrays = series._data()
    series.append([20.0, 30.0], [3.0, 4.0])
    assert tuple(series.times) == (0.0, 10.0, 20.0, 30.0)
    assert tuple(series.values) == (1.0, 2.0, 3.0, 4.0)
    fresh_arrays = series._data()
    assert fresh_arrays[0].tolist() == [0.0, 10.0, 20.0, 30.0]
    assert fresh_arrays[1].tolist() == [1.0, 2.0, 3.0, 4.0]
    # The stale snapshots still describe the pre-append state (views are
    # immutable snapshots, not live aliases).
    assert stale_times == (0.0, 10.0)
    assert stale_values == (1.0, 2.0)
    assert stale_arrays[0].tolist() == [0.0, 10.0]


@pytest.mark.parametrize("mutate", [
    lambda s: s.record(20.0, 9.0),
    lambda s: s.record(10.0, 9.0),          # same-instant overwrite
    lambda s: s.append([20.0], [9.0]),      # fast path
    lambda s: s.append([10.0, 20.0], [9.0, 9.5]),  # fallback path
])
def test_every_mutation_path_invalidates_cached_views(mutate):
    series = recorded([(0.0, 1.0), (10.0, 2.0)])
    series.times, series.values, series._data()  # populate both caches
    mutate(series)
    assert series.at(20.0) == pytest.approx(
        tuple(series.values)[-1])
    assert tuple(series.times) == tuple(series._data()[0].tolist())
    assert tuple(series.values) == tuple(series._data()[1].tolist())
    assert 9.0 in series.values


def test_stats_recompute_after_append():
    series = recorded([(0.0, 100.0), (10.0, 0.0)])
    assert series.integral(0.0, 10.0) == pytest.approx(1000.0)
    series.append([20.0, 30.0], [50.0, 0.0])
    assert series.integral(0.0, 30.0) == pytest.approx(1500.0)
    assert series.maximum(0.0, 30.0) == 100.0


# -- TelemetryIngest + TelemetryLog -----------------------------------------


def ingested(homes=(0, 1, 7), seed=31, batches=4):
    ingest = TelemetryIngest()
    rng = np.random.default_rng(seed)
    for home in homes:
        times, values = random_stream(seed + home, n=batches * 10)
        cuts = sorted(rng.choice(len(times), size=batches - 1,
                                 replace=False).tolist())
        for lo, hi in zip([0] + cuts, cuts + [len(times)]):
            ingest.ingest(home, times[lo:hi], values[lo:hi])
    return ingest


def test_ingest_feeds_series_stats_and_journal_together():
    ingest = ingested()
    for home in (0, 1, 7):
        assert len(ingest.series(home)) > 0
        # The series dedups held values, so its last record may predate
        # the last raw sample.
        last_sample = max(event.time for event in ingest.log.events
                          if event.home_id == home)
        assert tuple(ingest.series(home).times)[-1] <= last_sample
    assert len(ingest.log) == sum(
        1 for event in ingest.log.events)
    assert {event.home_id for event in ingest.log.events} == {0, 1, 7}


def test_untouched_home_reads_as_empty_not_error():
    ingest = TelemetryIngest()
    assert len(ingest.series(99)) == 0


def test_log_replay_rebuilds_series_bit_identically():
    ingest = ingested()
    replayed = ingest.log.replay()
    assert set(replayed) == {0, 1, 7}
    for home, series in replayed.items():
        live = ingest.series(home)
        assert tuple(series.times) == tuple(live.times)
        assert tuple(series.values) == tuple(live.values)


def test_log_digest_fingerprints_exact_event_stream():
    first, second = ingested(seed=41), ingested(seed=41)
    assert first.log.digest() == second.log.digest()
    assert len(first.log) == len(second.log)
    # One ULP of one value changes the digest.
    perturbed = TelemetryLog()
    for index, event in enumerate(first.log.events):
        value = event.value if index else np.nextafter(event.value,
                                                       np.inf)
        perturbed.extend(event.home_id, [event.time], [value])
    assert perturbed.digest() != first.log.digest()


def test_log_events_view_is_immutable_snapshot():
    log = TelemetryLog()
    log.extend(3, [0.0, 1.0], [10.0, 20.0])
    events = log.events
    log.extend(3, [2.0], [30.0])
    assert len(events) == 2
    assert len(log.events) == 3
    assert isinstance(log.events, tuple)


# -- late-arrival storms (ROADMAP item 2 leftover) --------------------------
#
# A storm permutes *arrival*, never content: batches of one journal are
# shuffled across homes, delivered epochs late, or journalled twice.
# The locks: replay() rebuilds the same series as the in-order run bit
# for bit, canonical_digest() is blind to arrival order, and
# TelemetryIngest.ingest_late restores live state identical to an
# on-time delivery.


def epoch_batches(homes=(0, 1, 7), seed=51, batches=5):
    """Per-home per-epoch batches, times strictly increasing per home."""
    out = []
    for home in homes:
        times, values = random_stream(seed + home, n=batches * 8)
        size = len(times) // batches
        for index in range(batches):
            lo, hi = index * size, (index + 1) * size
            if index == batches - 1:
                hi = len(times)
            out.append((home, times[lo:hi], values[lo:hi]))
    return out


def series_state(series):
    return (tuple(series.times), tuple(series.values))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_replay_of_shuffled_journal_matches_in_order(seed):
    batches = epoch_batches()
    in_order = TelemetryLog()
    for home, times, values in batches:
        in_order.extend(home, times, values)
    stormed = TelemetryLog()
    shuffled = list(batches)
    np.random.default_rng(seed).shuffle(shuffled)
    for home, times, values in shuffled:
        stormed.extend(home, times, values)
    # Same sample multiset: canonical digests agree even though the
    # arrival-order digests (almost surely) do not.
    assert stormed.canonical_digest() == in_order.canonical_digest()
    clean, recovered = in_order.replay(), stormed.replay()
    assert set(recovered) == set(clean)
    for home in clean:
        assert series_state(recovered[home]) == series_state(clean[home])


def test_replay_collapses_duplicated_batches(seed=7):
    batches = epoch_batches(seed=60)
    in_order = TelemetryLog()
    stormed = TelemetryLog()
    rng = np.random.default_rng(seed)
    for home, times, values in batches:
        in_order.extend(home, times, values)
        stormed.extend(home, times, values)
        if rng.random() < 0.5:  # duplicate storm: journalled twice
            stormed.extend(home, times, values)
    assert len(stormed) > len(in_order)
    clean, recovered = in_order.replay(), stormed.replay()
    for home in clean:
        assert series_state(recovered[home]) == series_state(clean[home])


def test_canonical_digest_still_fingerprints_content():
    log = TelemetryLog()
    log.extend(0, [0.0, 1.0], [10.0, 20.0])
    other = TelemetryLog()
    other.extend(0, [0.0, 1.0], [10.0, 20.5])
    assert log.canonical_digest() != other.canonical_digest()


@pytest.mark.parametrize("seed", [0, 5])
def test_ingest_late_restores_on_time_state_bit_identically(seed):
    batches = epoch_batches(seed=70 + seed)
    on_time = TelemetryIngest()
    for home, times, values in batches:
        on_time.ingest(home, times, values)
    stormy = TelemetryIngest()
    rng = np.random.default_rng(seed)
    held = []
    for home, times, values in batches:
        if rng.random() < 0.4:
            held.append((home, times, values))
        else:
            stormy.ingest(home, times, values)
    assert held, "storm must actually delay something"
    for home, times, values in held:  # late deliveries, out of order
        stormy.ingest_late(home, times, values)
    for home in {batch[0] for batch in batches}:
        assert series_state(stormy.series(home)) \
            == series_state(on_time.series(home))
    # Journal content is the same multiset; only arrival order differs.
    assert stormy.log.canonical_digest() == on_time.log.canonical_digest()
    # And the stormy journal replays to the same series too.
    clean_replay = on_time.log.replay()
    for home, series in stormy.log.replay().items():
        assert series_state(series) == series_state(clean_replay[home])
