"""Fleet-scale execution: shard invariance, batched transport, partials.

The load-bearing lock of PR 5: sharding and batched frame transport
are *execution strategies*, so every
``(shard_size, jobs, coordination)`` combination must produce
**bit-identical** results — value digests, not approximations.  The
exact-summation core (`aggregate.table_sums`) is additionally
checked against a brute-force ``math.fsum`` reference on randomized
series.
"""

import hashlib
import math
import pickle

import numpy as np
import pytest

from repro.neighborhood import (
    SeriesPartial,
    build_fleet,
    combine_partials,
    execute_fleet,
    partial_sum,
    plan_shards,
    shard_fleet,
    sum_series,
)
from repro.neighborhood.aggregate import dedup_records
from repro.neighborhood.shard import DEFAULT_SHARD_SIZE
from repro.neighborhood.transport import pack_series, unpack_series
from repro.experiments.runner import WorkerFailure
from repro.sim.monitor import StepSeries
from repro.sim.units import MINUTE

HORIZON = 30 * MINUTE
N_HOMES = 12


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(N_HOMES, mix="mixed", seed=17, cp_fidelity="ideal",
                       horizon=HORIZON)


def result_digest(result) -> str:
    """Value digest over everything a consumer can observe."""
    parts = [(tuple(home.load_w.times), tuple(home.load_w.values),
              tuple(sorted(home.bursts.items())),
              len(home.requests)) for home in result.homes]
    parts.append((tuple(result.feeder_w.times),
                  tuple(result.feeder_w.values)))
    parts.append(repr(result.feeder_stats()))
    parts.append(repr(result.home_stats()))
    if result.coordination is not None:
        parts.append((result.coordination.offsets_s,
                      result.coordination.sweeps,
                      result.coordination.cp_stats.rounds_total))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# -- the headline lock: shard invariance --------------------------------------


@pytest.mark.parametrize("coordination", ["independent", "feeder"])
def test_results_bit_identical_across_shard_sizes_and_jobs(
        fleet, coordination, serial_fleet, close_pools_after):
    """Digests equal for shard sizes {1, 8, N} x jobs {1, 4} and the
    serial per-home reference."""
    reference = result_digest(serial_fleet(fleet, coordination))
    for shard_size in (1, 8, N_HOMES):
        for jobs in (1, 4):
            run = execute_fleet(fleet, jobs=jobs,
                                coordination=coordination,
                                shard_size=shard_size)
            assert result_digest(run) == reference, \
                (coordination, shard_size, jobs)


# -- shard planning -----------------------------------------------------------


def test_shard_fleet_slices_preserve_homes(fleet):
    shards = shard_fleet(fleet, 5)
    assert [s.n_homes for s in shards] == [5, 5, 2]
    reassembled = tuple(home for shard in shards for home in shard.homes)
    assert reassembled == fleet.homes
    assert shards[1].name == f"{fleet.name}/shard1"


def test_small_fleet_plans_one_shard_in_process(fleet):
    assert fleet.n_homes < DEFAULT_SHARD_SIZE
    (only,) = plan_shards(fleet, jobs=1)
    assert only.fleet.homes == fleet.homes
    assert not only.framed


def test_auto_sharding_kicks_in_at_fleet_scale(fleet):
    big = build_fleet(2 * DEFAULT_SHARD_SIZE + 2, mix="suburb", seed=1)
    auto = plan_shards(big)
    assert len(auto) > 1
    assert tuple(home for s in auto for home in s.fleet.homes) == big.homes
    # jobs-aware sizing: several shards per worker for load balancing
    fanned = plan_shards(big, jobs=4)
    assert len(fanned) >= len(auto)
    # explicit size wins; in-process shards carry no frame
    forced = plan_shards(big, shard_size=16)
    assert [s.fleet.n_homes for s in forced] == [16] * 8 + [2]
    assert not any(s.framed for s in forced)
    crossed = plan_shards(big, shard_size=16, jobs=2)
    assert all(s.framed for s in crossed)


def test_bad_shard_size_rejected(fleet):
    for bad in (0, -3):
        with pytest.raises(ValueError, match="shard_size"):
            plan_shards(fleet, shard_size=bad)
    with pytest.raises(ValueError, match="shard_size"):
        shard_fleet(fleet, 0)


def test_worker_failure_names_the_failing_home_through_shards():
    from dataclasses import replace
    fleet = build_fleet(6, mix="mixed", seed=13, cp_fidelity="ideal",
                        horizon=HORIZON)
    victim = fleet.homes[3]
    homes = list(fleet.homes)
    homes[3] = replace(victim, scenario=replace(victim.scenario,
                                                arrival_kind="bogus"))
    poisoned = replace(fleet, homes=tuple(homes))
    with pytest.raises(WorkerFailure, match="home003"):
        execute_fleet(poisoned, jobs=1, shard_size=2)


# -- batched transport --------------------------------------------------------


def random_series(rng, name="s", max_events=60):
    series = StepSeries(name)
    t = 0.0
    for _ in range(int(rng.integers(0, max_events))):
        t += float(rng.choice([2.0, 2.0, 7.5, 0.5 * rng.random()]))
        series.record(t, float(rng.choice(
            [0.0, 1500.0, 1500.0 * (1.0 + 0.1 * rng.random()),
             2.0 * rng.random()])))
    return series


@pytest.mark.parametrize("crossing", ["pickle", "direct"])
def test_frame_round_trip_is_lossless(crossing):
    # "pickle" carries the frame as a pool result does; "direct" unpacks
    # the very frame pack_series built, views into its original blob.
    rng = np.random.default_rng(7)
    group = [random_series(rng, f"h{i}") for i in range(15)]
    frame = pack_series(group)
    if crossing == "pickle":
        frame = pickle.loads(pickle.dumps(frame))
    out = unpack_series(frame)
    for original, rebuilt in zip(group, out):
        assert rebuilt.name == original.name
        assert tuple(rebuilt.times) == tuple(original.times)
        assert tuple(rebuilt.values) == tuple(original.values)


# -- exact aggregation --------------------------------------------------------


def reference_sum(series_list, name="feeder"):
    """The pre-PR5 scalar definition: fsum per union event, record()."""
    out = StepSeries(name)
    gathered = [s._data()[0] for s in series_list if len(s)]
    if not gathered:
        return out
    events = np.unique(np.concatenate(gathered))
    sampled = np.empty((events.size, len(series_list)))
    for column, series in enumerate(series_list):
        sampled[:, column] = series.sample(events)
    for t, row in zip(events.tolist(), sampled):
        out.record(t, math.fsum(row.tolist()))
    return out


@pytest.mark.parametrize("seed", [3, 11])
def test_sum_series_matches_fsum_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        group = [random_series(rng, f"h{i}")
                 for i in range(int(rng.integers(1, 25)))]
        reference = reference_sum(group)
        vectorized = sum_series(group)
        assert tuple(vectorized.times) == tuple(reference.times)
        assert tuple(vectorized.values) == tuple(reference.values)


@pytest.mark.parametrize("seed", [5, 23])
def test_combine_partials_invariant_to_partitioning(seed):
    rng = np.random.default_rng(seed)
    for _ in range(15):
        n = int(rng.integers(2, 25))
        group = [random_series(rng, f"h{i}") for i in range(n)]
        reference = reference_sum(group)
        for size in (1, 3, n):
            partials = [partial_sum(group[i:i + size])
                        for i in range(0, n, size)]
            combined = combine_partials(partials, group)
            assert tuple(combined.times) == tuple(reference.times), size
            assert tuple(combined.values) == tuple(reference.values), size


def test_combine_partials_empty_and_degenerate():
    assert len(combine_partials([])) == 0
    assert len(combine_partials([SeriesPartial.empty(3)])) == 0
    one = StepSeries("x")
    one.record(1.0, 5.0)
    combined = combine_partials([partial_sum([one]),
                                 SeriesPartial.empty(0)], [one])
    assert tuple(combined.times) == (1.0,)
    assert tuple(combined.values) == (5.0,)


def test_dedup_records_replicates_record_semantics():
    """Same-instant overwrites and no-change skips, the vectorized way.

    Streams must satisfy the documented (time, value)-lexsort
    precondition — unsorted groups are rejected, not mis-collapsed (see
    ``test_dedup_records_rejects_unsorted_streams``).
    """
    streams = [
        [(0.0, 5.0), (1.0, 5.0), (1.0, 7.0)],   # skip then append
        [(0.0, 5.0), (1.0, 5.0), (1.0, 5.0), (1.0, 7.0)],  # 3+ group
        [(0.0, 1.0), (1.0, 1.0), (2.0, 2.0)],   # plain no-change skip
        [(0.0, 0.0)],
        [(2.0, 3.0), (2.0, 3.0)],
        [(0.0, 2.0), (1.0, 1.0), (1.0, 2.0)],   # append then overwrite
    ]
    for stream in streams:
        reference = StepSeries("r")
        for t, v in stream:
            reference.record(t, v)
        times, values = dedup_records(
            np.array([t for t, _ in stream]),
            np.array([v for _, v in stream]))
        assert tuple(times) == tuple(reference.times), stream
        assert tuple(values) == tuple(reference.values), stream


def test_from_arrays_behaves_like_recorded_series():
    source = StepSeries("s")
    for t, v in ((1.0, 2.0), (3.0, 0.0), (7.0, 4.0)):
        source.record(t, v)
    clone = StepSeries.from_arrays("s", *source._data())
    assert tuple(clone.times) == tuple(source.times)
    assert clone.at(3.5) == source.at(3.5)
    assert clone.integral(0.0, 8.0) == source.integral(0.0, 8.0)
    clone.record(9.0, 1.0)  # still a live, recordable series
    assert clone.at(9.5) == 1.0
    assert len(pickle.dumps(clone)) > 0


def test_failing_shard_does_not_strand_sibling_frames(close_pools_after):
    """A failing home across processes names itself and leaves no
    /dev/shm segment behind."""
    import glob
    from dataclasses import replace
    fleet = build_fleet(6, mix="mixed", seed=13, cp_fidelity="ideal",
                        horizon=HORIZON)
    victim = fleet.homes[5]  # last shard fails; earlier ones complete
    homes = list(fleet.homes)
    homes[5] = replace(victim, scenario=replace(victim.scenario,
                                                arrival_kind="bogus"))
    poisoned = replace(fleet, homes=tuple(homes))
    before = set(glob.glob("/dev/shm/*"))
    with pytest.raises(WorkerFailure, match="home005"):
        execute_fleet(poisoned, jobs=2, shard_size=2)
    leaked = set(glob.glob("/dev/shm/*")) - before
    assert not leaked


def test_dedup_records_rejects_unsorted_streams():
    with pytest.raises(ValueError, match="lexsorted"):
        dedup_records(np.array([1.0, 0.5]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="lexsorted"):
        dedup_records(np.array([1.0, 1.0]), np.array([7.0, 5.0]))


# -- the grid layer inherits the whole contract -------------------------------


def grid_value_digest(result) -> str:
    """Value digest over everything a grid consumer can observe."""
    parts = []
    for feeder in result.feeders:
        parts.extend((tuple(home.load_w.times), tuple(home.load_w.values))
                     for home in feeder.homes)
        parts.append((tuple(feeder.feeder_w.times),
                      tuple(feeder.feeder_w.values)))
        if feeder.coordination is not None:
            parts.append(feeder.coordination.offsets_s)
    parts.append((tuple(result.substation_w.times),
                  tuple(result.substation_w.values)))
    parts.append((tuple(result.independent_w.times),
                  tuple(result.independent_w.values)))
    if result.coordination is not None:
        parts.append(result.coordination.offsets_s)
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def test_grid_bit_identical_across_jobs_and_shard_sizes(
        serial_grid, close_pools_after):
    """jobs {1, 4} x shard sizes {1, 2, auto}: the serial reference's
    digest."""
    from repro.api.spec import FeederPlan
    from repro.neighborhood import build_grid, execute_grid
    grid = build_grid([FeederPlan(homes=6),
                       FeederPlan(homes=6, mix="mixed")],
                      seed=3, cp_fidelity="ideal", horizon=HORIZON)
    reference = grid_value_digest(serial_grid(grid, "substation"))
    for jobs in (1, 4):
        for shard_size in (1, 2, None):
            probe = execute_grid(grid, jobs=jobs,
                                 coordination="substation",
                                 shard_size=shard_size)
            assert grid_value_digest(probe) == reference, \
                (jobs, shard_size)


# -- cross-process golden lock ------------------------------------------------
#
# The invariance tests above compare two runs of the same tree, so a
# change that moved the in-process and the cross-process paths together
# would pass them.  These digests are absolute: every run below crosses
# processes (``jobs=2, shard_size=2`` frames each shard), and the sha256
# covers every home's series, the feeder and independent profiles, the
# applied offsets and the rendered statistics.

#: sha256 per run kind; see :func:`cross_process_digest`
CROSS_PROCESS_DIGESTS = {
    "feeder":
        "cc4760a6c12cf5e7ddaac86942f97ed1dcb1f7d66a751660f83f4523ba360a98",
    "online":
        "e0e877d0ae3ca530a768485ecd73aa4463d7944bc1c9ab4d5854ad039bd9101d",
    "substation":
        "c7eaef628665a18a9085ea63a27f016ccd55b3e549e8ed4294e48f0954e4383e",
}


def _update_series(hasher, series):
    hasher.update(np.asarray(series.times, dtype=float).tobytes())
    hasher.update(np.asarray(series.values, dtype=float).tobytes())


def _update_feeder(hasher, result):
    """One feeder's homes, offsets and statistics into ``hasher``."""
    for home in result.homes:
        _update_series(hasher, home.load_w)
    plan = result.coordination
    hasher.update(repr(plan.offsets_s).encode())
    hasher.update(repr([outcome.offsets_s for outcome
                        in getattr(plan, "epochs", ())]).encode())
    hasher.update(repr(result.home_stats()).encode())
    hasher.update(repr(result.feeder_stats()).encode())
    hasher.update(repr(result.comparison().rows()).encode())


def cross_process_digest(kind, result):
    """sha256 over one fleet (``feeder``/``online``) or grid run."""
    hasher = hashlib.sha256()
    if kind == "substation":
        for feeder in result.feeders:
            _update_feeder(hasher, feeder)
            _update_series(hasher, feeder.feeder_w)
            _update_series(hasher, feeder.coordination.independent_w)
        _update_series(hasher, result.substation_w)
        _update_series(hasher, result.independent_w)
        hasher.update(repr(result.coordination.offsets_s).encode())
        hasher.update(repr(result.comparison().rows()).encode())
    else:
        _update_feeder(hasher, result)
        _update_series(hasher, result.feeder_w)
        _update_series(hasher, result.coordination.independent_w)
    return hasher.hexdigest()


@pytest.mark.parametrize("kind", ["feeder", "online", "substation"])
def test_cross_process_run_reproduces_golden_digest(kind,
                                                    close_pools_after):
    from repro.api.spec import FeederPlan
    from repro.neighborhood import build_grid, execute_grid
    if kind == "substation":
        grid = build_grid([FeederPlan(homes=4)] * 3, seed=1,
                          cp_fidelity="ideal", horizon=HORIZON)
        result = execute_grid(grid, jobs=2, coordination="substation",
                              shard_size=2)
    else:
        fleet = build_fleet(6, mix="suburb", seed=1, cp_fidelity="ideal",
                            horizon=HORIZON)
        result = execute_fleet(fleet, jobs=2, coordination=kind,
                               shard_size=2)
    assert cross_process_digest(kind, result) == CROSS_PROCESS_DIGESTS[kind]
