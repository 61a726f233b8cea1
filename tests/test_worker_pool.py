"""The persistent worker pool: reuse, lifecycle, and determinism locks.

Extends the existing 1-vs-N bit-identity locks (``tests/test_api_run.py``,
``tests/test_neighborhood.py``) to the persistent pool of
:mod:`repro.experiments.pool`: a *reused* pool — the same warm workers
serving several consecutive batches — must stay bit-identical to fresh
``jobs=1`` execution across the sweep, registry and neighborhood paths.
"""

import pytest

from repro.api import (
    ControlSpec,
    ExperimentSpec,
    FleetPlan,
    ScenarioSpec,
    SweepSpec,
    run,
)
from repro.experiments.pool import (
    WorkerPool,
    dispatch_chunksize,
    shared_pool,
    shutdown_all,
)
from repro.experiments.runner import ParallelRunner, run_registry
from repro.sim.units import MINUTE

SHORT = 45 * MINUTE


def assert_same_run(a, b):
    assert list(a.load_w) == list(b.load_w)
    assert a.stats() == b.stats()
    assert [r.completed_at for r in a.requests] == \
        [r.completed_at for r in b.requests]
    assert a.bursts == b.bursts


def sweep_spec():
    return ExperimentSpec(
        name="pool-sweep", kind="sweep",
        scenario=ScenarioSpec(preset="paper-low"),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(1, 2), until_s=SHORT,
        sweep=SweepSpec(rates=(4.0, 18.0)))


def nbhd_spec():
    return ExperimentSpec(
        name="pool-nbhd", kind="neighborhood",
        scenario=ScenarioSpec(horizon_s=SHORT),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(1,), fleet=FleetPlan(homes=3, mix="mixed"))


# ---------------------------------------------------------------------------
# mechanics
# ---------------------------------------------------------------------------

def test_chunked_dispatch_shape():
    assert dispatch_chunksize(1, 4) == 1
    assert dispatch_chunksize(200, 4) == 13  # ceil(200 / 16)
    assert dispatch_chunksize(16, 4) == 1
    assert dispatch_chunksize(17, 2) == 3


def test_pool_rejects_bad_jobs():
    with pytest.raises(ValueError):
        WorkerPool(0)


def test_jobs_1_stays_in_process():
    pool = WorkerPool(1)
    assert pool.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
    assert not pool.alive  # nothing was spawned
    assert pool.spawn_count == 0


def test_shared_pool_is_persistent_and_keyed(close_pools_after):
    assert shared_pool(2) is shared_pool(2)
    assert shared_pool(2) is not shared_pool(3)
    shutdown_all()
    fresh = shared_pool(2)
    assert not fresh.alive  # registry cleared; new pool not yet spawned


def test_batches_reuse_one_spawn(close_pools_after):
    """Consecutive batches must reuse the warm workers, not refork."""
    runner = ParallelRunner(jobs=2)
    from repro.api.compile import compile_run_specs
    specs = compile_run_specs(sweep_spec())
    first = runner.run(specs)
    pool = shared_pool(2)
    assert pool.alive and pool.spawn_count == 1
    second = runner.run(specs)
    assert pool.spawn_count == 1  # no second fork-per-batch
    for a, b in zip(first, second):
        assert_same_run(a, b)


def test_pool_close_respawns_cleanly(close_pools_after):
    pool = WorkerPool(2)
    assert pool.map(abs, [-1, -2]) == [1, 2]
    generation = pool.spawn_count
    pool.close()
    assert not pool.alive
    assert pool.map(abs, [-3, -4]) == [3, 4]
    assert pool.spawn_count == generation + 1
    pool.close()


# ---------------------------------------------------------------------------
# determinism locks: jobs=1 vs jobs=N vs reused pool
# ---------------------------------------------------------------------------

def test_sweep_pool_determinism(close_pools_after):
    spec = sweep_spec()
    serial = run(spec, jobs=1)
    pooled = run(spec, jobs=2)
    reused = run(spec, jobs=2)  # same shared pool, second batch
    assert shared_pool(2).spawn_count == 1
    for a, b, c in zip(serial.runs, pooled.runs, reused.runs):
        assert_same_run(a, b)
        assert_same_run(a, c)


def test_neighborhood_pool_determinism(close_pools_after):
    spec = nbhd_spec()
    serial = run(spec, jobs=1)
    pooled = run(spec, jobs=2)
    reused = run(spec, jobs=2)
    assert list(serial.neighborhood.feeder_w) == \
        list(pooled.neighborhood.feeder_w) == \
        list(reused.neighborhood.feeder_w)
    for a, b, c in zip(serial.neighborhood.homes,
                       pooled.neighborhood.homes,
                       reused.neighborhood.homes):
        assert_same_run(a, b)
        assert_same_run(a, c)


def test_registry_pool_determinism(close_pools_after):
    """Registry regeneration through a (reused) pool renders identically."""
    ids = ["FIG1", "FIG1"]  # two items so the batch actually fans out
    serial = ParallelRunner(jobs=1).regenerate(ids)
    pooled = ParallelRunner(jobs=2).regenerate(ids)
    reused = ParallelRunner(jobs=2).regenerate(ids)
    assert shared_pool(2).spawn_count == 1
    texts = {artefact.text
             for artefact in [*serial, *pooled, *reused]}
    assert len(texts) == 1  # every path rendered the same artefact


def test_registry_helper_orders_and_validates(close_pools_after):
    with pytest.raises(KeyError):
        run_registry(["NOPE"], jobs=2)
    [(exp_id, artefact)] = run_registry(["FIG1"], jobs=1)
    assert exp_id == "FIG1"
    assert "Communication Plane" in artefact.text


# -- lifecycle: LRU shape cap + explicit shutdown -----------------------------


def test_pool_shapes_capped_lru(close_pools_after):
    """Drawing more shapes than MAX_POOL_SHAPES closes the oldest one."""
    from repro.experiments import pool as pool_module

    pool_module.shutdown_all()
    shapes = list(range(2, 2 + pool_module.MAX_POOL_SHAPES + 1))
    first = shared_pool(shapes[0])
    first.map(len, [(4, 2)])  # spin it up: eviction must really close it
    assert first.alive
    for jobs in shapes[1:]:
        shared_pool(jobs)
    assert len(pool_module._POOLS) == pool_module.MAX_POOL_SHAPES
    # The least recently drawn shape was evicted and closed...
    assert shapes[0] not in pool_module._POOLS
    assert not first.alive
    # ...and re-drawing it hands out a *fresh* pool object.
    assert shared_pool(shapes[0]) is not first


def test_pool_lru_refreshes_on_redraw(close_pools_after):
    from repro.experiments import pool as pool_module

    pool_module.shutdown_all()
    first = shared_pool(2)
    for jobs in range(3, 2 + pool_module.MAX_POOL_SHAPES):
        shared_pool(jobs)
    assert shared_pool(2) is first          # refreshed, most recent now
    shared_pool(2 + pool_module.MAX_POOL_SHAPES)  # evicts jobs=3, not 2
    assert 2 in pool_module._POOLS
    assert 3 not in pool_module._POOLS


def test_shutdown_all_closes_everything_and_respawns():
    from repro.experiments import pool as pool_module

    pool = shared_pool(2)
    pool.map(len, [(8, 2), (9, 2)])
    assert pool.alive
    pool_module.shutdown_all()
    assert not pool.alive
    assert not pool_module._POOLS
    pool_module.shutdown_all()  # idempotent
    # The next draw transparently respawns a working pool.
    fresh = shared_pool(2)
    assert fresh.map(len, [(8, 2)]) == [2]
    pool_module.shutdown_all()

