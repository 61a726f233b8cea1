"""Names, units and kinds of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; :mod:`selfcheck` fails when
the two disagree.  Per-layer timings are *self* times (a span's
duration minus its child spans) per cycle of the workload's fixed
traced op list (one pass over its configurations, warm ops included),
unless the name says otherwise:

* ``service.worker.execute_s`` is inclusive (the whole call);
  ``neighborhood.online.replay_s.<config>`` is the inclusive time of
  one replay of that configuration;
* ``service.worker.overhead_s`` is ``WorkerDaemon.step`` minus the
  ``execute_job`` inside it.

Metrics in :data:`EXACT` are read from result objects or counted at
call boundaries over a fixed list of ops, so two runs on one seed must
report them bit-for-bit; they are the only per-layer numbers a
count-based claim may rest on.  A layer a workload does not run
reports 0.
"""

#: (name, unit, better) — measured with tracing off.  ``setup_s`` is the
#: median of the run's timed set-ups; the latencies are mix medians
#: (:func:`harness.mix_median`) of the warm and the cold ops, and
#: throughput is the inverse of the mix median of all ops.  All four
#: are in reference-host seconds (:class:`harness.HostSpeed`); the run
#: prints the wall-clock values beside them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("warm_p50_s", "s", "lower"),
    ("cold_p50_s", "s", "lower"),
)

#: Traced public functions: (span name, module, attribute path).  One
#: span name may cover several functions doing the same layer job.
WRAPS = (
    ("api.run", "repro.api.run", "run"),
    ("api.validate", "repro.api.validate", "validate"),
    ("api.spec.spec_hash", "repro.api.spec", "spec_hash"),
    ("api.compile.compile_run_specs", "repro.api.compile",
     "compile_run_specs"),
    ("api.compile.compile_fleet", "repro.api.compile", "compile_fleet"),
    ("api.cache.has", "repro.api.cache", "ResultCache.has"),
    ("api.cache.get_object", "repro.api.cache", "ResultCache.get_object"),
    ("api.cache.put_object", "repro.api.cache", "ResultCache.put_object"),
    ("experiments.runner.run", "repro.experiments.runner",
     "ParallelRunner.run"),
    ("experiments.runner.execute", "repro.experiments.runner",
     "ParallelRunner.execute"),
    ("core.system.build", "repro.core.system", "HanSystem.__init__"),
    ("core.system.run", "repro.core.system", "HanSystem.run"),
    ("st.rounds.calibrate", "repro.st.rounds", "SampledCP.calibrate"),
    ("neighborhood.federation.execute_fleet",
     "repro.neighborhood.federation", "execute_fleet"),
    ("neighborhood.shard.execute_shards", "repro.neighborhood.shard",
     "execute_shards"),
    ("neighborhood.aggregate.partial_sum", "repro.neighborhood.aggregate",
     "partial_sum"),
    ("neighborhood.transport.unpack", "repro.neighborhood.transport",
     "unpack_series"),
    ("neighborhood.aggregate.combine_partials",
     "repro.neighborhood.aggregate", "combine_partials"),
    ("neighborhood.aggregate.sum_series", "repro.neighborhood.aggregate",
     "sum_series"),
    ("neighborhood.coordination.coordinate_fleet",
     "repro.neighborhood.coordination", "coordinate_fleet"),
    ("neighborhood.coordination.negotiate",
     "repro.neighborhood.coordination", "negotiate_offsets"),
    ("neighborhood.coordination.renegotiate",
     "repro.neighborhood.coordination", "renegotiate_offsets"),
    ("neighborhood.coordination.rotate",
     "repro.neighborhood.coordination", "rotate_series"),
    ("neighborhood.coordination.rotate",
     "repro.neighborhood.coordination", "rotate_window"),
    ("neighborhood.online.replay", "repro.neighborhood.online",
     "coordinate_fleet_online"),
    ("forecast.predict", "repro.forecast.forecasters",
     "OracleForecaster.predict"),
    ("forecast.predict", "repro.forecast.forecasters",
     "PersistenceForecaster.predict"),
    ("forecast.predict", "repro.forecast.forecasters",
     "EwmaForecaster.predict"),
    ("forecast.predict", "repro.forecast.forecasters",
     "NoisyForecaster.predict"),
    ("telemetry.ingest", "repro.telemetry.stream", "TelemetryIngest.ingest"),
    ("telemetry.ingest", "repro.telemetry.stream",
     "TelemetryIngest.ingest_late"),
    ("faults.inject.fire", "repro.faults.inject", "FaultInjector.fire"),
    ("service.client.submit", "repro.service.client", "ServiceClient.submit"),
    ("service.client.result", "repro.service.client", "ServiceClient.result"),
    ("service.queue.submit", "repro.service.queue", "JobQueue.submit"),
    ("service.queue.lease", "repro.service.queue", "JobQueue.lease"),
    ("service.queue.complete", "repro.service.queue", "JobQueue.complete"),
    ("service.worker.step", "repro.service.worker", "WorkerDaemon.step"),
    ("service.worker.execute", "repro.service.worker", "execute_job"),
)

#: Self-time metric of each span name: ``<name>_s`` unless renamed here.
_SELF_NAMES = {
    "api.run": "api.run.overhead_s",
    "neighborhood.online.replay": "neighborhood.online.epoch_loop_s",
    "service.worker.execute": None,  # reported inclusive, see above
}

#: span name -> self-time metric name, in catalogue order.
SELF_TIMED = {name: _SELF_NAMES.get(name, f"{name}_s")
              for name, _module, _attr in WRAPS
              if _SELF_NAMES.get(name, "") is not None}

#: The online-replay configurations, in cycle order.
ONLINE_CONFIGS = ("oracle-diff", "oracle-cold", "oracle-noise",
                  "persistence", "ewma", "oracle-faults")

#: Per-layer metrics that must repeat bit-for-bit on one seed.
EXACT = (
    "st.rounds.rounds_total", "st.rounds.rounds_active",
    "st.rounds.deliveries", "st.rounds.active_ratio",
    "mac.collection.reports_sent", "mac.collection.reports_delivered",
    "mac.collection.dropped",
    "model.peak_reduction_pct", "model.std_reduction_pct",
    "neighborhood.transport.frame_bytes",
    "neighborhood.coordination.cp_deliveries",
    "neighborhood.coordination.sweeps",
    "neighborhood.coordination.energy_drift_wh",
    "experiments.pool.spawn_count", "neighborhood.transport.shm_leaked",
    "neighborhood.online.cp_deliveries.diff",
    "neighborhood.online.cp_deliveries.cold",
    "neighborhood.online.replan_ratio",
    "neighborhood.online.changed_homes",
    "neighborhood.online.epochs_applied",
    "neighborhood.online.stale_homes",
    "faults.inject.fires", "telemetry.dropped", "telemetry.delayed",
    "telemetry.duplicated",
    "api.cache.hits", "api.cache.misses", "api.cache.hit_ratio",
    "service.queue.journal_events",
    "service.warm_samples", "service.cold_samples",
)

_UNITS = {
    "st.rounds.active_ratio": "ratio",
    "neighborhood.online.replan_ratio": "ratio",
    "api.cache.hit_ratio": "ratio",
    "model.peak_reduction_pct": "%",
    "model.std_reduction_pct": "%",
    "neighborhood.transport.frame_bytes": "bytes",
    "neighborhood.coordination.energy_drift_wh": "Wh",
    "core.system.host_us_per_round": "us",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


#: Per-layer metrics where a larger value is the better one.
_HIGHER = {
    "st.rounds.active_ratio", "mac.collection.reports_delivered",
    "model.peak_reduction_pct", "model.std_reduction_pct",
    "neighborhood.online.epochs_applied", "api.cache.hits",
    "api.cache.hit_ratio", "service.warm_samples", "service.cold_samples",
    "trace.coverage_pct",
}


def _per_layer() -> tuple:
    names = list(SELF_TIMED.values())
    names += ["service.worker.overhead_s", "service.worker.execute_s"]
    names += [f"neighborhood.online.replay_s.{config}"
              for config in ONLINE_CONFIGS]
    names += ["core.system.host_us_per_round",
              "service.warm_p90_s", "service.cold_p90_s"]
    names += list(EXACT)
    names += ["trace.overhead_pct", "trace.coverage_pct"]
    return tuple(
        (name,
         _UNITS.get(name, "s" if name.endswith("_s") or "_s." in name
                    else "count"),
         "higher" if name in _HIGHER else "lower")
        for name in names)


#: (name, unit, better) — reported by the traced run only.
PER_LAYER = _per_layer()
