"""Per-home result transport at N=200 homes, via the spec API.

The ROADMAP flags per-home pickle transport as the scaling bottleneck
for very large fleets ("fine at N=20, measure at N=500").  This bench is
the measured baseline the shared-memory/batched-transport work will be
judged against: it runs a 200-home neighborhood through
``repro.api.run`` and measures the ``portable()`` pickle path every
worker result crosses a process boundary on — bytes per home, total
payload, serialize/deserialize wall time.  The payload sizes (plus the
regenerating spec hash) go to ``benchmarks/results/transport-n200.txt``;
the wall times vary run to run, so they stay out of it and the
committed file stays byte-stable.

A 120-minute horizon at ideal CP fidelity keeps the bench inside the
tier-1 budget; payload sizes scale with requests and series length, so
the recorded spec pins the exact configuration future runs must reuse
for a fair comparison.
"""

import pickle
import time

import numpy as np

from repro.api import (
    ControlSpec,
    ExperimentSpec,
    FleetPlan,
    ScenarioSpec,
    run,
)
from repro.experiments.figures import FigureData
from repro.sim.units import MINUTE

N_HOMES = 200
HORIZON = 120 * MINUTE
JOBS = 4

SPEC = ExperimentSpec(
    name="transport-n200", kind="neighborhood",
    scenario=ScenarioSpec(horizon_s=HORIZON),
    control=ControlSpec(cp_fidelity="ideal"),
    seeds=(1,),
    fleet=FleetPlan(homes=N_HOMES, mix="suburb"))


def measure_transport() -> FigureData:
    """Run the fleet and measure the per-home pickle transport path."""
    t_run = time.perf_counter()
    result = run(SPEC, jobs=JOBS)
    run_s = time.perf_counter() - t_run
    homes = result.neighborhood.homes

    t_ser = time.perf_counter()
    payloads = [pickle.dumps(home.portable(),
                             protocol=pickle.HIGHEST_PROTOCOL)
                for home in homes]
    serialize_s = time.perf_counter() - t_ser
    t_de = time.perf_counter()
    for payload in payloads:
        pickle.loads(payload)
    deserialize_s = time.perf_counter() - t_de

    sizes = np.array([len(payload) for payload in payloads])
    data = {
        "n_homes": len(homes),
        "horizon_min": HORIZON / MINUTE,
        "jobs": JOBS,
        "spec_hash": result.provenance.spec_hash,
        "total_mb": float(sizes.sum()) / 1e6,
        "mean_kb": float(sizes.mean()) / 1e3,
        "p95_kb": float(np.percentile(sizes, 95)) / 1e3,
        "max_kb": float(sizes.max()) / 1e3,
        "serialize_s": serialize_s,
        "deserialize_s": deserialize_s,
        "run_s": run_s,
        "transport_share_pct": 100.0 * (serialize_s + deserialize_s)
        / run_s,
    }
    from repro.analysis.report import format_table
    text = format_table(
        ["metric", "value"],
        [["homes", data["n_homes"]],
         ["horizon", f"{data['horizon_min']:.0f} min (ideal CP)"],
         ["jobs", JOBS],
         ["total portable payload", f"{data['total_mb']:.2f} MB"],
         ["mean per-home payload", f"{data['mean_kb']:.1f} kB"],
         ["p95 per-home payload", f"{data['p95_kb']:.1f} kB"],
         ["max per-home payload", f"{data['max_kb']:.1f} kB"],
         ["spec hash", data["spec_hash"][:12]]],
        title=f"Per-home result transport baseline (N={N_HOMES}, "
              "Result.portable pickle path)")
    text += ("\nbaseline for the ROADMAP shared-memory/batched-transport "
             "item; rerun with the same spec for a fair comparison")
    return FigureData(figure_id="transport-n200", text=text, data=data)


def test_transport_baseline_n200(record_figure):
    figure = measure_transport()
    record_figure(figure)
    data = figure.data

    assert data["n_homes"] == N_HOMES
    # The whole fleet's payload must stay well under a memory-pressure
    # threshold, and every home must actually survive the round trip.
    assert data["total_mb"] < 100.0
    assert data["mean_kb"] > 0.0
