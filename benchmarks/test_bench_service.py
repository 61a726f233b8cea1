"""SERVICE — submit→result through the durable job queue.

The two service-plane paths (perfbench's service-mix workload times
them):

* **cold** — submit a spec, have a worker lease + execute + publish,
  fetch the result: the full queue round trip including one real
  execution (one round; the execution dominates and is what PR 5
  already tracks);
* **warm** — re-submit the identical spec and fetch: the dedup fast
  path that must answer from the artifact store in milliseconds
  without touching the queue.
"""

from repro.api import ControlSpec, ExperimentSpec, ScenarioSpec
from repro.service import ServiceClient, ServiceStore, WorkerDaemon
from repro.sim.units import MINUTE

HORIZON = 45 * MINUTE


def _spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="service-latency", scenario=ScenarioSpec(preset="paper-low"),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(3,), until_s=HORIZON)


def test_cold_submit_to_result(tmp_path):
    store = ServiceStore(tmp_path / "store")
    client = ServiceClient(store)
    daemon = WorkerDaemon(store)

    def cold_round_trip():
        job_id = client.submit(_spec())
        report = daemon.step()
        assert report is not None and report.state == "done"
        return client.result(job_id, timeout=0)

    result = cold_round_trip()
    assert result.provenance.spec_hash == client.submit(_spec())


def test_warm_submit_to_result(tmp_path):
    store = ServiceStore(tmp_path / "store")
    client = ServiceClient(store)
    job_id = client.submit(_spec())
    WorkerDaemon(store).step()  # warm the artifact store once

    def warm_round_trip():
        assert client.submit(_spec()) == job_id
        return client.result(job_id, timeout=0)

    result = warm_round_trip()
    assert result.provenance.spec_hash == job_id
    # The warm path never queues: the one journal lease is the warm-up.
    leases = [event for event in store.queue().journal_events()
              if event["event"] == "lease"]
    assert len(leases) == 1
