"""The acceptance smoke: real processes, one execution, identical results.

The scenario the CI ``service-smoke`` job runs: two worker daemons
(spawned through the actual ``repro worker`` CLI) drain one store while
the same N=120 neighborhood spec is submitted twice concurrently from
two separate ``repro job submit`` processes.  Asserts the whole dedup +
determinism contract end to end:

* both submissions converge on one job id and the queue journal shows
  exactly **one** lease and one execution;
* both fetched results are identical, and bit-identical to an
  in-process ``run(spec)`` (digest-locked);
* a warm re-submit afterwards answers instantly without queueing.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api.run import run
from repro.api.spec import ControlSpec, ExperimentSpec, FleetPlan, \
    ScenarioSpec
from repro.service import ServiceClient, ServiceStore
from repro.sim.units import MINUTE

from tests.test_service_worker import result_digest

N_HOMES = 120
SRC = Path(__file__).resolve().parent.parent / "src"


def smoke_spec():
    return ExperimentSpec(
        name="service-smoke-n120", kind="neighborhood",
        scenario=ScenarioSpec(horizon_s=30 * MINUTE),
        control=ControlSpec(cp_fidelity="ideal"),
        seeds=(11,), fleet=FleetPlan(homes=N_HOMES, mix="suburb"))


def repro_cli(args, store, **popen_kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC),
               REPRO_SERVICE_STORE=str(store.root))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, **popen_kwargs)


@pytest.mark.usefixtures("close_pools_after")
def test_two_workers_two_submits_one_execution(tmp_path):
    store = ServiceStore(tmp_path / "store")
    spec = smoke_spec()
    spec_file = tmp_path / "smoke.json"
    spec_file.write_text(spec.to_json())

    # Two concurrent submissions from separate processes (the os.link
    # dedup path, not just in-process thread safety).
    submits = [repro_cli(["job", "submit", str(spec_file)], store)
               for _ in range(2)]
    outputs = [proc.communicate(timeout=120)[0] for proc in submits]
    assert all(proc.returncode == 0 for proc in submits), outputs
    job_ids = {line.split()[1] for out in outputs
               for line in out.splitlines() if line.startswith("job ")}
    assert len(job_ids) == 1  # both submissions converged on one id
    job_id = job_ids.pop()

    # Two detached workers race to drain the one job.
    workers = [repro_cli(["worker", "--max-jobs", "1",
                          "--idle-exit", "3"], store)
               for _ in range(2)]
    client = ServiceClient(store)
    result = client.result(job_id, timeout=600, poll_s=0.2)
    for proc in workers:
        out = proc.communicate(timeout=120)[0]
        assert proc.returncode == 0, out

    # Exactly one execution: one lease ever granted, job done on
    # attempt 1 (the losing worker either found the queue empty or
    # completed from the artifact without executing).
    queue = store.queue()
    events = [e["event"] for e in queue.journal_events()]
    assert events.count("lease") == 1
    assert "expire" not in events and "fail" not in events
    record = queue.job(job_id)
    assert record.state == "done" and record.attempts == 1

    # Two fetches, identical bits — and identical to in-process run().
    again = ServiceClient(store).result(job_id, timeout=0)
    assert result_digest(result) == result_digest(again)
    assert result_digest(result) == result_digest(run(spec))

    # Warm re-submit: answered from the artifact store, no new job
    # activity, and the CLI says so.
    warm = repro_cli(["job", "submit", str(spec_file), "--wait",
                      "--timeout", "5"], store)
    out = warm.communicate(timeout=60)[0]
    assert warm.returncode == 0, out
    assert "via artifact store" in out
    assert [e["event"] for e in queue.journal_events()] == events
