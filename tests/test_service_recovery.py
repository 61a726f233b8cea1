"""Queue crash-recovery: ``kill -9`` a worker mid-lease, recover a
bit-identical result.

The acceptance lock of the service plane's durability story: a worker
holding a lease is SIGKILLed (no cleanup of any kind runs), its lease
expires for want of heartbeats, another worker re-leases the job, and
the final artifact is digest-identical to an in-process ``run(spec)``.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api.run import run
from repro.service import ServiceClient, ServiceStore, WorkerDaemon

from tests.test_service_worker import result_digest, tiny_spec

LEASE_TTL = 1.0

#: Subprocess body: lease the one queued job, report, then wedge —
#: holding the lease without ever finishing, exactly like a worker
#: that hung or lost its host.  The parent SIGKILLs it mid-lease.
VICTIM = """
import sys, time
import repro.service.worker as worker_module
from repro.service import ServiceStore, WorkerDaemon

def wedge(*args, **kwargs):
    print("LEASED", flush=True)
    time.sleep(300)

worker_module.execute_job = wedge
WorkerDaemon(ServiceStore(sys.argv[1]), worker_id="victim",
             lease_ttl={ttl}).step()
"""


@pytest.mark.usefixtures("close_pools_after")
def test_kill9_mid_lease_recovers_bit_identical(tmp_path):
    store = ServiceStore(tmp_path / "store")
    spec = tiny_spec(name="survives-kill9")
    client = ServiceClient(store)
    job_id = client.submit(spec)

    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent
                              / "src"))
    victim = subprocess.Popen(
        [sys.executable, "-c", VICTIM.format(ttl=LEASE_TTL),
         str(store.root)],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        assert victim.stdout.readline().strip() == "LEASED"
        queue = store.queue(lease_ttl=LEASE_TTL)
        lease = queue.lease_of(job_id)
        assert lease is not None and lease.worker == "victim"
        assert queue.job(job_id).state == "running"
    finally:
        victim.kill()  # SIGKILL: no finally blocks, no lease release
        victim.wait(timeout=30)
    assert victim.returncode == -signal.SIGKILL

    # The lease is still on disk (nobody cleaned up) but stops being
    # honoured once its deadline passes without heartbeats.
    rescuer = WorkerDaemon(store, worker_id="rescuer",
                           lease_ttl=LEASE_TTL)
    assert rescuer.step() is None  # lease not yet expired: hands off
    time.sleep(LEASE_TTL + 0.3)
    report = rescuer.step()
    assert report is not None and report.state == "done"
    assert report.job_id == job_id

    record = store.queue().job(job_id)
    assert record.state == "done"
    assert record.attempts == 2  # victim's lease + the takeover
    events = [e["event"] for e in store.queue().journal_events()]
    assert events.count("lease") == 2
    assert "expire" in events and events[-1] == "done"

    # The recovered artifact is bit-identical to an in-process run.
    recovered = client.result(job_id, timeout=0)
    assert result_digest(recovered) == result_digest(run(spec))
