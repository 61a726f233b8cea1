"""FAULTS — the injection plane must be free when nothing is injected.

Every hot path in the fleet pipeline carries fault probes (telemetry
ingest, frame unpack, cache reads, worker attempts).  On a clean run
those probes are one module-global read returning ``None``; this check
pins that :func:`repro.faults.get_injector` answers ``None`` outside any
fault scope.  The clean-run overhead bounds live in
``tests/test_faults.py::test_disabled_injector_overhead``.
"""

from repro.faults import get_injector


def test_get_injector_is_one_global_read():
    def probe():
        total = 0
        for _ in range(10_000):
            if get_injector() is not None:
                total += 1
        return total

    assert probe() == 0
