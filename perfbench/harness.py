"""Process-level plumbing shared by the workloads and the runner.

Everything here is about the benchmark process itself: where its
scratch files live, how op inputs derive from the workload seed, how
outputs are fingerprinted, and what memory, child processes and
``/dev/shm`` segments the run holds.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch root for per-run stores; removed again when a run ends.
SCRATCH_ROOT = ROOT / ".perfbench-tmp"
SHM_DIR = Path("/dev/shm")
#: Hex digits of op keys and digests kept in the reference file.
DIGEST_CHARS = 32


class CheckFailed(AssertionError):
    """An op's output broke an invariant or missed its reference digest."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def derive_seed(seed: int, *parts: object) -> int:
    """A positive 31-bit seed named by ``parts`` under the workload seed."""
    text = ":".join(str(part) for part in (seed, *parts))
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16) \
        % (2 ** 31 - 1) + 1


def digest(*parts: object) -> str:
    """SHA-256 over the parts: arrays by their raw float64 bytes."""
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            hasher.update(np.ascontiguousarray(part, dtype=np.float64)
                          .tobytes())
        else:
            hasher.update(repr(part).encode())
        hasher.update(b"|")
    return hasher.hexdigest()


def series_arrays(series) -> tuple[np.ndarray, np.ndarray]:
    """A step series' event times and values as float64 arrays."""
    return (np.asarray(series.times, dtype=np.float64),
            np.asarray(series.values, dtype=np.float64))


# -- scratch stores ---------------------------------------------------------


def make_scratch() -> Path:
    """A fresh directory for this run's cache and service stores.

    The program's default cache and store locations are pointed inside
    it too, so nothing lands in the home directory even by accident.
    """
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT))
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "default-cache")
    os.environ["REPRO_SERVICE_STORE"] = str(scratch / "default-store")
    return scratch


def remove_scratch(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        SCRATCH_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def fresh_dir(scratch: Path, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=scratch))


# -- processes and shared memory --------------------------------------------


def _parent_of(pid: str) -> Optional[int]:
    try:
        stat = (Path("/proc") / pid / "stat").read_text()
    except OSError:
        return None
    return int(stat.rsplit(")", 1)[1].split()[1])


def descendants() -> list[int]:
    """Pids of every live process below this one."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            parent = _parent_of(entry)
            if parent is not None:
                parents[int(entry)] = parent
    found, frontier = [], {os.getpid()}
    while frontier:
        frontier = {pid for pid, parent in parents.items()
                    if parent in frontier}
        found.extend(sorted(frontier))
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        status = (Path("/proc") / str(pid) / "status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live descendants."""
    pids = [os.getpid(), *descendants()]
    return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0


def shm_segments() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def stop_children() -> None:
    """Stop the worker pools and the shared-memory resource tracker."""
    from repro.experiments.pool import shutdown_all
    shutdown_all()
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


# -- ops ----------------------------------------------------------------------


@dataclass
class Op:
    """One request of the closed loop."""

    #: stable identity of the op's input (reference digests key on it)
    key: str
    #: ``"cold"`` (computes) or ``"warm"`` (answered from stored results)
    kind: str
    #: configuration label (policy/rate, online config, spec kind)
    label: str
    call: Callable[[], object]
    #: validates the output and returns its digest (raises CheckFailed)
    check: Callable[[object], str]


@dataclass
class OpRecord:
    op: Op
    latency: float
    ok: bool
    digest: Optional[str] = None
    output: object = None


def execute(op: Op, references: Optional[dict], tracer=None,
            op_id: int = 0, keep_output: bool = False) -> OpRecord:
    """Run one op, time it, check its output; failures are recorded."""
    scope = tracer.op(op_id) if tracer is not None else nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            output = op.call()
        latency = time.perf_counter() - start
        value = op.check(output)
        if references is not None:
            expected = references.get(op.key[:DIGEST_CHARS])
            check(expected is not None, f"no reference digest for {op.key}")
            check(value[:DIGEST_CHARS] == expected,
                  f"digest {value[:16]} != reference {expected[:16]}")
    except Exception as error:  # an op that raises counts as failed
        latency = time.perf_counter() - start
        print(f"[perfbench] op {op.kind} {op.label} {op.key[:24]} failed: "
              f"{type(error).__name__}: {error}", flush=True)
        return OpRecord(op, latency, False)
    return OpRecord(op, latency, True, value,
                    output if keep_output else None)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- host speed ---------------------------------------------------------------

#: Duration of one :func:`yardstick` pass on the reference host, in
#: seconds (about what a two-core x86 container takes in its slower
#: phases).  End-to-end times are reported in seconds of that host.
YARDSTICK_REF_S = 0.002


def _yardstick_pass() -> float:
    start = time.perf_counter()
    table: dict[int, float] = {}
    total = 0.0
    for i in range(6000):
        table[i % 997] = table.get(i % 997, 0.0) + i * 0.5
        total += (i % 7) * 1.25
    sorted(table.values())
    return time.perf_counter() - start


def yardstick() -> float:
    """Mean wall time of one fixed pure-Python pass on each usable CPU.

    Dict updates, float arithmetic and a sort, like the program's own
    interpreter-bound work, but none of the program's code, so a change
    to the program cannot move it.  The CPUs of a shared host slow down
    independently, and pooled workloads run on all of them, so the pass
    runs pinned to each CPU in turn.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_yardstick_pass())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


class HostSpeed:
    """Yardstick samples taken between ops through a run.

    A shared host's speed drifts by tens of percent over minutes, and
    every op's latency drifts with it.  Scaling a run's times by
    ``YARDSTICK_REF_S / median(yardstick)`` reports them in reference-
    host seconds, so two runs agree however fast the host was.
    """

    def __init__(self, interval: float = 0.2):
        #: wall time per sample: about 2% of the run goes to yardsticks
        self.interval = interval
        self.samples: list[float] = []
        self._last: Optional[float] = None

    def sample(self) -> None:
        """One sample per ``interval`` passed since the last call (at
        least one, at most 20), so long ops weigh as much as short ones."""
        now = time.perf_counter()
        passed = 1 if self._last is None else \
            int((now - self._last) / self.interval)
        for _ in range(min(passed, 20)):
            self.samples.append(yardstick())
        if passed:
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Reference-host seconds per wall second of this run."""
        return YARDSTICK_REF_S / statistics.median(self.samples)


def mix_median(records: list[OpRecord]) -> float:
    """Mean op latency with every op at its configuration's median.

    A configuration is one ``(kind, label)`` pair of the op mix.  One
    plain median over a mix of configurations of different cost jumps
    between them as the mix's counts shift; each configuration's median
    weighted by its share of the ops does not.
    """
    groups: dict[tuple[str, str], list[float]] = defaultdict(list)
    for record in records:
        groups[(record.op.kind, record.op.label)].append(record.latency)
    if not records:
        return 0.0
    return sum(len(latencies) * statistics.median(latencies)
               for latencies in groups.values()) / len(records)


def percentile(values, q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
