"""MICRO — substrate smoke checks.

One pass each through the kernel, the scheduler's planning step, the
CSMA medium and the analysis layer, with their outputs asserted.
"""

import numpy as np

from repro.core import CpItem, DeviceStatus, SchedulerConfig, SharedView, \
    plan_admissions
from repro.han.dutycycle import DutyCycleSpec
from repro.han.requests import RequestAnnouncement
from repro.radio import Channel, CsmaMedium, Frame
from repro.sim import Simulator, StepSeries
from repro.sim.rng import RandomStreams

SPEC = DutyCycleSpec(min_dcd=900.0, max_dcp=1800.0)


def test_kernel_event_throughput():
    """Schedule-and-run 10k timer events."""

    def run():
        sim = Simulator()

        def ticker(sim):
            for _ in range(100):
                yield sim.timeout(1.0)

        for _ in range(100):
            sim.spawn(ticker(sim))
        sim.run()
        return sim.now

    now = run()
    assert now == 100.0


def test_plan_admissions_speed():
    """One full planning pass: 26 active devices + 10 pending requests."""
    view = SharedView()
    for device_id in range(26):
        view.merge_item(CpItem(DeviceStatus(
            device_id=device_id, version=1, active=device_id % 2 == 0,
            remaining_cycles=1 if device_id % 2 == 0 else 0,
            assigned_slot=None, power_w=1000.0,
            burst_start=float(device_id) * 60.0
            if device_id % 2 == 0 else None)))
    for i in range(10):
        device_id = 1 + 2 * (i % 13)
        view.pending[100 + i] = RequestAnnouncement(
            request_id=100 + i, device_id=device_id,
            arrival_time=float(i), demand_cycles=1, power_w=1000.0)
    config = SchedulerConfig(spec=SPEC)

    decisions = plan_admissions(view, config, now=0.0)
    assert len(decisions) == 10


def test_step_series_stats_speed():
    """Time-weighted stats over a 10k-point load trace."""
    series = StepSeries()
    rng = RandomStreams(1).stream("series")
    values = rng.integers(0, 15, size=10_000).astype(float) * 1000.0
    for i, v in enumerate(values):
        series.record(float(i * 10), float(v))

    def stats():
        return (series.mean(0.0, 1e5), series.std(0.0, 1e5),
                series.maximum(0.0, 1e5), series.max_step(0.0, 1e5))

    mean, std, peak, step = stats()
    assert 0 < mean < 15000
    assert peak <= 14000.0


def test_csma_medium_throughput():
    """Back-to-back frame transmissions through the interference model.

    A single round-robin sender keeps the channel collision-free so the
    bench isolates the medium's bookkeeping cost per frame.
    """
    streams = RandomStreams(5)
    positions = np.column_stack([np.arange(10) * 12.0, np.zeros(10)])
    channel = Channel(positions, rng=streams.stream("chan"))

    def run():
        sim = Simulator()
        medium = CsmaMedium(sim, channel, streams.stream("medium"))
        delivered = []
        for node in range(10):
            medium.register(node, lambda f, r: delivered.append(f))

        def sender(sim):
            for seq in range(200):
                src = seq % 9
                frame = Frame(source=src, destination=src + 1,
                              payload=None, payload_bytes=20, sequence=seq)
                yield from medium.transmit(src, frame)
                yield sim.timeout(0.001)

        sim.spawn(sender(sim))
        sim.run()
        return len(delivered)

    delivered = run()
    assert delivered >= 190  # strong adjacent links, no collisions
