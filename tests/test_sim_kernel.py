"""Kernel semantics: clock, event ordering, processes, run() modes."""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator


def test_initial_time_is_zero():
    assert Simulator().now == 0.0


def test_custom_start_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc(sim):
        yield sim.timeout(3.5)
        log.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert log == [3.5]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc(sim):
        value = yield sim.timeout(1.0, "payload")
        got.append(value)

    sim.spawn(proc(sim))
    sim.run()
    assert got == ["payload"]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.spawn(proc(sim, 3.0, "c"))
    sim.spawn(proc(sim, 1.0, "a"))
    sim.spawn(proc(sim, 2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_creation_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        sim.spawn(proc(sim, tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_time_stops_clock():
    sim = Simulator()

    def ticker(sim):
        while True:
            yield sim.timeout(1.0)

    sim.spawn(ticker(sim))
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_past_raises():
    sim = Simulator(start_time=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)
        return "done"

    process = sim.spawn(proc(sim))
    assert sim.run(until=process) == "done"
    assert sim.now == 2.0


def test_run_until_unfired_event_raises():
    sim = Simulator()
    never = sim.event()
    with pytest.raises(SimulationError):
        sim.run(until=never)


def test_run_drains_queue_without_until():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(7.0)

    sim.spawn(proc(sim))
    sim.run()
    assert sim.now == 7.0
    assert sim.peek() == float("inf")


def test_step_on_empty_queue_raises():
    with pytest.raises(SimulationError):
        Simulator().step()


def test_process_waits_on_another_process():
    sim = Simulator()
    log = []

    def worker(sim):
        yield sim.timeout(4.0)
        return 42

    def waiter(sim, target):
        value = yield target
        log.append((sim.now, value))

    target = sim.spawn(worker(sim))
    sim.spawn(waiter(sim, target))
    sim.run()
    assert log == [(4.0, 42)]


def test_waiting_on_finished_process_resumes_immediately():
    sim = Simulator()
    log = []

    def worker(sim):
        yield sim.timeout(1.0)
        return "early"

    def late_waiter(sim, target):
        yield sim.timeout(5.0)
        value = yield target
        log.append((sim.now, value))

    target = sim.spawn(worker(sim))
    sim.spawn(late_waiter(sim, target))
    sim.run()
    assert log == [(5.0, "early")]


def test_unhandled_process_exception_crashes_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    sim.spawn(bad(sim))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_exception_propagates_to_waiting_process():
    sim = Simulator()
    caught = []

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("inner")

    def guard(sim, target):
        try:
            yield target
        except ValueError as exc:
            caught.append(str(exc))

    target = sim.spawn(bad(sim))
    sim.spawn(guard(sim, target))
    sim.run()
    assert caught == ["inner"]


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    def killer(sim, process):
        yield sim.timeout(2.0)
        process.interrupt("reason")

    process = sim.spawn(victim(sim))
    sim.spawn(killer(sim, process))
    sim.run()
    assert log == [(2.0, "reason")]


def test_interrupted_process_can_continue():
    sim = Simulator()
    log = []

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(1.0)
        log.append(sim.now)

    def killer(sim, process):
        yield sim.timeout(2.0)
        process.interrupt()

    process = sim.spawn(victim(sim))
    sim.spawn(killer(sim, process))
    sim.run()
    assert log == [3.0]


def test_interrupting_dead_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    process = sim.spawn(quick(sim))
    sim.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_process_is_alive_lifecycle():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5.0)

    process = sim.spawn(proc(sim))
    assert process.is_alive
    sim.run()
    assert not process.is_alive


def test_spawn_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.spawn(bad(sim))
    with pytest.raises(RuntimeError, match="expected an Event"):
        sim.run()


def test_cross_simulator_event_rejected():
    sim_a = Simulator()
    sim_b = Simulator()

    def bad(sim):
        yield sim_b.timeout(1.0)

    sim_a.spawn(bad(sim_a))
    with pytest.raises(RuntimeError, match="another simulator"):
        sim_a.run()


def test_zero_delay_timeout_runs_at_current_instant():
    sim = Simulator()
    log = []

    def proc(sim):
        yield sim.timeout(0.0)
        log.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert log == [0.0]


def test_active_process_visible_during_step():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(1.0)
        seen.append(sim.active_process)

    process = sim.spawn(proc(sim))
    sim.run()
    assert seen == [process]
    assert sim.active_process is None


def test_many_processes_complete():
    sim = Simulator()
    done = []

    def proc(sim, i):
        yield sim.timeout(i % 7 + 0.1)
        done.append(i)

    for i in range(500):
        sim.spawn(proc(sim, i))
    sim.run()
    assert len(done) == 500


# ---------------------------------------------------------------------------
# pooled Timeout events (PR 4)
# ---------------------------------------------------------------------------

def test_unreferenced_timeouts_are_recycled():
    """Plain `yield sim.timeout(...)` waits reuse pooled instances."""
    sim = Simulator()

    def ticker(sim):
        for _ in range(50):
            yield sim.timeout(1.0)

    sim.spawn(ticker(sim))
    sim.run()
    assert sim.now == 50.0
    assert len(sim._timeout_pool) >= 1  # churned timeouts were recycled


def test_referenced_timeout_is_never_recycled():
    """A timeout the process still holds keeps its identity and value."""
    sim = Simulator()
    seen = {}

    def holder(sim):
        first = sim.timeout(1.0, value="first")
        yield first
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)
        # `first` was processed two events ago; had it been recycled,
        # its value would now belong to a different wait.
        seen["value"] = first.value
        seen["processed"] = first.processed

    sim.spawn(holder(sim))
    sim.run()
    assert seen == {"value": "first", "processed": True}


def test_recycled_timeout_behaves_like_fresh():
    sim = Simulator()
    order = []

    def a(sim):
        yield sim.timeout(1.0)
        order.append(("a", sim.now))
        yield sim.timeout(3.0, value=7)
        order.append(("a2", sim.now))

    def b(sim):
        got = yield sim.timeout(2.0, value="payload")
        order.append(("b", sim.now, got))

    sim.spawn(a(sim))
    sim.spawn(b(sim))
    sim.run()
    assert order == [("a", 1.0), ("b", 2.0, "payload"), ("a2", 4.0)]
    with pytest.raises(ValueError):
        sim.timeout(-1.0)  # recycled path validates like the constructor


def _periodic_log(use_every):
    """Same-instant events around a periodic callback, in run order."""
    sim = Simulator()
    log = []

    def marker(label, first, step):
        yield sim.timeout(first)
        while True:
            log.append((sim.now, label))
            yield sim.timeout(step)

    def tick():
        log.append((sim.now, "tick"))
        # Both land on the next tick instant: the timeout is keyed before
        # the re-arm, the spawned process's wait after it.
        sim.timeout(1.0).callbacks.append(
            lambda _event: log.append((sim.now, "direct")))
        sim.spawn(marker("echo", 1.0, 100.0))

    sim.spawn(marker("early", 1.0, 1.0))
    if use_every:
        sim.every(1.0, tick)
    else:
        def loop():
            while True:
                tick()
                yield sim.timeout(1.0)
        sim.spawn(loop())
    sim.spawn(marker("late", 0.0, 0.5))
    sim.run(until=4.0)
    return log


def test_every_orders_like_a_timeout_loop():
    assert _periodic_log(True) == _periodic_log(False)
    assert [entry for entry in _periodic_log(True) if entry[0] == 1.0] == [
        (1.0, "early"), (1.0, "direct"), (1.0, "tick"), (1.0, "echo"),
        (1.0, "late")]


def test_every_rejects_non_positive_period():
    sim = Simulator()
    for period in (0.0, -1.0):
        with pytest.raises(ValueError):
            sim.every(period, lambda: None)


def _idle_probe(top_at, top_priority, skip):
    """Tick every 1.0 beside one event at ``top_at``; log the idle calls."""
    from repro.sim.kernel import PRIORITY_NORMAL

    sim = Simulator()
    calls, ticks = [], []
    top = sim.event()
    top._value = None
    top.callbacks.append(lambda _event: ticks.append(("top", sim.now)))

    def idle(most):
        calls.append((sim.now, most))
        return skip(most)

    sim.every(1.0, lambda: ticks.append(("tick", sim.now)),
              idle=None if skip is None else idle)
    sim._schedule(top, delay=top_at, priority=top_priority)
    if top_priority == PRIORITY_NORMAL + 1:  # the stop event's priority
        sim.run(until=top_at)
    else:
        sim.run(until=top_at + 0.5)
    return calls, ticks, sorted(key[:3] for key in sim._queue)


def test_every_idle_hook_counts_ticks_before_the_queue_top():
    from repro.sim.kernel import PRIORITY_NORMAL, PRIORITY_URGENT

    # Ticks at 1..5 sort before an event at 5.5.
    calls, ticks, _ = _idle_probe(5.5, PRIORITY_NORMAL, lambda most: 0)
    assert calls[0] == (0.0, 5)
    # A tick at the top's instant runs after an earlier-keyed event of
    # the same or a smaller priority number, before a larger one.
    for priority, most in ((PRIORITY_URGENT, 4), (PRIORITY_NORMAL, 4),
                           (PRIORITY_NORMAL + 1, 5)):
        calls, _, _ = _idle_probe(5.0, priority, lambda most: 0)
        assert calls[0] == (0.0, most)


def test_every_idle_hook_skips_to_the_key_of_the_tick_by_tick_loop():
    from repro.sim.kernel import PRIORITY_NORMAL

    for top_at, priority in ((5.5, PRIORITY_NORMAL), (5.0, PRIORITY_NORMAL),
                             (5.0, PRIORITY_NORMAL + 1)):
        _, plain, plain_queue = _idle_probe(top_at, priority, None)
        calls, fast, fast_queue = _idle_probe(top_at, priority,
                                              lambda most: most)
        # Skipped ticks never call back; everything else is unchanged.
        assert len(calls) == 1
        skipped = {("tick", float(index))
                   for index in range(1, calls[0][1] + 1)}
        assert [entry for entry in plain if entry not in skipped] == fast
        assert fast_queue == plain_queue
        # Taking fewer than offered resumes at the next one.
        _, part, part_queue = _idle_probe(top_at, priority,
                                          lambda most: min(most, 2))
        assert ("tick", 3.0) in part and ("tick", 1.0) not in part
        assert part_queue == plain_queue
    # No event queued: nothing to step past, so the hook is not called.
    sim = Simulator()
    calls = []
    sim.every(1.0, lambda: None, idle=lambda most: calls.append(most) or 0)
    sim.step()
    assert calls == []
