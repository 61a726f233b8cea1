"""The discrete-event simulation core.

:class:`Simulator` owns the event queue and the clock.  It is a from-scratch
generator-based kernel in the style of SimPy (which is not available in this
environment): processes are generators yielding events, time advances to the
next scheduled event, and ties are broken deterministically by (priority,
insertion order).

Typical use::

    sim = Simulator()

    def blinker(sim, period):
        while True:
            yield sim.timeout(period)
            print("tick at", sim.now)

    sim.spawn(blinker(sim, 1.0))
    sim.run(until=10.0)
"""

from __future__ import annotations

import heapq
import sys
from itertools import count
from typing import Callable, Iterable, Optional

from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

#: Priority used for ordinary events.
PRIORITY_NORMAL = 1
#: Priority for urgent events (process kick-offs, interrupts).
PRIORITY_URGENT = 0

#: Upper bound on recycled Timeout instances kept per simulator.
_TIMEOUT_POOL_MAX = 128

#: ``sys.getrefcount`` result proving an event is referenced only by the
#: local variable inside :meth:`Simulator.step` (plus the call argument).
_REFCOUNT_UNREFERENCED = 2


class Simulator:
    """Discrete-event simulator: event queue, clock and process management."""

    __slots__ = ("_now", "_queue", "_seq", "_active_process",
                 "_timeout_pool")

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = count()
        self._active_process: Optional[Process] = None
        #: free list of processed, provably-unreferenced Timeouts — the
        #: kernel's highest-churn allocation, recycled by :meth:`step`
        self._timeout_pool: list[Timeout] = []

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time (seconds by convention in this project)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    # -- event factories ------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now.

        Pulls from the simulator's Timeout free list when possible
        (see :meth:`step`); behaviour is indistinguishable from a fresh
        instance.
        """
        pool = self._timeout_pool
        if pool:
            event = pool.pop()
            event._reinit(delay, value)
            self._schedule(event, delay=delay)
            return event
        return Timeout(self, delay, value)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing once every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing once any event in ``events`` has fired."""
        return AnyOf(self, events)

    def every(self, period: float, callback: Callable[[], None],
              idle: Optional[Callable[[int], int]] = None) -> Event:
        """Call ``callback`` now, then every ``period`` time units.

        The periodic counterpart of a process looping ``callback(); yield
        sim.timeout(period)``, without its generator resume or a
        :class:`Timeout` per period: one event is re-armed in place after
        each call.  It takes its queue key exactly where that process
        would — the first at this call (as :meth:`spawn` schedules a
        process kick-off), each later one right after ``callback``
        returns — so events at the same instant run in the same order
        as under the process.  Returns the event (it never completes).

        ``idle`` lets the caller skip ticks that would change nothing.
        After each ``callback`` the kernel counts the upcoming ticks
        that would run before every event already queued — each tick
        keyed ``(t, PRIORITY_NORMAL, seq)`` with a fresh ``seq``, so it
        sorts before the queue's first event when it is earlier, or at
        the same instant with a larger priority number (the stop event
        of :meth:`run`).  When there is at least one, it calls
        ``idle(most)`` with that count.  The hook returns how many of
        those ticks, ``k <= most``, are no-ops, having accounted for
        them itself.  Nothing else can run in between, so the kernel
        steps past them: it advances the tick time by ``period`` k
        times (the additions the k ticks would have made), takes k
        sequence numbers, and queues the next tick under the exact key
        the tick-by-tick loop would have given it.  Nothing is skipped
        while the queue is empty.
        """
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        tick = Event(self)
        tick._value = None
        queue = self._queue

        def fire(event: Event) -> None:
            callback()
            event.callbacks = rearm
            when = self._now + period
            skipped = 0
            if idle is not None and queue:
                top_when, top_priority = queue[0][0], queue[0][1]
                inclusive = top_priority > PRIORITY_NORMAL
                most, due = 0, when
                while due < top_when or (inclusive and due == top_when):
                    most += 1
                    due += period
                if most:
                    skipped = idle(most)
                    if skipped == most:
                        when = due
                    else:
                        for _ in range(skipped):
                            when += period
            seq = next(self._seq)
            if skipped:
                seq += skipped
                self._seq = count(seq + 1)
            heapq.heappush(queue, (when, PRIORITY_NORMAL, seq, event))

        rearm = [fire]
        tick.callbacks = rearm
        self._schedule(tick)
        return tick

    def spawn(self, generator: ProcessGenerator,
              name: Optional[str] = None) -> Process:
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator, name=name)

    # Alias familiar to SimPy users.
    process = spawn

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = PRIORITY_NORMAL) -> None:
        """Insert a triggered event into the queue (kernel internal)."""
        heapq.heappush(self._queue,
                       (self._now + delay, priority, next(self._seq), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _prio, _seq, event = heapq.heappop(self._queue)
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("event scheduled in the past")
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(event)
        if not event.ok and not event._defused:
            # An event failed and nobody was there to handle it: crash the
            # simulation rather than silently dropping the error.
            raise event.value  # type: ignore[misc]
        # Recycle the highest-churn allocation: a processed Timeout whose
        # refcount proves nothing outside this frame still references it
        # (a process that stored `t = sim.timeout(...)` keeps it alive and
        # therefore out of the pool).  Events cannot be weakly referenced
        # (__slots__ without __weakref__), so the refcount check is exact.
        if (type(event) is Timeout
                and sys.getrefcount(event) == _REFCOUNT_UNREFERENCED
                and len(self._timeout_pool) < _TIMEOUT_POOL_MAX):
            self._timeout_pool.append(event)

    def run(self, until: Optional[float | Event] = None) -> object:
        """Run until the queue drains, ``until`` time passes, or event fires.

        ``until`` may be a plain number (run up to and including that time),
        an :class:`Event` (run until it fires, returning its value), or
        ``None`` (run until no events remain).
        """
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                return stop_event.value
            stop_event.callbacks.append(_StopCallback())
        else:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} lies in the past (now={self._now})")
            stop_event = Event(self)
            stop_event.callbacks.append(_StopCallback())
            self._schedule(stop_event, delay=horizon - self._now,
                           priority=PRIORITY_URGENT + 2)
            stop_event._ok = True
            stop_event._value = None

        try:
            while self._queue:
                self.step()
        except StopSimulation as stop:
            return stop.value
        if stop_event is not None and not stop_event.processed:
            if isinstance(until, Event):
                raise SimulationError(
                    "run(until=event) exhausted all events before it fired")
        return None


class _StopCallback:
    """Callback that halts :meth:`Simulator.run` when its event fires."""

    def __call__(self, event: Event) -> None:
        event._defused = True
        raise StopSimulation(event._value)
