"""Discrete-event simulation kernel (built from scratch for this project).

Public surface::

    from repro.sim import Simulator, RandomStreams, StepSeries

    sim = Simulator()
    sim.spawn(my_generator(sim))
    sim.run(until=3600.0)
"""

from repro.sim.errors import EventAlreadyFired, Interrupt, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import Simulator
from repro.sim.monitor import Counter, GaugeSum, StepSeries
from repro.sim.process import Process
from repro.sim.rng import RandomStreams, exponential_interarrival
from repro.sim import units

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Event",
    "EventAlreadyFired",
    "GaugeSum",
    "Interrupt",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "StepSeries",
    "Timeout",
    "exponential_interarrival",
    "units",
]
