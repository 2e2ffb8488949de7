"""Discrete-event simulation kernel used by every other subsystem.

This package is the reproduction's stand-in for the Proteus
parallel-architecture simulator used in the paper.  It carries only the
primitives the model uses:

* an event loop with a virtual clock (:class:`~repro.sim.engine.Environment`),
* generator-based processes (:class:`~repro.sim.process.Process`),
* synchronisation primitives (events, timeouts, :class:`~repro.sim.events.AllOf`,
  barriers),
* resources and FIFO stores for modelling busses, NICs and queues,
* named counters, and
* deterministic random-number streams.

The API deliberately resembles SimPy so that the modelling code in
``repro.disk``, ``repro.network`` and ``repro.core`` reads like ordinary
process-oriented simulation code, but the kernel is self-contained (no
third-party simulation dependency is available in this environment).
"""

from repro.sim.engine import Environment
from repro.sim.errors import SimulationError
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.sim.rng import RandomStreams, spawn_seeds
from repro.sim.stats import Counter
from repro.sim.stores import Store
from repro.sim.sync import Barrier

__all__ = [
    "AllOf",
    "Barrier",
    "Counter",
    "Environment",
    "Event",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
    "spawn_seeds",
]
