"""The simulation environment: virtual clock plus a two-tier event calendar.

The calendar has two tiers:

* a FIFO **ring** (`collections.deque`) holding events scheduled *at the
  current instant* — the ``Event.succeed()`` / ``fail()`` /
  message-delivery path, which is the large majority of all scheduling in
  a protocol simulation.  Ring entries are appended in eid order and the
  clock never moves backwards, so the ring is always sorted by
  ``(time, eid)`` without any heap discipline: O(1) push, O(1) pop.
* the classic binary **heap** for future events (timeouts, ``event_at``).

Entries in both tiers are ``(time, eid, event)`` 3-tuples, so a pop is one
tuple comparison between the two heads.  Pops interleave the tiers in exact
``(time, eid)`` order, which makes the two-tier calendar observationally
identical to a single heap — ``tests/sim/test_calendar.py`` property-tests
the equivalence against a reference heap.

:meth:`Environment.run` is one flat loop for every stop condition (calendar
exhausted, a stop time, an awaited event) with or without the watchdog:
popping an event, advancing the clock and running the callbacks happens
inline (rather than through :meth:`Environment.step`) so the per-event cost
is a handful of bytecodes.  :meth:`~Environment.step` remains the one-event
reference implementation for tests and debugging; the inlined body must
stay in sync with it.
"""

import time
import weakref
from collections import deque
from heapq import heappop, heappush

from repro.sim.errors import DeadlockError, SimulationError
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.process import Process


class Environment:
    """Holds the simulation clock and the pending-event calendar.

    All model objects (disks, busses, NICs, caches, processes) are created
    against a single :class:`Environment`; calling :meth:`run` advances the
    virtual clock by popping events in time order and resuming the processes
    waiting on them.
    """

    __slots__ = ("_now", "_heap", "_ring", "_eid", "_active_process",
                 "_processes")

    def __init__(self, initial_time=0.0):
        self._now = float(initial_time)
        self._heap = []
        self._ring = deque()
        self._eid = 0
        self._active_process = None
        self._processes = weakref.WeakSet()

    # -- clock ---------------------------------------------------------------
    @property
    def now(self):
        """Current simulated time, in seconds."""
        return self._now

    @property
    def active_process(self):
        """The process currently being resumed (None outside callbacks)."""
        return self._active_process

    # -- event construction helpers ------------------------------------------
    def event(self):
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create an event that fires after *delay* seconds of simulated time."""
        return Timeout(self, delay, value)

    def event_at(self, when):
        """A pre-succeeded event processed at the absolute instant *when*.

        Like ``timeout(when - now)``, except the target time is taken
        verbatim: ``now + (when - now)`` does not always round back to
        ``when`` in floating point.  Delay fusion in the device models uses
        this to land a single fused timeout on exactly the instant the
        unfused sequence of timeouts would have reached.
        """
        if when < self._now:
            raise ValueError(f"event_at({when!r}) is in the past (now={self._now})")
        event = Event(self)
        event._ok = True
        event._value = None
        self._schedule_at(when, event)
        return event

    def process(self, generator):
        """Start a new :class:`Process` running *generator*."""
        return Process(self, generator)

    def all_of(self, events):
        """Composite event succeeding when every event in *events* succeeds."""
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------------------
    def _schedule_now(self, event):
        """Append *event* to the ring at the current instant (``succeed``/``fail``)."""
        eid = self._eid
        self._eid = eid + 1
        self._ring.append((self._now, eid, event))

    def _schedule_at(self, when, event):
        """Insert *event* at absolute time *when* (validated: not in the past)."""
        eid = self._eid
        self._eid = eid + 1
        if when == self._now:
            self._ring.append((when, eid, event))
        else:
            heappush(self._heap, (when, eid, event))

    def step(self):
        """Process exactly one event (advancing the clock to its time)."""
        ring = self._ring
        heap = self._heap
        if ring and (not heap or ring[0] < heap[0]):
            when, _eid, event = ring.popleft()
        elif heap:
            when, _eid, event = heappop(heap)
        else:
            raise SimulationError("step() on an empty event queue")
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An event failed and nobody was waiting to handle the failure:
            # surface the original exception rather than losing it.
            raise event._value

    def _deadlock(self, reason):
        """Build a :class:`DeadlockError` naming the still-alive processes.

        Processes register weakly at construction, so the diagnosis can list
        who is stuck and what each one is waiting on — turning "the run just
        stopped" into an actionable traceback.  Names are sorted for stable
        messages (WeakSet iteration order is arbitrary).
        """
        stuck = sorted(
            (process for process in self._processes if process.is_alive),
            key=lambda process: process.name)
        lines = [f"{reason} [t={self._now:.6g}]"]
        if stuck:
            lines.append(f"{len(stuck)} process(es) still alive:")
            for process in stuck[:20]:
                target = process._waiting_on
                waiting = f"waiting on {target!r}" if target is not None \
                    else "not waiting on any event"
                lines.append(f"  - {process.name}: {waiting}")
            if len(stuck) > 20:
                lines.append(f"  ... and {len(stuck) - 20} more")
        else:
            lines.append("no registered processes are alive (the awaited "
                         "event has no producer)")
        return DeadlockError("\n".join(lines))

    #: Events between watchdog wall-clock checks.  Large enough that the
    #: ``time.monotonic`` call is noise, small enough that a livelock is
    #: caught within a fraction of the budget.
    _WATCHDOG_STRIDE = 4096

    def run(self, until=None, watchdog=None):
        """Run until the calendar empties, *until* time passes, or *until* fires.

        ``until`` may be ``None`` (run to exhaustion), a number (absolute
        simulated time), or an :class:`Event` (run until it is processed and
        return its value).  If the calendar empties before that event fires,
        the run raises :class:`DeadlockError` naming the stuck processes.

        ``watchdog``, if given, is a wall-clock budget in seconds: if that
        much real time passes without simulated time advancing (events firing
        forever at one instant, or a callback spinning), the run raises
        :class:`DeadlockError` naming the stuck processes instead of hanging.
        The check is a countdown read every :attr:`_WATCHDOG_STRIDE` events,
        so an armed watchdog costs next to nothing.
        """
        if watchdog is not None and watchdog <= 0:
            raise ValueError(f"watchdog budget must be positive, got {watchdog!r}")
        sentinel = None
        stop_at = float("inf")
        if isinstance(until, Event):
            sentinel = until
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(f"until={stop_at} is in the past (now={self._now})")
        heap = self._heap
        ring = self._ring
        ring_popleft = ring.popleft
        countdown = stride = self._WATCHDOG_STRIDE
        last_advance_sim = self._now
        last_advance_wall = time.monotonic()

        while sentinel is None or sentinel.callbacks is not None:
            # Ring entries sit at the current instant, which never passes
            # stop_at, so only the heap head needs the stop-time check.
            if ring and (not heap or ring[0] < heap[0]):
                when, _eid, event = ring_popleft()
            elif heap and heap[0][0] <= stop_at:
                when, _eid, event = heappop(heap)
            elif sentinel is not None:
                raise self._deadlock(
                    "simulation ran out of events before the awaited event "
                    "fired (a process is waiting on something that never "
                    "happens)")
            else:
                break
            self._now = when
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
            countdown -= 1
            if not countdown:
                countdown = stride
                if watchdog is not None:
                    if self._now > last_advance_sim:
                        last_advance_sim = self._now
                        last_advance_wall = time.monotonic()
                    elif time.monotonic() - last_advance_wall > watchdog:
                        raise self._deadlock(
                            f"watchdog expired: {watchdog:g}s of wall time "
                            f"passed without simulated time advancing "
                            f"(livelock at one instant, or a stalled callback)")

        if sentinel is not None:
            if sentinel._ok:
                return sentinel._value
            raise sentinel._value
        if until is not None:
            self._now = stop_at
        return None
