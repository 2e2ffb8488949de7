"""Event primitives for the simulation kernel.

An :class:`Event` is the unit of synchronisation: processes yield events and
are resumed when the event is *processed* (popped from the event queue and its
callbacks run).  Events carry a value (delivered to waiters) or an exception
(raised in waiters).

This module is the hottest code in the simulator (one Event per disk rotation,
bus hop, message and CPU charge), so the classes use ``__slots__`` and the
state checks read the underlying attributes directly instead of going through
the public properties.
"""

from repro.sim.errors import SimulationError

_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Events move through three states:

    * *untriggered* — created but not yet succeeded/failed;
    * *triggered* — a value or exception has been set and the event is in the
      environment's queue;
    * *processed* — the environment has popped it and run its callbacks.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self):
        """True once the event has been given a value or an exception."""
        return self._value is not _PENDING

    @property
    def processed(self):
        """True once the environment has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event succeeded, False if it failed.

        Only meaningful once :attr:`triggered` is True.
        """
        return self._ok

    @property
    def value(self):
        """The value the event succeeded with (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SimulationError("value of untriggered event is not available")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value=None):
        """Mark the event successful and schedule its callbacks for *now*."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule_now(self)
        return self

    def fail(self, exception):
        """Mark the event failed with *exception*; waiters will see it raised."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env._schedule_now(self)
        return self

    def __repr__(self):
        state = "processed" if self.callbacks is None else (
            "triggered" if self._value is not _PENDING else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that succeeds automatically after a simulated delay.

    The constructor is flattened (no ``super().__init__`` / ``succeed``
    chain): a timeout is born triggered, so it goes straight into the
    environment's queue.  This is the single most frequently built
    object in a simulation run.
    """

    __slots__ = ()

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        env._schedule_at(env._now + delay, self)


def chain(source, target):
    """Succeed the placeholder *target* with *source*'s value when it fires.

    Used where an event must be handed out *before* the event it stands for
    exists (e.g. a shared disk queue returns a media-completion placeholder
    at submit time and chains it to the drive's real event at dispatch
    time).  Failure of *source* is not propagated — placeholders are only
    used for success-path completions in this codebase.
    """
    def _propagate(event):
        if event._ok and not target.triggered:
            target.succeed(event._value)
    if source.callbacks is None:  # already processed
        if source._ok and not target.triggered:
            target.succeed(source._value)
    else:
        source.callbacks.append(_propagate)


class ConditionValue(dict):
    """Mapping of event -> value returned by :class:`AllOf`."""


class AllOf(Event):
    """Succeeds when *all* child events have been processed successfully.

    Satisfaction is tracked with a pending counter updated once per child
    callback, so waiting on N children costs O(N) total rather than the
    O(N^2) of re-scanning the child list from every callback.  The first
    failed child fails the condition.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, env, events):
        super().__init__(env)
        self._events = events = list(events)
        for event in events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        pending = 0
        on_child = self._on_child
        for event in events:
            if event.callbacks is None:  # already processed
                if not event._ok and self._value is _PENDING:
                    event._defused = True
                    self.fail(event._value)
            else:
                pending += 1
                event.callbacks.append(on_child)
        self._pending = pending
        if self._value is _PENDING and pending == 0:
            self._finish()

    def _on_child(self, event):
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self._finish()

    def _finish(self):
        result = ConditionValue()
        for event in self._events:
            if event.callbacks is None and event._ok:
                result[event] = event._value
        self.succeed(result)
