"""Capacity-limited resources (busses, NIC ports, CPU slots...).

The model mirrors SimPy's ``Resource``: ``request()`` returns an event that
fires once a slot is available; ``release(request)`` frees the slot.  The
``using`` context-style helper is provided via :meth:`Resource.acquire` for
the common acquire/hold/release idiom inside process generators.

Every bus hop and CPU charge goes through a resource, so the waiter queue is a
deque (O(1) FIFO handoff) and :class:`Request` carries ``__slots__``.
"""

from collections import deque

from repro.sim.events import Event, Timeout


class Request(Event):
    """The event returned by :meth:`Resource.request`."""

    __slots__ = ("resource",)

    def __init__(self, resource):
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.resource.release(self)
        return False


class Resource:
    """A FIFO resource with fixed integer capacity.

    Typical use inside a process::

        req = bus.request()
        yield req
        yield env.timeout(transfer_time)
        bus.release(req)
    """

    __slots__ = ("env", "capacity", "name", "_users", "_waiters")

    def __init__(self, env, capacity=1, name=None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name or f"resource@{id(self):#x}"
        self._users = []
        self._waiters = deque()

    # -- introspection --------------------------------------------------------
    @property
    def count(self):
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self):
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    # -- core API ----------------------------------------------------------------
    def request(self):
        """Ask for a slot; returns an event that fires when the slot is granted."""
        req = Request(self)
        users = self._users
        if len(users) < self.capacity:
            users.append(req)
            req.succeed()
        else:
            self._waiters.append(req)
        return req

    def release(self, request):
        """Return a previously granted slot."""
        users = self._users
        try:
            users.remove(request)
        except ValueError:
            raise ValueError("release() of a request that does not hold this resource")
        waiters = self._waiters
        while waiters and len(users) < self.capacity:
            nxt = waiters.popleft()
            users.append(nxt)
            nxt.succeed()

    def acquire(self, hold_time):
        """Convenience process-fragment: acquire, hold for *hold_time*, release.

        Usage: ``yield from resource.acquire(duration)``.

        When a slot is free the grant is synchronous: nothing enters the
        event queue for it, so an uncontended acquire costs a single
        simulator event (the hold timeout) instead of two — and the timeout
        itself doubles as the slot token, so no :class:`Request` is built at
        all.  Every CPU charge and bus hop goes through here (or through
        :meth:`acquire_event`), which makes this the single biggest
        event-count lever in the simulator.  A full resource still queues a
        :class:`Request` and yields it, so FIFO ordering under contention is
        unchanged.
        """
        users = self._users
        if len(users) < self.capacity:
            token = Timeout(self.env, hold_time)
            users.append(token)
            try:
                yield token
            finally:
                self.release(token)
        else:
            req = Request(self)
            self._waiters.append(req)
            yield req
            try:
                yield self.env.timeout(hold_time)
            finally:
                self.release(req)

    def acquire_event(self, hold_time):
        """Non-generator fast path: the whole acquire/hold/release as one event.

        When a slot is free, returns a single :class:`Timeout` to yield —
        the grant is synchronous (as in :meth:`acquire`), the timeout itself
        is the slot token, and the release is attached as the timeout's
        first callback, so it runs at expiry *before* the waiting process
        resumes: exactly the effect order of the generator path, without the
        generator frame.  Returns ``None`` when the resource is full; the
        caller falls back to :meth:`acquire`::

            event = resource.acquire_event(hold)
            if event is None:
                yield from resource.acquire(hold)
            else:
                yield event
        """
        users = self._users
        if len(users) >= self.capacity:
            return None
        timeout = Timeout(self.env, hold_time)
        users.append(timeout)
        timeout.callbacks.append(lambda _event: self.release(timeout))
        return timeout

    def __repr__(self):
        return (f"<Resource {self.name} {self.count}/{self.capacity} used, "
                f"{self.queue_length} waiting>")
